package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
)

const testOpen = 3 * time.Second

func TestPlanHashIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range workloads {
		a := planHash(w, 7, testOpen, 500)
		if b := planHash(w, 7, testOpen, 500); a != b {
			t.Errorf("%s: seed 7 hashed to %016x and then %016x", w.name, a, b)
		}
		if c := planHash(w, 8, testOpen, 500); a == c {
			t.Errorf("%s: seeds 7 and 8 share the plan hash %016x", w.name, a)
		}
	}
	seen := map[uint64]string{}
	for _, w := range workloads {
		h := planHash(w, 7, testOpen, 500)
		if other, dup := seen[h]; dup {
			t.Errorf("workloads %s and %s share the plan hash %016x", w.name, other, h)
		}
		seen[h] = w.name
	}
}

// TestProgramReceivesOnlyGeneratedInputs checks that every op names a
// generated object: a put creates the next object, and a get reads one
// that was seeded or put at least getLag ops earlier — across the open
// loop and its closed-loop continuation alike.
func TestProgramReceivesOnlyGeneratedInputs(t *testing.T) {
	for _, w := range workloads {
		p := newPlanner(w, 3)
		ops := p.openLoop(testOpen)
		for i := 0; i < 2000; i++ {
			ops = append(ops, p.next())
		}
		putAt := map[int]int{}
		next := w.seedObjects
		kinds := map[opKind]int{}
		for i, o := range ops {
			kinds[o.kind]++
			if o.kind == opPut {
				if o.obj != next {
					t.Fatalf("%s: op %d puts object %d, want the next object %d", w.name, i, o.obj, next)
				}
				putAt[o.obj] = i
				next++
				continue
			}
			if o.obj < 0 || o.obj >= next {
				t.Fatalf("%s: op %d reads object %d, which was never planned", w.name, i, o.obj)
			}
			if at, put := putAt[o.obj]; put && i-at < getLag {
				t.Fatalf("%s: op %d reads object %d put only %d ops earlier", w.name, i, o.obj, i-at)
			}
		}
		for k := range opNames {
			if kinds[opKind(k)] == 0 {
				t.Errorf("%s: plan has no %s ops", w.name, opNames[k])
			}
		}
	}
}

// TestObjectsEncodeDeterministicallyAndDecodeToTheirSources checks
// that the blocks a put sends are a pure function of (workload, seed,
// object) and that they decode to exactly the generated sources.
func TestObjectsEncodeDeterministicallyAndDecodeToTheirSources(t *testing.T) {
	for _, w := range workloads {
		lv, err := core.NewLevels(w.levels...)
		if err != nil {
			t.Fatal(err)
		}
		a, err := encodeObject(w, 9, 4, lv, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeObject(w, 9, 4, lv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != w.blocksPerObject() {
			t.Fatalf("%s: %d blocks, want %d", w.name, len(a), w.blocksPerObject())
		}
		for i := range a {
			wa, _ := a[i].MarshalBinary()
			wb, _ := b[i].MarshalBinary()
			if !bytes.Equal(wa, wb) {
				t.Fatalf("%s: block %d differs between two encodes", w.name, i)
			}
			if a[i].Object != objectID(w, 4) {
				t.Fatalf("%s: block %d belongs to %s", w.name, i, a[i].Object)
			}
		}
		depth := lv.Count() - 1
		dec, _, err := decodeLevels(w, lv, a, depth, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := checkSources(w, 9, 4, lv, dec, depth); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := checkSources(w, 10, 4, lv, dec, depth); err == nil {
			t.Fatalf("%s: another seed's sources passed the check", w.name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
