package repair

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// zeroBlocks returns n distinct level-0 blocks whose coefficient
// vectors are all zero: any sample of them is degenerate.
func zeroBlocks(levels *core.Levels, n int) []*core.CodedBlock {
	out := make([]*core.CodedBlock, n)
	for i := range out {
		payload := make([]byte, 32)
		payload[0] = byte(i + 1)
		out[i] = &core.CodedBlock{Level: 0, Coeff: make([]byte, levels.Total()), Payload: payload}
	}
	return out
}

func TestSortBlocksDeterminism(t *testing.T) {
	_, _, blocks, _ := testCode(t, 9, 12)
	a := append([]*core.CodedBlock(nil), blocks...)
	b := append([]*core.CodedBlock(nil), blocks...)
	rand.New(rand.NewSource(2)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	sortBlocks(a)
	sortBlocks(b)
	for i := range a {
		if a[i].Level != b[i].Level || !bytes.Equal(a[i].DenseCoeff(), b[i].DenseCoeff()) || !bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatalf("sortBlocks not order-insensitive at %d", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Level > a[i].Level {
			t.Fatal("sortBlocks did not order by level")
		}
	}
}

func TestPreferOrderUnreachableLast(t *testing.T) {
	// Fewest copies first; the unreachable replica (-1) ranks after
	// every reachable one, however full they are.
	if got, want := preferOrder([]int{3, -1, 0, 2}), []int{2, 3, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("preferOrder = %v, want %v", got, want)
	}
}

// TestRegenerateCopiesFreshWhenDegenerate is the migration case: the
// survivors span nothing, so recombination fails with
// ErrDegenerateInputs, and the step copies verbatim exactly the
// survivors the shard lacks — then stops, without skipping the level.
func TestRegenerateCopiesFreshWhenDegenerate(t *testing.T) {
	levels, _, _, _ := testCode(t, 30, 1)
	f := newFleet(t, 2, levels.Count())
	zeros := zeroBlocks(levels, 3)
	fresh := map[*core.CodedBlock]bool{zeros[0]: true, zeros[2]: true}
	replicas := f.repl.ReplicasFor(0)
	ctx := context.Background()
	rep, err := Regenerate(ctx, Regen{
		Shard: f.repl, Scheme: core.PLC, Levels: levels,
		Survivors: append([]*core.CodedBlock(nil), zeros...), Fresh: fresh,
		Deficient: []LevelReport{{Level: 0, Replicas: replicas, Deficit: 10 * replicas, PerReplica: []int{0, 0}}},
		Rng:       rand.New(rand.NewSource(1)), SampleSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Copied != 2 || rep.Regenerated != 0 || rep.Copies != 2*replicas || len(rep.SkippedLevels) != 0 || rep.Truncated {
		t.Fatalf("raw-copy fallback report %+v, want 2 copies and no skip", rep)
	}
	got, err := f.repl.Collect(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("shard holds %d blocks, want the 2 fresh survivors", len(got))
	}
	for _, b := range got {
		if b.Payload[0] != zeros[0].Payload[0] && b.Payload[0] != zeros[2].Payload[0] {
			t.Fatalf("placed a survivor the shard already held (payload tag %d)", b.Payload[0])
		}
	}
}

// TestRunOnceSkipsDegenerateLevel is the repair side of the same case:
// the daemon's survivors come from the shard itself, so the raw-copy
// fallback has nothing to copy and the level is skipped.
func TestRunOnceSkipsDegenerateLevel(t *testing.T) {
	levels, _, _, _ := testCode(t, 31, 1)
	f := newFleet(t, 3, levels.Count())
	zeros := zeroBlocks(levels, 3)
	ctx := context.Background()
	for _, b := range zeros {
		if err := f.repl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(f.repl, Config{Scheme: core.PLC, Levels: levels, Targets: []int{5, 0, 0}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.SkippedLevels, []int{0}) || rep.Regenerated != 0 || rep.Copies != 0 {
		t.Fatalf("degenerate level not skipped: %+v", rep)
	}
	got, err := f.repl.Collect(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(zeros) {
		t.Fatalf("repair placed blocks on a degenerate level: %d stored, want %d", len(got), len(zeros))
	}
}
