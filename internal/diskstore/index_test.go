package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// keyedFakeWire is a v2 (keyed dense) block frame of size bytes with a
// random body: replay parses obj and level back out of it exactly as it
// would from a real frame.
func keyedFakeWire(rng *rand.Rand, obj core.ObjectID, level, size int) []byte {
	w := make([]byte, size)
	rng.Read(w)
	w[0], w[1], w[2] = 'P', 'B', 2
	binary.BigEndian.PutUint64(w[3:11], uint64(obj))
	binary.BigEndian.PutUint16(w[11:13], uint16(level))
	return w
}

// putKeyed stores every block of obj, failing on an error or a dedup.
func putKeyed(t *testing.T, s *Store, obj core.ObjectID, wires [][]byte, lvls []int) {
	t.Helper()
	for i, w := range wires {
		stored, err := s.Put(obj, lvls[i], w)
		if err != nil {
			t.Fatalf("put %d of %v: %v", i, obj, err)
		}
		if !stored {
			t.Fatalf("put %d of %v: reported dedup for a fresh block", i, obj)
		}
	}
}

// mustGet reads obj's blocks up to maxLevel, failing on an error.
func mustGet(t *testing.T, s *Store, obj core.ObjectID, maxLevel int) [][]byte {
	t.Helper()
	got, err := s.Get(obj, maxLevel)
	if err != nil {
		t.Fatalf("get %v: %v", obj, err)
	}
	return got
}

// wireBytes sums the wire lengths of a block list.
func wireBytes(ws [][]byte) int64 {
	var n int64
	for _, w := range ws {
		n += int64(len(w))
	}
	return n
}

// diskBytes sums the sizes of the segment files on disk.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

func TestGetAfterCloseFails(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	_, _, wires, lvls := testBlocks(t, 4)
	putAll(t, s, wires, lvls)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(core.ZeroObject, -1); !errors.Is(err, store.ErrStoreUnavailable) {
		t.Fatalf("get after close: %d blocks, err %v; want ErrStoreUnavailable", len(got), err)
	}
	if got, err := s.Get(core.AllObjects, -1); !errors.Is(err, store.ErrStoreUnavailable) {
		t.Fatalf("wildcard get after close: %d blocks, err %v; want ErrStoreUnavailable", len(got), err)
	}
}

func TestDeleteRemovesObject(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Metrics: reg})
	alpha, beta := core.NamedObject("alpha"), core.NamedObject("beta")
	aw, al := keyedBlocks(t, alpha, 10, 1)
	bw, bl := keyedBlocks(t, beta, 14, 2)
	putKeyed(t, s, alpha, aw, al)
	putKeyed(t, s, beta, bw, bl)

	removed, err := s.Delete(alpha)
	if err != nil || removed != len(aw) {
		t.Fatalf("delete alpha: removed %d, err %v; want %d", removed, err, len(aw))
	}
	if got := mustGet(t, s, alpha, -1); len(got) != 0 {
		t.Fatalf("deleted object still serves %d blocks", len(got))
	}
	if got := mustGet(t, s, alpha, 0); len(got) != 0 {
		t.Fatalf("deleted object still serves %d level-0 blocks", len(got))
	}
	sameSet(t, mustGet(t, s, beta, -1), bw)
	sameSet(t, mustGet(t, s, core.AllObjects, -1), bw)
	if s.Len() != len(bw) || s.Bytes() != wireBytes(bw) {
		t.Fatalf("Len %d, Bytes %d after delete; want %d, %d", s.Len(), s.Bytes(), len(bw), wireBytes(bw))
	}
	st := s.Stats()
	if st.Blocks != len(bw) || st.Bytes != wireBytes(bw) {
		t.Fatalf("stats %d blocks / %d bytes after delete; want %d / %d", st.Blocks, st.Bytes, len(bw), wireBytes(bw))
	}
	if len(st.PerObject) != 1 || st.PerObject[0].Object != beta {
		t.Fatalf("stats still list the deleted object: %+v", st.PerObject)
	}
	levelSum := 0
	for _, lc := range st.PerLevel {
		levelSum += lc.Count
	}
	if levelSum != len(bw) {
		t.Fatalf("per-level counts sum to %d, want %d", levelSum, len(bw))
	}
	live := 0
	for _, in := range s.SegmentInfos() {
		live += in.Records
	}
	if live != len(bw) {
		t.Fatalf("segments report %d live records, want %d", live, len(bw))
	}
	snap := reg.Snapshot()
	if got := countVal(t, snap, "diskstore_blocks_deleted_total"); got != uint64(len(aw)) {
		t.Fatalf("blocks_deleted = %d, want %d", got, len(aw))
	}
}

func TestDeleteTwiceAppendsNoTombstone(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openTest(t, dir, Options{Metrics: reg})
	alpha := core.NamedObject("alpha")
	aw, al := keyedBlocks(t, alpha, 8, 1)
	putKeyed(t, s, alpha, aw, al)
	if removed, err := s.Delete(alpha); err != nil || removed != len(aw) {
		t.Fatalf("first delete: removed %d, err %v; want %d", removed, err, len(aw))
	}
	size := diskBytes(t, dir)
	for _, obj := range []core.ObjectID{alpha, core.NamedObject("never-stored")} {
		if removed, err := s.Delete(obj); err != nil || removed != 0 {
			t.Fatalf("delete of absent %v: removed %d, err %v; want 0, nil", obj, removed, err)
		}
	}
	if got := diskBytes(t, dir); got != size {
		t.Fatalf("segment files grew %d -> %d bytes on deletes of absent objects", size, got)
	}
	if got := countVal(t, reg.Snapshot(), "diskstore_deletes_total"); got != 1 {
		t.Fatalf("deletes_total = %d, want 1 (absent deletes log nothing)", got)
	}
}

func TestRePutAfterDeleteSurvives(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	alpha := core.NamedObject("alpha")
	aw, al := keyedBlocks(t, alpha, 10, 1)
	putKeyed(t, s, alpha, aw, al)
	if _, err := s.Delete(alpha); err != nil {
		t.Fatal(err)
	}
	// The delete dropped the dedup entries too, so the same bytes store
	// again rather than answering as duplicates.
	putKeyed(t, s, alpha, aw[:4], al[:4])
	sameSet(t, mustGet(t, s, alpha, -1), aw[:4])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	sameSet(t, mustGet(t, s2, alpha, -1), aw[:4])
	if s2.Len() != 4 || s2.Bytes() != wireBytes(aw[:4]) {
		t.Fatalf("after reopen Len %d, Bytes %d; want 4, %d", s2.Len(), s2.Bytes(), wireBytes(aw[:4]))
	}
}

// TestDeleteReplayAcrossSegments puts the object's records in one
// sealed segment, its tombstone in a later one and its re-put in a third:
// replay must apply the tombstone backwards across segment files and
// nowhere forwards.
func TestDeleteReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	alpha, beta := core.NamedObject("alpha"), core.NamedObject("beta")
	aw, al := keyedBlocks(t, alpha, 10, 1)
	bw, bl := keyedBlocks(t, beta, 6, 2)
	putKeyed(t, s, alpha, aw, al) // segment 1
	putKeyed(t, s, beta, bw, bl)
	s.requestRotate()
	if removed, err := s.Delete(alpha); err != nil || removed != len(aw) { // tombstone in segment 2
		t.Fatalf("delete: removed %d, err %v; want %d", removed, err, len(aw))
	}
	s.requestRotate()
	putKeyed(t, s, alpha, aw[:3], al[:3]) // re-put in segment 3
	if got := s.Segments(); got != 3 {
		t.Fatalf("%d segments, want 3 (records, tombstone, re-put)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	sameSet(t, mustGet(t, s2, alpha, -1), aw[:3])
	sameSet(t, mustGet(t, s2, beta, -1), bw)
	if want := 3 + len(bw); s2.Len() != want {
		t.Fatalf("after reopen Len %d, want %d", s2.Len(), want)
	}
	for _, ob := range s2.Stats().PerObject {
		if ob.Object == alpha && ob.Blocks != 3 {
			t.Fatalf("replayed stats hold %d alpha blocks, want 3", ob.Blocks)
		}
	}
}

// TestCompactionHonorsTombstones drops sealed segments whose records all
// died, but keeps a sealed tombstone segment while an earlier segment
// still holds the tombstoned object's bytes: dropping it then would let
// a replay resurrect them.
func TestCompactionHonorsTombstones(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openTest(t, dir, Options{Metrics: reg})
	alpha, beta, gamma := core.NamedObject("alpha"), core.NamedObject("beta"), core.NamedObject("gamma")
	aw, al := keyedBlocks(t, alpha, 6, 1)
	bw, bl := keyedBlocks(t, beta, 6, 2)
	gw, gl := keyedBlocks(t, gamma, 6, 3)
	putKeyed(t, s, alpha, aw, al) // segment 1: alpha and beta
	putKeyed(t, s, beta, bw, bl)
	s.requestRotate()
	if _, err := s.Delete(alpha); err != nil { // segment 2: alpha's tombstone
		t.Fatal(err)
	}
	s.requestRotate()
	putKeyed(t, s, gamma, gw, gl) // segment 3 (active): gamma
	if _, err := s.Delete(gamma); err != nil {
		t.Fatal(err)
	}
	// Segment 1 still serves beta; segment 2 is all dead but its
	// tombstone guards alpha's bytes in segment 1.
	if got := s.Segments(); got != 3 {
		t.Fatalf("%d segments after deleting gamma, want 3 (nothing droppable yet)", got)
	}
	if got := countVal(t, reg.Snapshot(), "diskstore_segments_compacted_total"); got != 0 {
		t.Fatalf("compacted %d segments, want 0", got)
	}

	// Deleting beta kills segment 1, which frees segment 2's tombstone.
	if _, err := s.Delete(beta); err != nil {
		t.Fatal(err)
	}
	if got := s.Segments(); got != 1 {
		t.Fatalf("%d segments after deleting beta, want 1 (only the active)", got)
	}
	if names, _, err := listSegments(dir); err != nil || len(names) != 1 {
		t.Fatalf("%d segment files on disk (err %v), want 1", len(names), err)
	}
	if got := countVal(t, reg.Snapshot(), "diskstore_segments_compacted_total"); got != 2 {
		t.Fatalf("compacted %d segments, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	if s2.Len() != 0 {
		t.Fatalf("replay after compaction resurrected %d blocks", s2.Len())
	}
}

// TestGetAllocsIndependentOfStoreSize reads the same 15-block object out
// of a 1k-record and a 16k-record store. A per-object read must allocate
// for the object, not for the store: the two must agree within 2x.
func TestGetAllocsIndependentOfStoreSize(t *testing.T) {
	const runs = 50
	measure := func(records int) (allocs float64, bytes uint64) {
		s, target := fillForGet(t, t.TempDir(), records)
		defer s.Close()
		get := func() {
			if got, err := s.Get(target, -1); err != nil || len(got) != getObjectBlocks {
				t.Fatalf("get: %d blocks, err %v; want %d", len(got), err, getObjectBlocks)
			}
		}
		get() // warm the cache so both stores serve from memory
		allocs = testing.AllocsPerRun(runs, get)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(1 << 10)
	bigAllocs, bigBytes := measure(16 << 10)
	t.Logf("Get of %d blocks: 1k records %.0f allocs / %d B, 16k records %.0f allocs / %d B",
		getObjectBlocks, smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs > 2*smallAllocs || bigBytes > 2*smallBytes {
		t.Fatalf("Get allocates with the store: 16k records %.0f allocs / %d B vs 1k records %.0f allocs / %d B",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}

// TestGetMatchesReferenceModel drives a seeded mix of puts, re-puts,
// deletes, rotations, retention expiry and reopens, and after every step
// checks each Get against a model: the live records in log order.
func TestGetMatchesReferenceModel(t *testing.T) {
	type mrec struct {
		obj   core.ObjectID
		level int
		wire  []byte
		seg   uint64 // the segment the record landed in
	}
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNone, Retention: time.Hour, RetentionCheck: time.Hour}
	s := openTest(t, dir, opts)
	rng := rand.New(rand.NewSource(7))
	objs := []core.ObjectID{core.NamedObject("m-a"), core.NamedObject("m-b"), core.NamedObject("m-c")}
	var log []mrec                              // the model: live records, log order
	history := make(map[core.ObjectID][][]byte) // every block ever put, for re-puts

	live := func(w []byte) bool {
		for _, r := range log {
			if bytes.Equal(r.wire, w) {
				return true
			}
		}
		return false
	}
	segments := func() []*segment {
		s.mu.Lock()
		defer s.mu.Unlock()
		return append([]*segment(nil), s.segs...)
	}
	check := func(step int, op string) {
		t.Helper()
		for _, obj := range append(objs, core.AllObjects) {
			for _, lvl := range []int{-1, 0, 1, 2} {
				var want [][]byte
				for _, r := range log {
					if (obj == core.AllObjects || r.obj == obj) && (lvl < 0 || r.level <= lvl) {
						want = append(want, r.wire)
					}
				}
				got := mustGet(t, s, obj, lvl)
				if len(got) != len(want) {
					t.Fatalf("step %d (%s): Get(%v, %d) returned %d blocks, model has %d", step, op, obj, lvl, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("step %d (%s): Get(%v, %d) block %d differs from the model's log order", step, op, obj, lvl, i)
					}
				}
			}
		}
		var n int64
		for _, r := range log {
			n += int64(len(r.wire))
		}
		if s.Len() != len(log) || s.Bytes() != n {
			t.Fatalf("step %d (%s): Len %d, Bytes %d; model %d, %d", step, op, s.Len(), s.Bytes(), len(log), n)
		}
	}

	for step := 0; step < 500; step++ {
		var op string
		switch k := rng.Intn(100); {
		case k < 60:
			op = "put"
			obj := objs[rng.Intn(len(objs))]
			var w []byte
			if h := history[obj]; len(h) > 0 && rng.Intn(3) == 0 {
				w = h[rng.Intn(len(h))] // a retry, or a re-put after a delete or expiry
			} else {
				w = keyedFakeWire(rng, obj, rng.Intn(3), 32+rng.Intn(64))
				history[obj] = append(history[obj], w)
			}
			_, level, _ := wireMeta(w)
			wasLive := live(w)
			stored, err := s.Put(obj, level, w)
			if err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			if stored == wasLive {
				t.Fatalf("step %d: put stored=%v for a block the model holds live=%v", step, stored, wasLive)
			}
			if stored {
				segs := segments()
				log = append(log, mrec{obj, level, w, segs[len(segs)-1].id})
			}
		case k < 70:
			op = "delete"
			obj := objs[rng.Intn(len(objs))]
			keep := log[:0]
			for _, r := range log {
				if r.obj != obj {
					keep = append(keep, r)
				}
			}
			want := len(log) - len(keep)
			log = keep
			removed, err := s.Delete(obj)
			if err != nil || removed != want {
				t.Fatalf("step %d: delete removed %d, err %v; model had %d", step, removed, err, want)
			}
		case k < 82:
			op = "rotate"
			s.requestRotate()
		case k < 90:
			// Expire every sealed segment created before a random later
			// segment: the cutoff is that segment's creation time.
			op = "retention"
			segs := segments()
			if len(segs) < 2 {
				break
			}
			j := 1 + rng.Intn(len(segs)-1)
			if !segs[j-1].createdAt.Before(segs[j].createdAt) {
				t.Fatalf("step %d: segment creation times not increasing", step)
			}
			s.enforceRetention(segs[j].createdAt.Add(opts.Retention))
			keep := log[:0]
			for _, r := range log {
				if r.seg >= segs[j].id {
					keep = append(keep, r)
				}
			}
			log = keep
		default:
			op = "reopen"
			if err := s.Close(); err != nil {
				t.Fatalf("step %d: close: %v", step, err)
			}
			s = openTest(t, dir, opts)
		}
		check(step, op)
	}
}
