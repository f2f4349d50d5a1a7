package diskstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// Disk-engine benchmarks, captured as BENCH_disk.json by `make
// bench-disk`. The headline pair is group commit vs fsync-per-put:
// DiskPutGroupCommit and its Ref run the identical concurrent put load,
// differing only in FsyncMode, so the benchjson speedup is exactly the
// batching win. DiskPutBeyondRAM proves sustained ingest far past an
// in-memory cap with bounded heap. DiskGetObject reads one object out of
// a small and a 16x larger store: flat ns/op across the pair is the
// per-object index at work.

const benchWireBytes = 1024

// benchPutParallel drives concurrent distinct-block puts through one
// store; the reported bytes are block payload through the engine. Each
// goroutine reuses one random payload and stamps a unique counter into
// it, so the timed loop measures the commit path, not block generation.
func benchPutParallel(b *testing.B, mode FsyncMode) {
	b.Helper()
	s, err := Open(b.TempDir(), Options{Fsync: mode, Logf: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var worker atomic.Int64
	b.SetBytes(benchWireBytes)
	// The unit of concurrency is client connections, not cores: a daemon
	// serves one goroutine per connection, so batching opportunity exists
	// even on a single-CPU host. 32 in-flight puts models a busy fleet.
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		wire := fakeWire(rand.New(rand.NewSource(id)), 0, benchWireBytes)
		binary.BigEndian.PutUint64(wire[16:], uint64(id))
		var n uint64
		for pb.Next() {
			n++
			binary.BigEndian.PutUint64(wire[24:], n)
			if _, err := s.Put(core.ZeroObject, 0, wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiskPutGroupCommit is the group-commit writer: one fsync per
// coalesced batch.
func BenchmarkDiskPutGroupCommit(b *testing.B) {
	benchPutParallel(b, FsyncBatch)
}

// BenchmarkDiskPutGroupCommitRef is the per-put durability baseline the
// ISSUE's >=5x target measures against: same load, fsync every block.
func BenchmarkDiskPutGroupCommitRef(b *testing.B) {
	benchPutParallel(b, FsyncAlways)
}

// BenchmarkDiskPutBeyondRAM ingests 10x an in-memory block cap per
// iteration (the cap a MemStore-backed daemon would refuse puts at) and
// reports the heap growth, showing capacity decoupled from RAM.
func BenchmarkDiskPutBeyondRAM(b *testing.B) {
	const (
		ramCapBlocks = 1024 // a MemStore cap the load overruns 10x
		wireBytes    = 1024
		putters      = 8
	)
	total := 10 * ramCapBlocks
	s, err := Open(b.TempDir(), Options{SegmentBytes: 4 << 20, Logf: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.SetBytes(int64(total) * wireBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < putters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i*putters + g + 1)))
				for j := 0; j < total/putters; j++ {
					if _, err := s.Put(core.ZeroObject, j%3, fakeWire(rng, j%3, wireBytes)); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	b.StopTimer()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	heapMB := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20)
	if heapMB < 0 {
		heapMB = 0
	}
	storedMB := float64(s.Bytes()) / (1 << 20)
	b.ReportMetric(float64(s.Len())/ramCapBlocks, "capacity-x")
	b.ReportMetric(heapMB, "heap-MB")
	b.ReportMetric(storedMB, "stored-MB")
}

// getObjectBlocks is how many blocks the object DiskGetObject reads
// holds: one N=8 object at the 1.6x provisioning the benchmark fleet
// uses.
const getObjectBlocks = 15

// fillForGet opens a store under dir holding records blocks: filler
// blocks of 64 objects around one target object of getObjectBlocks
// blocks, written in the middle of the log. It returns the store and
// the target.
func fillForGet(tb testing.TB, dir string, records int) (*Store, core.ObjectID) {
	tb.Helper()
	s, err := Open(dir, Options{Fsync: FsyncNone, Logf: quiet})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(records)))
	target := core.NamedObject("get-target")
	put := func(obj core.ObjectID, level int) {
		if _, err := s.Put(obj, level, keyedFakeWire(rng, obj, level, 128)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < records-getObjectBlocks; i++ {
		if i == (records-getObjectBlocks)/2 {
			for j := 0; j < getObjectBlocks; j++ {
				put(target, j%3)
			}
		}
		put(core.NamedObject(fmt.Sprintf("filler-%d", i%64)), i%3)
	}
	return s, target
}

// BenchmarkDiskGetObject reads every block of one 15-block object from
// stores of 1k and 16k records, cache warm. Get walks only the object's
// own index entries, so ns/op and B/op stay flat across the pair; a
// store-wide scan would grow both with the record count.
func BenchmarkDiskGetObject(b *testing.B) {
	for _, records := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("records=%dk", records>>10), func(b *testing.B) {
			s, target := fillForGet(b, b.TempDir(), records)
			defer s.Close()
			if _, err := s.Get(target, -1); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := s.Get(target, -1)
				if err != nil || len(got) != getObjectBlocks {
					b.Fatalf("get: %d blocks, err %v; want %d", len(got), err, getObjectBlocks)
				}
			}
		})
	}
}
