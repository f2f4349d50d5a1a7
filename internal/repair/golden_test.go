package repair_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mover"
	"repro/internal/repair"
	"repro/internal/store"
)

// The golden tests pin what one seeded round of each maintenance loop
// places on a fixed in-process fleet: the FNV-64a hash of every block
// an engine accepted, in placement order, and the round's counters.
// Both loops run on the shared regenerate step, so any change to its
// sampling, recombination or placement order moves these values. The
// pinned values were recorded from the two separate loops that preceded
// the shared step, so they show that merging them moved no bytes.

// placements records the FNV-64a hash of every block any engine of a
// golden fleet accepts, in arrival order.
type placements struct {
	mu   sync.Mutex
	sums []uint64
}

func (p *placements) reset() {
	p.mu.Lock()
	p.sums = nil
	p.mu.Unlock()
}

func (p *placements) snapshot() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.sums...)
}

// recordingEngine is an in-memory engine that logs accepted puts.
type recordingEngine struct {
	*store.MemStore
	log *placements
}

func (e recordingEngine) Put(obj core.ObjectID, level int, wire []byte) (bool, error) {
	stored, err := e.MemStore.Put(obj, level, wire)
	if err == nil {
		h := fnv.New64a()
		h.Write(wire)
		e.log.mu.Lock()
		e.log.sums = append(e.log.sums, h.Sum64())
		e.log.mu.Unlock()
	}
	return stored, err
}

// labelDialer routes fixed node labels to the servers' ephemeral
// ports. Ring positions hash the labels, so the layout is the same on
// every run.
type labelDialer map[string]string

func (d labelDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	real, ok := d[addr]
	if !ok {
		return nil, fmt.Errorf("no node labelled %q", addr)
	}
	var nd net.Dialer
	return nd.DialContext(ctx, network, real)
}

// goldenFleet is n in-process nodes labelled golden-0 … golden-(n-1).
type goldenFleet struct {
	labels  []string
	engines []recordingEngine
	dialer  labelDialer
	log     *placements
}

func newGoldenFleet(t *testing.T, n int) *goldenFleet {
	t.Helper()
	f := &goldenFleet{dialer: labelDialer{}, log: &placements{}}
	for i := 0; i < n; i++ {
		eng := recordingEngine{MemStore: store.NewMemStore(0), log: f.log}
		srv, err := store.NewServer(store.ServerConfig{Blocks: eng})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		label := fmt.Sprintf("golden-%d:1", i)
		f.labels = append(f.labels, label)
		f.engines = append(f.engines, eng)
		f.dialer[label] = srv.Addr()
	}
	return f
}

func (f *goldenFleet) client(addr string) (*store.Client, error) {
	return store.NewClient(store.ClientConfig{Addr: addr, Dialer: f.dialer, OpTimeout: 5 * time.Second})
}

func (f *goldenFleet) clients(t *testing.T, n int) []*store.Client {
	t.Helper()
	out := make([]*store.Client, n)
	for i := range out {
		cl, err := f.client(f.labels[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = cl
	}
	return out
}

// goldenCode encodes n blocks of a 3-level PLC code (3+5+8 sources of
// 32 bytes) for obj from a fixed seed.
func goldenCode(t *testing.T, seed int64, n int, obj core.ObjectID) (*core.Levels, []*core.CodedBlock) {
	t.Helper()
	levels, err := core.NewLevels(3, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 32)
		rng.Read(sources[i])
	}
	enc, err := core.NewEncoder(core.PLC, levels, sources)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := enc.EncodeBatch(rng, core.PriorityDistribution{0.3, 0.3, 0.4}, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		b.Object = obj
	}
	return levels, blocks
}

// goldenResult is what a golden round pins.
type goldenResult struct {
	Placed                             []uint64
	Regenerated, Copied, Copies, Skips int
	BytesCollected, BytesPlaced        int64
}

func checkGolden(t *testing.T, got, want goldenResult) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden round moved:\n got  %#v\n want %#v", got, want)
	}
}

// TestGoldenRepairRound pins a seeded repair round that refills a
// wiped replica of a three-node fleet.
func TestGoldenRepairRound(t *testing.T) {
	ctx := context.Background()
	f := newGoldenFleet(t, 3)
	obj := core.NamedObject("golden-repair")
	levels, blocks := goldenCode(t, 5, 24, obj)
	repl, err := store.NewReplicated(f.clients(t, 3), levels.Count(), store.ReplicatedConfig{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	targets := make([]int, levels.Count())
	for _, b := range blocks {
		targets[b.Level]++
		if err := repl.Put(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.engines[2].Delete(obj); err != nil {
		t.Fatal(err)
	}
	d, err := repair.New(repl, repair.Config{
		Object: obj, Scheme: core.PLC, Levels: levels, Targets: targets, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.log.reset()
	rep, err := d.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenResult{
		Placed:         f.log.snapshot(),
		Regenerated:    rep.Regenerated,
		Copies:         rep.Copies,
		BytesCollected: rep.BytesCollected,
		BytesPlaced:    rep.BytesPlaced,
		Skips:          len(rep.SkippedLevels),
	}, goldenResult{
		Placed: []uint64{
			0xb783d969a72c7a87, 0xb783d969a72c7a87, 0xb783d969a72c7a87, 0x9d6ccb85d2ce07c6,
			0x9d6ccb85d2ce07c6, 0x9d6ccb85d2ce07c6, 0x1af1c68530ba5416, 0x1af1c68530ba5416,
			0x1af1c68530ba5416, 0x253f69d10c5d77fb, 0x253f69d10c5d77fb, 0x253f69d10c5d77fb,
			0xdca7e163e73ea149, 0xdca7e163e73ea149, 0xcc00339ca6c455d7, 0xcc00339ca6c455d7,
			0xfda6ecad85c777e8, 0xfda6ecad85c777e8, 0x4c771c569175157d, 0x4c771c569175157d,
			0x7038d4a62383980d, 0x7038d4a62383980d,
		},
		Regenerated: 9, Copied: 0, Copies: 22, Skips: 0,
		BytesCollected: 1656, BytesPlaced: 1518,
	})
}

// TestGoldenMoverRound pins a seeded migration round after a third
// node joins a two-node ring.
func TestGoldenMoverRound(t *testing.T) {
	ctx := context.Background()
	f := newGoldenFleet(t, 3)
	placed, err := store.NewPlaced(f.clients(t, 2), 3, store.PlacedConfig{
		Replication: 2, Tolerance: 1, NewClient: f.client,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer placed.Close()
	var levels *core.Levels
	const objects, perObject = 6, 24
	for i := 0; i < objects; i++ {
		var blocks []*core.CodedBlock
		levels, blocks = goldenCode(t, int64(100+i), perObject, core.NamedObject(fmt.Sprintf("golden-move-%d", i)))
		if _, err := placed.PutAll(ctx, blocks); err != nil {
			t.Fatal(err)
		}
	}
	if err := placed.Join(f.labels[2]); err != nil {
		t.Fatal(err)
	}
	m, err := mover.New(placed, mover.Config{
		Scheme: core.PLC, Levels: levels, Dist: core.PriorityDistribution{0.3, 0.3, 0.4},
		TotalBlocks: perObject, Workers: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.log.reset()
	rep, err := m.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan.Objects) == 0 || rep.Migrated != len(rep.Plan.Objects) {
		t.Fatalf("join moved %d objects, migrated %d", len(rep.Plan.Objects), rep.Migrated)
	}
	checkGolden(t, goldenResult{
		Placed:         f.log.snapshot(),
		Regenerated:    rep.Regenerated,
		Copied:         rep.Copied,
		Copies:         rep.Copies,
		BytesCollected: rep.BytesCollected,
		BytesPlaced:    rep.BytesPlaced,
		Skips:          rep.SkippedLevels,
	}, goldenResult{
		Placed: []uint64{
			0x1b8c391c94b0328d, 0x1b8c391c94b0328d, 0x88da5b274da26879, 0x88da5b274da26879,
			0xbeeaec2798c2ecbb, 0xbeeaec2798c2ecbb, 0x7cab057e18aba505, 0x7cab057e18aba505,
			0xb226b4a8bd5fcac8, 0xb226b4a8bd5fcac8, 0x4a406671ad4c32f5, 0x4a406671ad4c32f5,
			0x25cbb05604b918cf, 0x25cbb05604b918cf, 0x4613a4fd121d57d9, 0x4613a4fd121d57d9,
			0x034662c5c2c378b4, 0x034662c5c2c378b4, 0x57b83b816fe5fdae, 0x57b83b816fe5fdae,
			0x54f670764413d256, 0x54f670764413d256, 0x89cb3f2b0de5a4db, 0x89cb3f2b0de5a4db,
			0x27bf55691a1e6354, 0x27bf55691a1e6354, 0x421e9e1c2dfc7fd4, 0x421e9e1c2dfc7fd4,
			0xf4bc317cd56228d8, 0xf4bc317cd56228d8, 0x7f472a9e409f9ea6, 0x7f472a9e409f9ea6,
			0xbc6d3bd026854f46, 0xbc6d3bd026854f46, 0xe7ece74c34d5fe8c, 0xe7ece74c34d5fe8c,
			0xa3ef0f713def88e2, 0xa3ef0f713def88e2, 0xb736459f0f059c74, 0xb736459f0f059c74,
			0xd89250f8f9d6a36e, 0xd89250f8f9d6a36e, 0xaffbbca7e14a6d19, 0xaffbbca7e14a6d19,
			0x96368df08dc3ec6f, 0x96368df08dc3ec6f, 0x7ac47f8bdb87183d, 0x7ac47f8bdb87183d,
			0x0517bb84399a28bd, 0x0517bb84399a28bd, 0xd815b45f5d70c259, 0xd815b45f5d70c259,
			0x3d1dc03a629e6e74, 0x3d1dc03a629e6e74, 0x88e7efbff6e5e2d6, 0x88e7efbff6e5e2d6,
			0x336bffd7a7b51d03, 0x336bffd7a7b51d03, 0x6bf7782dfca010d7, 0x6bf7782dfca010d7,
			0x65b2208988be5ee5, 0x65b2208988be5ee5, 0x76372babe2ba15d7, 0x76372babe2ba15d7,
			0x836e5e2f3dddd5d0, 0x836e5e2f3dddd5d0, 0x7d9926bec22c9077, 0x7d9926bec22c9077,
			0x79095da07853ef22, 0x79095da07853ef22, 0x94cdc372a05d95e2, 0x94cdc372a05d95e2,
			0x15ddd927a5ea016b, 0x15ddd927a5ea016b, 0x8f6872c8ab91f76c, 0x8f6872c8ab91f76c,
			0x54fd02a229e99e0e, 0x54fd02a229e99e0e, 0xd996d5e7f8697cbf, 0xd996d5e7f8697cbf,
			0x6a7f69e3b4fb8778, 0x6a7f69e3b4fb8778, 0x2d80cf1bfbd7f457, 0x2d80cf1bfbd7f457,
			0x38cfde49ed656f7b, 0x38cfde49ed656f7b, 0x4dd14a15c64396d7, 0x4dd14a15c64396d7,
			0x0568b7d29a04e707, 0x0568b7d29a04e707, 0xe43aa874ede7aaba, 0xe43aa874ede7aaba,
			0x484576a2d7516cd4, 0x484576a2d7516cd4, 0xe6304b497989819f, 0xe6304b497989819f,
			0x6961987332d47be7, 0x6961987332d47be7, 0x4366964d4d59aeba, 0x4366964d4d59aeba,
			0x63433468aeb2d060, 0x63433468aeb2d060, 0xe05cd2f263da5269, 0xe05cd2f263da5269,
			0x3e5109f3b58e9930, 0x3e5109f3b58e9930, 0x6413006307bd77c3, 0x6413006307bd77c3,
			0x04139e809dbe792c, 0x04139e809dbe792c, 0xd011ecbadad67f36, 0xd011ecbadad67f36,
			0x93376342f572bf68, 0x93376342f572bf68, 0x38760560e42c7a0f, 0x38760560e42c7a0f,
			0x2815d330f5b15cc3, 0x2815d330f5b15cc3, 0x663a5523dc1ef30f, 0x663a5523dc1ef30f,
			0x45adfd7cf243e387, 0x45adfd7cf243e387, 0x42fd5eab7c5b7b1c, 0x42fd5eab7c5b7b1c,
			0xf6875022147b9cde, 0xf6875022147b9cde, 0x769b9962319dac2d, 0x769b9962319dac2d,
		},
		Regenerated: 64, Copied: 0, Copies: 128, Skips: 0,
		BytesCollected: 8280, BytesPlaced: 8832,
	})
}
