package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/metrics"
	"repro/internal/store"
)

// engine wraps one node's *diskstore.Store. It keeps the ledger of
// acknowledged blocks the post-run durability check replays against,
// and in a traced run times every engine Put and Get.
type engine struct {
	*diskstore.Store
	tr *tracer

	// mu orders the ledger with the engine: puts share it, a delete
	// takes it alone, so a put acknowledged after a delete of its
	// object is never dropped from the ledger by that delete.
	mu     sync.RWMutex
	ledMu  sync.Mutex
	ledger map[core.ObjectID]map[uint64]struct{}
}

func (e *engine) Put(obj core.ObjectID, level int, wire []byte) (bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t0 := time.Now()
	stored, err := e.Store.Put(obj, level, wire)
	e.tr.engine(spDiskPut, t0)
	if err == nil {
		h := wireHash(wire)
		e.ledMu.Lock()
		set := e.ledger[obj]
		if set == nil {
			set = make(map[uint64]struct{})
			e.ledger[obj] = set
		}
		set[h] = struct{}{}
		e.ledMu.Unlock()
	}
	return stored, err
}

func (e *engine) Get(obj core.ObjectID, maxLevel int) ([][]byte, error) {
	t0 := time.Now()
	out, err := e.Store.Get(obj, maxLevel)
	e.tr.engine(spDiskGet, t0)
	return out, err
}

func (e *engine) Delete(obj core.ObjectID) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n, err := e.Store.Delete(obj)
	if err == nil {
		e.ledMu.Lock()
		delete(e.ledger, obj)
		e.ledMu.Unlock()
	}
	return n, err
}

func wireHash(wire []byte) uint64 {
	h := fnv.New64a()
	h.Write(wire)
	return h.Sum64()
}

type node struct {
	dir  string
	addr string
	eng  *engine
	srv  *store.Server
}

// fleet is the in-process ring: store.Servers on loopback TCP, each
// over its own diskstore in its own directory.
type fleet struct {
	dir    string
	w      workload
	tr     *tracer
	nodes  []*node
	serial int // distinguishes the directories of replaced nodes
}

// fsyncMode is the engines' durability policy. Group commit
// (FsyncBatch) made every put wait for its own fsync at two ops in flight,
// and on a two-vCPU virtual machine with a shared virtual disk, fsync time
// swung by up to four times between runs a minute apart: put latency,
// capacity and set-up time varied by 50-170% between seeds. Without
// fsync the engines still append every block to their segment files
// before acknowledging it, and the post-run checks replay those files.
const fsyncMode = diskstore.FsyncNone

func (f *fleet) options() diskstore.Options {
	return diskstore.Options{
		Fsync:        fsyncMode,
		SegmentBytes: segmentBytes,
		CacheBytes:   f.w.cacheBytes,
		Logf:         func(string, ...any) {},
		Metrics:      f.tr.reg(regDisk),
	}
}

// segmentBytes is small enough that the read population spans several
// segments per node, so rotation and compaction happen within a run.
const segmentBytes = 4 << 20

// Node i listens on basePort+i. Ring positions are hashes of node
// addresses, so fixed addresses give every run the same ring layout:
// the same arcs, and the same share of objects that move when the spare
// joins or live on the replaced node. Ephemeral ports would redraw the
// layout, and with it the rehome and repair work, on every run. This
// base gives the four ring nodes arcs of 15-34% of the ring, and the
// spare 19% once it joins. A run whose ports are taken fails.
const basePort = 22200

// bootFleet starts n nodes under dir.
func bootFleet(dir string, w workload, tr *tracer, n int) (*fleet, error) {
	f := &fleet{dir: dir, w: w, tr: tr}
	for i := 0; i < n; i++ {
		nd, err := f.start(fmt.Sprintf("127.0.0.1:%d", basePort+i))
		if err != nil {
			f.shutdown()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
	}
	return f, nil
}

// start opens a blank engine in a fresh directory and serves it on addr.
func (f *fleet) start(addr string) (*node, error) {
	dir := filepath.Join(f.dir, fmt.Sprintf("node-%d", f.serial))
	f.serial++
	st, err := diskstore.Open(dir, f.options())
	if err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	eng := &engine{Store: st, tr: f.tr, ledger: make(map[core.ObjectID]map[uint64]struct{})}
	cfg := store.ServerConfig{Addr: addr, Blocks: eng, Metrics: f.tr.reg(regServer)}
	// The listener of a server that just stopped on addr (a replaced
	// node, or the fleet of an earlier set-up) may take a moment to
	// release the port.
	srv, err := store.NewServer(cfg)
	for try := 0; err != nil && try < 50; try++ {
		time.Sleep(10 * time.Millisecond)
		srv, err = store.NewServer(cfg)
	}
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("serve on %s (ports %d-%d must be free): %w", addr, basePort, basePort+ringNodes, err)
	}
	return &node{dir: dir, addr: srv.Addr(), eng: eng, srv: srv}, nil
}

// replace swaps node i for a blank engine serving the same address —
// a disk loss followed by a restart.
func (f *fleet) replace(i int) error {
	old := f.nodes[i]
	stopNode(old)
	if err := os.RemoveAll(old.dir); err != nil {
		return err
	}
	nd, err := f.start(old.addr)
	if err != nil {
		return fmt.Errorf("restart %s: %w", old.addr, err)
	}
	f.nodes[i] = nd
	return nil
}

func stopNode(nd *node) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nd.srv.Shutdown(ctx)
	nd.eng.Close()
}

func (f *fleet) shutdown() {
	for _, nd := range f.nodes {
		stopNode(nd)
	}
	f.nodes = nil
}

func (f *fleet) addrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = f.nodes[i].addr
	}
	return out
}

// space reads the redundancy and space-amplification inputs: live
// stored bytes and segment file bytes, summed over nodes.
func (f *fleet) space() (live, disk int64) {
	for _, nd := range f.nodes {
		live += nd.eng.Bytes()
		for _, sg := range nd.eng.SegmentInfos() {
			disk += sg.Bytes
		}
	}
	return live, disk
}

// newPlaced dials the first n nodes as one placement front end.
func newPlaced(addrs []string, levels int, reg *metrics.Registry) (*store.Placed, error) {
	dial := func(addr string) (*store.Client, error) {
		return store.NewClient(store.ClientConfig{Addr: addr, Metrics: reg})
	}
	clients := make([]*store.Client, len(addrs))
	for i, a := range addrs {
		cl, err := dial(a)
		if err != nil {
			return nil, err
		}
		clients[i] = cl
	}
	return store.NewPlaced(clients, levels, store.PlacedConfig{
		Replication: replication, Tolerance: 1, MinWrites: 1, NewClient: dial, Metrics: reg,
	})
}

// verifyDurable stops every node, reopens each engine from its files
// (replay), and checks that it still holds every block it acknowledged.
// It returns every replayed block, grouped by object, for the decode
// check. Each engine is read once: a diskstore Get scans the whole
// index, so one Get per object would cost the square of the population.
func (f *fleet) verifyDurable() (map[core.ObjectID][]*core.CodedBlock, []error) {
	byObj := make(map[core.ObjectID][]*core.CodedBlock)
	var errs []error
	for _, nd := range f.nodes {
		stopNode(nd)
		st, err := diskstore.Open(nd.dir, diskstore.Options{Logf: func(string, ...any) {}})
		if err != nil {
			errs = append(errs, fmt.Errorf("reopen %s: %w", nd.addr, err))
			continue
		}
		wires, err := st.Get(core.AllObjects, -1)
		st.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("replay %s: %w", nd.addr, err))
			continue
		}
		have := make(map[uint64]struct{}, len(wires))
		for _, wr := range wires {
			have[wireHash(wr)] = struct{}{}
			b := new(core.CodedBlock)
			if err := b.UnmarshalBinary(wr); err != nil {
				errs = append(errs, fmt.Errorf("replay %s: %w", nd.addr, err))
				continue
			}
			byObj[b.Object] = append(byObj[b.Object], b)
		}
		missing := 0
		for _, want := range nd.eng.ledger {
			for h := range want {
				if _, ok := have[h]; !ok {
					missing++
				}
			}
		}
		if missing > 0 {
			errs = append(errs, fmt.Errorf("node %s lost %d acknowledged blocks across restart", nd.addr, missing))
		}
	}
	f.nodes = nil
	return byObj, errs
}

// verifyDecodes checks that every object decodes all levels bit-exact
// from the blocks the reopened engines hold.
func verifyDecodes(w workload, seed int64, lv *core.Levels, byObj map[core.ObjectID][]*core.CodedBlock, objs []int) []error {
	var errs []error
	depth := lv.Count() - 1
	for _, idx := range objs {
		dec, _, err := decodeLevels(w, lv, byObj[objectID(w, idx)], depth, nil)
		if err == nil {
			err = checkSources(w, seed, idx, lv, dec, depth)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("object %d after restart: %w", idx, err))
		}
	}
	return errs
}

// decodeLevels feeds blocks to a decoder until levels 0..depth decode,
// returning the decoder and how many blocks it took.
func decodeLevels(w workload, lv *core.Levels, blocks []*core.CodedBlock, depth int, reg *metrics.Registry) (*core.Decoder, int, error) {
	dec, err := core.NewDecoder(core.PLC, lv, w.payload)
	if err != nil {
		return nil, 0, err
	}
	if reg != nil {
		dec.SetMetrics(reg)
	}
	added := 0
	for _, b := range blocks {
		if dec.LevelDecoded(depth) {
			break
		}
		if _, err := dec.Add(b); err != nil {
			return nil, added, err
		}
		added++
	}
	if !dec.LevelDecoded(depth) {
		return nil, added, fmt.Errorf("levels 0..%d not decodable from %d blocks (rank %d)", depth, len(blocks), dec.Rank())
	}
	return dec, added, nil
}

// checkSources compares the decoded sources of levels 0..depth with the
// object's generated sources, bit for bit.
func checkSources(w workload, seed int64, idx int, lv *core.Levels, dec *core.Decoder, depth int) error {
	hi := lv.CumSize(depth)
	want := objectSources(w, seed, idx, 0, hi)
	for i := 0; i < hi; i++ {
		got, err := dec.Source(i)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want[i]) {
			return fmt.Errorf("source %d decodes to different bytes", i)
		}
	}
	return nil
}
