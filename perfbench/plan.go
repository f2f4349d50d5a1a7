package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
)

// workload is one traffic mix against one object shape. Every object in
// a run shares the workload's code (levels, payload, per-level block
// targets), because the mover and the repair daemon are configured
// fleet-wide with one set of provisioning targets.
type workload struct {
	name string
	// levels is the source-block count of each priority level; payload
	// is the bytes per source block.
	levels  []int
	payload int
	// seedObjects is the population written during set-up.
	seedObjects int
	// cacheBytes is diskstore.Options.CacheBytes on every node.
	cacheBytes int64
	// rate is the open-loop arrival rate in ops/s.
	rate float64
	// mix is the share of put, get_l0 and get_full ops.
	mix [3]float64
	// window is how many of the most recent objects a get chooses from;
	// 0 means the whole population.
	window int
	// churn runs the membership events inside the open loop; otherwise
	// they run before it, on the seeded population of a quiet fleet.
	churn bool
}

// Every workload carries all three op kinds, because every end-to-end
// metric must be reported on every workload.
var workloads = []workload{
	{
		// The writer's path: encode, the sequential two-replica put and
		// the engines' appends do most of the work; reads of fresh
		// objects stay inside the read cache.
		name: "ingest", levels: []int{2, 2, 4}, payload: 2048,
		seedObjects: 480, cacheBytes: 4 << 20,
		rate: 50, mix: [3]float64{0.70, 0.15, 0.15}, window: 64,
	},
	{
		// The reader's path: deep codes whose per-node working set is
		// several times the block cache, so collect fan-out, replica
		// duplicates, cache misses and elimination dominate.
		name: "read", levels: []int{16, 48, 96, 96}, payload: 256,
		seedObjects: 32, cacheBytes: 512 << 10,
		rate: 80, mix: [3]float64{0.01, 0.59, 0.40},
	},
	{
		// The operator's path: a modest foreground while a spare joins
		// (mover) and a node is replaced by a blank engine (repair).
		name: "churn", levels: []int{2, 2, 4}, payload: 2048,
		seedObjects: 300, cacheBytes: 4 << 20,
		rate: 40, mix: [3]float64{0.40, 0.40, 0.20}, churn: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// targets is the per-level count of distinct coded blocks per object:
// 1.6 times the level's size, rounded up, the redundancy loadgen seeds
// objects with.
func (w workload) targets() []int {
	t := make([]int, len(w.levels))
	for i, s := range w.levels {
		t[i] = (8*s + 4) / 5
	}
	return t
}

func (w workload) blocksPerObject() int {
	n := 0
	for _, t := range w.targets() {
		n += t
	}
	return n
}

func (w workload) sources() int {
	n := 0
	for _, s := range w.levels {
		n += s
	}
	return n
}

// Layout of every run: the nodes that start in the ring, plus one
// spare that joins it during the membership events.
const (
	ringNodes   = 4
	replication = 2
	// peakShare of --seconds is the closed-loop phase; the rest is the
	// open-loop phase.
	peakShare = 0.15
	// Each phase is cut into windows of equal length; a metric is the
	// median of its per-window values, so that a burst of noise on a
	// shared machine moves one window, not the result.
	windows = 5
	// getLag is how many ops earlier in the plan a get's target object
	// must have been put, so reads rarely wait on a write in flight.
	getLag = 8
)

type opKind uint8

const (
	opPut opKind = iota
	opGetL0
	opGetFull
)

var opNames = [...]string{"put", "get_l0", "get_full"}

// op is one planned operation. obj indexes the run's objects: indices
// below seedObjects are written in set-up, every put creates the next.
type op struct {
	at   time.Duration // scheduled arrival, from the open-loop start
	kind opKind
	obj  int
}

// replacedNode is the original node the repair event swaps for a blank
// engine. It is the same on every run, so that with the fixed ring
// layout every run repairs the same share of the population. It shares
// no object with the spare: the spare's objects are co-owned by nodes 0
// and 2. So no run loses the remaining old owner of a rehomed object,
// and the post-run decode check does not cover the mover's known
// half-fill defect: a rehome leaves the new owner with about half of
// each level's target (mover.new_owner_fill), which is too few to
// decode alone. Replacing node 0 instead makes that check fail on ingest
// and read: objects the spare took over no longer decode every level.
const replacedNode = 1

// eventTimes are the offsets into the open loop at which the spare joins
// and the node is replaced, on a workload with foreground churn: the
// replacement waits for the rehome to settle, so repair follows it.
func (w workload) eventTimes(openLoop time.Duration) (join, replace time.Duration) {
	if !w.churn {
		return 0, 0
	}
	return openLoop / 10, openLoop / 2
}

// planner generates a workload's ops as a pure function of (workload,
// seed). The open-loop phase takes the first ops; the closed-loop
// phase continues the same sequence for as long as it runs.
type planner struct {
	w       workload
	rng     *rand.Rand
	phase   float64 // offset of the op-kind sequence
	objects int     // objects created so far, seeded ones included
	created []int
	issued  int
}

func newPlanner(w workload, seed int64) *planner {
	rng := rand.New(rand.NewSource(seed ^ int64(nameHash(w.name))))
	p := &planner{w: w, rng: rng, phase: rng.Float64(), objects: w.seedObjects}
	for i := 0; i < w.seedObjects; i++ {
		p.created = append(p.created, -getLag) // available from the start
	}
	return p
}

// next returns the next op of the sequence (without a schedule). Op
// kinds follow a golden-ratio sequence rather than independent draws,
// so each kind is spread evenly over the run: on read, the rare puts of
// deep objects never arrive back to back and hold both in-flight slots.
func (p *planner) next() op {
	x := math.Mod(p.phase+float64(p.issued)*0.6180339887498949, 1)
	kind := opGetFull
	switch {
	case x < p.w.mix[0]:
		kind = opPut
	case x < p.w.mix[0]+p.w.mix[1]:
		kind = opGetL0
	}
	o := op{kind: kind}
	if kind == opPut {
		o.obj = p.objects
		p.objects++
		p.created = append(p.created, p.issued)
	} else {
		// Only objects put at least getLag ops ago are readable.
		avail := len(p.created)
		for avail > 0 && p.created[avail-1] > p.issued-getLag {
			avail--
		}
		lo := 0
		if p.w.window > 0 && avail > p.w.window {
			lo = avail - p.w.window
		}
		o.obj = lo + p.rng.Intn(avail-lo)
	}
	p.issued++
	return o
}

// openLoop plans the open-loop phase: ops at a constant rate for d.
func (p *planner) openLoop(d time.Duration) []op {
	n := int(d.Seconds() * p.w.rate)
	gap := time.Duration(float64(time.Second) / p.w.rate)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = p.next()
		ops[i].at = time.Duration(i) * gap
	}
	return ops
}

// planHash fingerprints everything the program receives from a run:
// the workload parameters, the open-loop plan, the first peakOps ops of
// the closed-loop continuation and the events.
func planHash(w workload, seed int64, openLoop time.Duration, peakOps int) uint64 {
	p := newPlanner(w, seed)
	h := fnv.New64a()
	join, replace := w.eventTimes(openLoop)
	fmt.Fprintf(h, "%s %v %v %d %d %d %g %v %d %d %d %d|", w.name, w.levels, w.targets(), w.payload,
		w.seedObjects, w.cacheBytes, w.rate, w.mix, w.window, replacedNode, join, replace)
	var buf [17]byte
	put := func(o op) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(o.at))
		buf[8] = byte(o.kind)
		binary.LittleEndian.PutUint64(buf[9:], uint64(o.obj))
		h.Write(buf[:])
	}
	for _, o := range p.openLoop(openLoop) {
		put(o)
	}
	for i := 0; i < peakOps; i++ {
		put(p.next())
	}
	// The data itself: the first object's sources and coded blocks.
	for _, s := range objectSources(w, seed, 0, 0, w.sources()) {
		h.Write(s)
	}
	return h.Sum64()
}

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// objectKey is the 64-bit identity every input of one object derives
// from: its ID, its source bytes and its coefficient draws.
func objectKey(w workload, seed int64, idx int) uint64 {
	return splitmix(nameHash(w.name) ^ splitmix(uint64(seed)) ^ splitmix(uint64(idx)+0x9e3779b97f4a7c15))
}

// objectID names an object by workload and index alone: the seed varies
// the data and the traffic, not where objects sit on the ring, so every
// run moves and repairs the same objects.
func objectID(w workload, idx int) core.ObjectID {
	return core.NamedObject(fmt.Sprintf("%s/%d", w.name, idx))
}

// objectSources returns source blocks [lo, hi) of one object.
func objectSources(w workload, seed int64, idx, lo, hi int) [][]byte {
	key := objectKey(w, seed, idx)
	out := make([][]byte, hi-lo)
	for i := range out {
		out[i] = make([]byte, w.payload)
		fill(out[i], splitmix(key^uint64(lo+i+1)))
	}
	return out
}

func splitmix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// fill writes a xorshift stream seeded by s into b.
func fill(b []byte, s uint64) {
	if s == 0 {
		s = 1
	}
	var word [8]byte
	for i := 0; i < len(b); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(word[:], s)
		copy(b[i:], word[:])
	}
}

// encodeObject encodes every coded block of one object: targets[k]
// blocks of level k, coefficients drawn from the object's own stream.
func encodeObject(w workload, seed int64, idx int, lv *core.Levels, tr *tracer) ([]*core.CodedBlock, error) {
	srcs := objectSources(w, seed, idx, 0, w.sources())
	t0 := time.Now()
	enc, err := core.NewEncoder(core.PLC, lv, srcs)
	if err != nil {
		return nil, err
	}
	if r := tr.reg(regCore); r != nil {
		enc.SetMetrics(r)
	}
	rng := rand.New(rand.NewSource(int64(objectKey(w, seed, idx))))
	id := objectID(w, idx)
	var blocks []*core.CodedBlock
	for k, t := range w.targets() {
		for j := 0; j < t; j++ {
			b, err := enc.Encode(rng, k)
			if err != nil {
				return nil, err
			}
			b.Object = id
			blocks = append(blocks, b)
		}
	}
	tr.span(spEncode, time.Since(t0))
	return blocks, nil
}
