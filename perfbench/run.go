package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mover"
	"repro/internal/repair"
	"repro/internal/store"
)

const (
	// opTimeout bounds one op; a timed-out op counts as failed and takes
	// this latency in the percentiles.
	opTimeout = 5 * time.Second
	// seedWorkers write the set-up population concurrently.
	seedWorkers = 4
	// The mover's throttle: one object at a time, at most moverRateLimit
	// bytes/s collected plus placed. An object that fails verification
	// (its put still in flight) is not retried within the round; the
	// benchmark runs rounds back to back, so the next round retries it.
	moverWorkers   = 1
	moverRateLimit = 2 << 20
	// The repair throttle, at most repairRateLimit bytes/s collected
	// plus placed. repair.Config has no rate limit, so the benchmark
	// paces its per-object rounds. Unthrottled, the repair of each
	// workload moves 17-22 MB in 0.4-0.9 s on two vCPUs; at this rate it
	// takes 1.6-2.1 s, so repair_s follows the repair traffic, and a
	// slowdown of the repair's own work by less than about half does not
	// move it (repair.round_s does).
	repairRateLimit = 10 << 20
	// maxRounds caps the mover rounds of one rehome and the repair rounds
	// of one object before the event counts as failed.
	maxRounds = 50
)

// errVerify marks an op whose output did not check out: data that does
// not decode, or decodes to bytes other than were written.
var errVerify = errors.New("verification failed")

type objState struct {
	done chan struct{}
	ok   bool
}

// objTable tracks every object of a run: a get waits until its target's
// put has finished.
type objTable struct {
	mu sync.Mutex
	m  map[int]*objState
}

func (t *objTable) get(idx int) *objState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m[idx]
	if st == nil {
		st = &objState{done: make(chan struct{})}
		t.m[idx] = st
	}
	return st
}

func (t *objTable) finish(idx int, ok bool) {
	st := t.get(idx)
	st.ok = ok
	close(st.done)
}

// indices returns the indices of every object known so far, ascending.
func (t *objTable) indices() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.m))
	for i := range t.m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// record is one executed op. Times run from its scheduled arrival (due)
// through release by the dispatcher and start on a worker to its
// verified completion.
type record struct {
	kind                          opKind
	due, released, started, ended time.Time
	err                           error
	// Traced run only: time inside each layer's calls.
	encode, store, decode time.Duration
	added                 int
}

// runner drives one run of one workload against one fleet.
type runner struct {
	w       workload
	seed    int64
	lv      *core.Levels
	tr      *tracer
	workers int
	f       *fleet
	objs    objTable
	// fg carries the foreground ops; bg is the operator's own front end
	// for the mover and the repair daemons.
	fg, bg *store.Placed
	mv     *mover.Mover

	// The benchmark's own counts of calls into Placed, for the counter
	// cross-check.
	placedPuts, collects atomic.Int64
}

// phaseResult is what one run measured.
type phaseResult struct {
	setup               []time.Duration
	open                []record
	peak                []record
	openDur, peakDur    time.Duration
	peakStart           time.Time
	rehome, repair      time.Duration
	userBytes           int64 // source bytes of every object stored
	live, disk          int64 // after the open loop
	checks, checkFailed int   // post-run checks
	fgCounts            counts
	errs                []error // failed post-run checks
	eventErr            error
	// newOwnerFill is runner.newOwnerFill after the rehome.
	newOwnerFill float64
	repairBytes  int64
	planHash     uint64
	// phases is the wall time of each phase, for the report.
	phases string
}

func newRunner(w workload, seed int64, tr *tracer) (*runner, error) {
	lv, err := core.NewLevels(w.levels...)
	if err != nil {
		return nil, err
	}
	return &runner{w: w, seed: seed, lv: lv, tr: tr, workers: runtime.NumCPU(), objs: objTable{m: map[int]*objState{}}}, nil
}

// run executes set-up (setups times, keeping the last fleet), the
// membership events, the open-loop phase, the closed-loop phase and
// the post-run checks. seconds is the measured time of both phases.
func (r *runner) run(workdir string, seconds float64, setups int) (*phaseResult, error) {
	openDur := time.Duration((1 - peakShare) * seconds * float64(time.Second))
	peakDur := time.Duration(peakShare * seconds * float64(time.Second))
	res := &phaseResult{openDur: openDur, peakDur: peakDur}
	res.planHash = planHash(r.w, r.seed, openDur, 1000)
	mark := time.Now()
	phase := func(name string) {
		res.phases += fmt.Sprintf(" %s %.1fs", name, time.Since(mark).Seconds())
		mark = time.Now()
	}

	for i := 0; i < setups; i++ {
		dir := filepath.Join(workdir, fmt.Sprintf("fleet-%d", i))
		d, err := r.setup(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, d)
		if i < setups-1 {
			r.f.shutdown()
			os.RemoveAll(dir)
			r.objs = objTable{m: map[int]*objState{}}
		}
	}
	defer os.RemoveAll(r.f.dir)
	defer r.f.shutdown() // on error paths; verify has already stopped every node
	var err error
	if r.fg, err = newPlaced(r.f.addrs(ringNodes), r.lv.Count(), r.tr.reg(regClient)); err != nil {
		return nil, err
	}
	defer r.fg.Close()
	if r.bg, err = newPlaced(r.f.addrs(ringNodes), r.lv.Count(), r.tr.reg(regBG)); err != nil {
		return nil, err
	}
	defer r.bg.Close()
	r.mv, err = mover.New(r.bg, mover.Config{
		Scheme: core.PLC, Levels: r.lv, Targets: r.w.targets(),
		Workers: moverWorkers, RateLimit: moverRateLimit, Attempts: 1,
		Seed: r.seed, Metrics: r.tr.reg(regBG),
	})
	if err != nil {
		return nil, err
	}

	phase("set-up")
	// Without foreground churn the events run first, on the seeded
	// population of a quiet fleet, so their work is the same on every run.
	if !r.w.churn {
		res.eventErr = r.events(res, time.Now(), 0, 0)
		phase("events")
	}
	pl := newPlanner(r.w, r.seed)
	ops := pl.openLoop(openDur)
	before := readCounts(r.tr.reg(regServer)).plus(readCounts(r.tr.reg(regDisk)))
	r.tr.setForeground(true)
	start := time.Now().Add(20 * time.Millisecond)
	var evWG sync.WaitGroup
	if r.w.churn {
		join, replace := r.w.eventTimes(openDur)
		evWG.Add(1)
		go func() {
			defer evWG.Done()
			res.eventErr = r.events(res, start, join, replace)
		}()
	}
	res.open = r.openLoop(start, ops)
	evWG.Wait()
	phase("open-loop")
	res.live, res.disk = r.f.space()
	res.userBytes = int64(len(r.storedObjects())) * int64(r.w.sources()*r.w.payload)
	res.peakStart = time.Now()
	res.peak = r.closedLoop(pl, peakDur)
	r.tr.setForeground(false)
	res.fgCounts = readCounts(r.tr.reg(regServer)).plus(readCounts(r.tr.reg(regDisk))).minus(before)
	phase("closed-loop")
	r.verify(res)
	phase("checks")
	return res, nil
}

// setup boots the fleet (the ring plus the spare) and writes the seeded
// population through a front end of its own.
func (r *runner) setup(dir string) (time.Duration, error) {
	t0 := time.Now()
	f, err := bootFleet(dir, r.w, r.tr, ringNodes+1)
	if err != nil {
		return 0, err
	}
	r.f = f
	loader, err := newPlaced(f.addrs(ringNodes), r.lv.Count(), nil)
	if err != nil {
		f.shutdown()
		return 0, err
	}
	defer loader.Close()
	var next atomic.Int64
	errs := make([]error, seedWorkers)
	var wg sync.WaitGroup
	for wk := 0; wk < seedWorkers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for idx := int(next.Add(1) - 1); idx < r.w.seedObjects; idx = int(next.Add(1) - 1) {
				blocks, err := encodeObject(r.w, r.seed, idx, r.lv, nil)
				if err == nil {
					ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
					_, err = loader.PutAll(ctx, blocks)
					cancel()
				}
				if err != nil {
					errs[wk] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.shutdown()
		return 0, err
	}
	for idx := 0; idx < r.w.seedObjects; idx++ {
		r.objs.finish(idx, true)
	}
	return time.Since(t0), nil
}

// openLoop releases each op at its scheduled time, whether or not
// earlier ops have finished, to at most r.workers ops in flight. The
// queue holds every op, so the dispatcher never blocks on the workers.
func (r *runner) openLoop(start time.Time, ops []op) []record {
	recs := make([]record, len(ops))
	queue := make(chan int, len(ops))
	var wg sync.WaitGroup
	for wk := 0; wk < r.workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r.exec(ops[i], &recs[i])
			}
		}()
	}
	for i, o := range ops {
		due := start.Add(o.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		recs[i].due = due
		recs[i].released = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs
}

// closedLoop runs r.workers ops back to back, continuing the plan, for d.
func (r *runner) closedLoop(pl *planner, d time.Duration) []record {
	var mu sync.Mutex
	var recs []record
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for wk := 0; wk < r.workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for time.Now().Before(deadline) {
				mu.Lock()
				o := pl.next()
				mu.Unlock()
				now := time.Now()
				rec := record{due: now, released: now}
				r.exec(o, &rec)
				mine = append(mine, rec)
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs
}

// exec runs one op and fills its record.
func (r *runner) exec(o op, rec *record) {
	rec.kind = o.kind
	rec.started = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if o.kind == opPut {
		rec.err = r.put(ctx, o.obj, rec)
		r.objs.finish(o.obj, rec.err == nil)
	} else {
		rec.err = r.get(ctx, o, rec)
	}
	rec.ended = time.Now()
}

// put encodes every coded block of the object and stores each through
// the placement layer; it returns once every block is acknowledged.
func (r *runner) put(ctx context.Context, idx int, rec *record) error {
	t0 := time.Now()
	blocks, err := encodeObject(r.w, r.seed, idx, r.lv, r.tr)
	if err != nil {
		return err
	}
	rec.encode = time.Since(t0)
	for _, b := range blocks {
		t := time.Now()
		r.placedPuts.Add(1)
		err := r.fg.Put(ctx, b)
		d := time.Since(t)
		r.tr.span(spStorePut, d)
		rec.store += d
		if err != nil {
			return err
		}
	}
	return nil
}

// get collects the object's blocks up to the op's depth, decodes them
// and checks every decoded source against what was written.
func (r *runner) get(ctx context.Context, o op, rec *record) error {
	st := r.objs.get(o.obj)
	select {
	case <-st.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if !st.ok {
		return fmt.Errorf("object %d was never stored", o.obj)
	}
	depth, maxLevel, sp := 0, 0, spDecodeL0
	if o.kind == opGetFull {
		depth, maxLevel, sp = r.lv.Count()-1, -1, spDecodeFull
	}
	t0 := time.Now()
	r.collects.Add(1)
	blocks, err := r.fg.Collect(ctx, objectID(r.w, o.obj), maxLevel)
	rec.store = time.Since(t0)
	r.tr.span(spCollect, rec.store)
	if err != nil {
		return err
	}
	t1 := time.Now()
	dec, added, err := decodeLevels(r.w, r.lv, blocks, depth, r.tr.reg(regCore))
	rec.decode = time.Since(t1)
	rec.added = added
	r.tr.span(sp, rec.decode)
	if err == nil {
		err = checkSources(r.w, r.seed, o.obj, r.lv, dec, depth)
	}
	if err != nil {
		return fmt.Errorf("%w: object %d: %v", errVerify, o.obj, err)
	}
	return nil
}

// events joins the spare at start+join and drives the mover until a
// round plans nothing, then replaces an original node with a blank
// engine at start+replace (or once the rehome settles, if later) and
// drives per-object repair until every object audits healthy. It
// records both durations in res.
func (r *runner) events(res *phaseResult, start time.Time, join, replace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	time.Sleep(time.Until(start.Add(join)))
	spare := r.f.nodes[ringNodes].addr
	t0 := time.Now()
	if err := r.bg.Join(spare); err != nil {
		return err
	}
	if err := r.fg.Join(spare); err != nil {
		return err
	}
	for round := 0; ; round++ {
		if round == maxRounds {
			return fmt.Errorf("rehome: still planning after %d mover rounds", round)
		}
		t := time.Now()
		mr, err := r.mv.RunOnce(ctx)
		r.tr.span(spMoverRound, time.Since(t))
		if err == nil && len(mr.Plan.Objects) == 0 {
			break
		}
		if ctx.Err() != nil {
			return fmt.Errorf("rehome: %w", ctx.Err())
		}
	}
	res.rehome = time.Since(t0)
	res.newOwnerFill = r.newOwnerFill()

	time.Sleep(time.Until(start.Add(replace)))
	t1 := time.Now()
	if err := r.f.replace(replacedNode); err != nil {
		return err
	}
	for _, idx := range r.objs.indices() {
		st := r.objs.get(idx)
		select {
		case <-st.done:
		case <-ctx.Done():
			return fmt.Errorf("repair: %w", ctx.Err())
		}
		if !st.ok {
			continue
		}
		n, err := r.repairObject(ctx, idx)
		if err != nil {
			return err
		}
		res.repairBytes += n
		// Pace to the repair throttle.
		time.Sleep(time.Until(t1.Add(time.Duration(float64(res.repairBytes) / repairRateLimit * float64(time.Second)))))
	}
	res.repair = time.Since(t1)
	return nil
}

// newOwnerFill is the share of the provisioned blocks of the seeded
// objects the spare took over that the spare itself holds once the
// rehome has settled. A full copy is 1; the mover places half of each
// level's deficit on each owner, so it leaves the new owner near 0.5
// (see workload.targets).
func (r *runner) newOwnerFill() float64 {
	seeded := make(map[core.ObjectID]bool, r.w.seedObjects)
	for i := 0; i < r.w.seedObjects; i++ {
		seeded[objectID(r.w, i)] = true
	}
	held, owned := 0, 0
	for _, st := range r.f.nodes[ringNodes].eng.Stats().PerObject {
		if seeded[st.Object] {
			held += st.Blocks
			owned++
		}
	}
	return ratio(float64(held), float64(owned*r.w.blocksPerObject()))
}

// repairObject runs repair rounds on one object until its audit is
// healthy, and returns the bytes its rounds collected and placed.
func (r *runner) repairObject(ctx context.Context, idx int) (int64, error) {
	d, err := repair.NewObject(r.bg, objectID(r.w, idx), repair.Config{
		Scheme: core.PLC, Levels: r.lv, Targets: r.w.targets(),
		Seed: int64(objectKey(r.w, r.seed, idx)), Metrics: r.tr.reg(regBG),
	})
	if err != nil {
		return 0, err
	}
	var moved int64
	for round := 0; round < maxRounds; round++ {
		t := time.Now()
		rep, err := d.RunOnce(ctx)
		r.tr.span(spRepairRound, time.Since(t))
		moved += rep.BytesCollected + rep.BytesPlaced
		if err == nil && rep.Audit.Healthy() {
			return moved, nil
		}
		if ctx.Err() != nil {
			return moved, fmt.Errorf("repair object %d: %w", idx, ctx.Err())
		}
	}
	return moved, fmt.Errorf("repair object %d: unhealthy after %d rounds", idx, maxRounds)
}

// verify restarts every engine from its files and checks durability of
// every acknowledged block and a bit-exact decode of every object.
func (r *runner) verify(res *phaseResult) {
	stored := r.storedObjects()
	nodes := len(r.f.nodes)
	blocks, errs := r.f.verifyDurable()
	errs = append(errs, verifyDecodes(r.w, r.seed, r.lv, blocks, stored)...)
	res.checks = nodes + len(stored)
	res.checkFailed = min(len(errs), res.checks)
	res.errs = append(res.errs, errs...)
}

// storedObjects lists the objects whose put has succeeded.
func (r *runner) storedObjects() []int {
	var out []int
	for _, idx := range r.objs.indices() {
		st := r.objs.get(idx)
		select {
		case <-st.done:
			if st.ok {
				out = append(out, idx)
			}
		default:
		}
	}
	return out
}
