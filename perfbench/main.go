// Command perfbench is the repository's end-to-end benchmark. It boots
// an in-process fleet — store.Servers on loopback TCP, each over its own
// diskstore — and drives one workload through
// store.Placed with R=2: an open-loop phase timed from each op's
// scheduled arrival, membership events (a spare joins and the mover
// rehomes; a node is replaced by a blank engine and repair regenerates),
// and a closed-loop phase for capacity. Every read is checked bit-exact
// against the generated sources, and after the run every engine is
// restarted from its files and checked for every block it acknowledged.
//
// Usage:
//
//	perfbench --workload ingest|read|churn --seed N --seconds S --trace 0|1
//	perfbench --workload W --seed N --seconds S --repeat K
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload untraced and then
// traced, and reports the per-layer metrics and the tracing overhead.
// --repeat K runs the workload K times as separate processes with seeds
// N..N+K-1 and prints the median and quartiles of every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "ingest", "workload: ingest, read or churn")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 10, "measured seconds (open loop plus closed loop)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	repeat := flag.Int("repeat", 0, "run K times in separate processes and summarize")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for the fleet's data")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := steadiness(*name, *seed, *seconds, *repeat, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	rep, err := benchmark(w, *seed, *seconds, *trace == 1, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

// benchmark runs the workload once untraced and, with traced set, once
// more traced, and assembles the report.
func benchmark(w workload, seed int64, seconds float64, traced bool, dir string) (*report, error) {
	setups := 3
	if traced {
		setups = 1 // set-up time is an end-to-end metric, reported untraced
	}
	r, err := newRunner(w, seed, nil)
	if err != nil {
		return nil, err
	}
	plain, err := r.run(filepath.Join(dir, "plain"), seconds, setups)
	if err != nil {
		return nil, err
	}
	describe(w, seed, plain)
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	tally(rep, plain)
	if !traced {
		endToEnd(rep, plain)
	} else {
		tr := newTracer()
		rt, err := newRunner(w, seed, tr)
		if err != nil {
			return nil, err
		}
		tres, err := rt.run(filepath.Join(dir, "traced"), seconds, 1)
		if err != nil {
			return nil, err
		}
		tally(rep, tres)
		n := crossCheck(rt, tres)
		rep.Attempted++
		if n > 0 {
			rep.Correct = false
			rep.Failed++
		}
		perLayer(rep, rt, tres, plain)
		rep.Metrics["bench.counter_mismatches"] = metric{float64(n), "count"}
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}

// describe prints the run's sizes and plan fingerprint.
func describe(w workload, seed int64, res *phaseResult) {
	perNode := float64(res.live) / float64(ringNodes+1)
	fmt.Printf("workload %s seed %d plan %016x\n", w.name, seed, res.planHash)
	fmt.Printf("objects: %d seeded, N=%d in %d levels %v, %d B/source, %d coded blocks/object, R=%d\n",
		w.seedObjects, w.sources(), len(w.levels), w.levels, w.payload, w.blocksPerObject(), replication)
	fmt.Printf("per-node live bytes %.0f vs CacheBytes %d (%.1fx); fsync %s; %d nodes + 1 spare\n",
		perNode, w.cacheBytes, perNode/float64(w.cacheBytes), fsyncMode, ringNodes)
	fmt.Printf("open loop %.0f ops/s, %d in flight; mover throttle %d B/s\n",
		w.rate, runtime.NumCPU(), moverRateLimit)
	fmt.Printf("new owner holds %.2f of the provisioned blocks of the objects it took over (a full copy is 1)\n", res.newOwnerFill)
	fmt.Printf("repair collected and placed %d B in %.3fs\n", res.repairBytes, res.repair.Seconds())
	fmt.Printf("phases:%s\n", res.phases)
}

// tally adds one run's ops and checks to the attempted and failed
// counts; the report is correct only if no output check failed.
func tally(rep *report, res *phaseResult) {
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	printed := 0
	for _, recs := range [][]record{res.open, res.peak} {
		for _, rc := range recs {
			rep.Attempted++
			if rc.err != nil {
				rep.Failed++
				if printed++; printed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", opNames[rc.kind], rc.err)
				}
				if errors.Is(rc.err, errVerify) {
					rep.Correct = false
				}
			}
		}
	}
	rep.Attempted += res.checks
	rep.Failed += res.checkFailed
	if res.checkFailed > 0 {
		rep.Correct = false
	}
	// The membership events count as one check: a rehome that never
	// settles or a repair that never turns healthy fails the run.
	rep.Attempted++
	if res.eventErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: membership events failed:", res.eventErr)
		rep.Failed++
		rep.Correct = false
	}
}

// latencies returns the open-loop latencies of one op kind, from
// scheduled arrival to verified completion; a failed op counts as
// opTimeout, beyond every limit.
func latencies(recs []record, kind opKind) []time.Duration {
	var out []time.Duration
	for _, rc := range recs {
		if rc.kind != kind {
			continue
		}
		if rc.err != nil {
			out = append(out, opTimeout)
			continue
		}
		out = append(out, rc.ended.Sub(rc.due))
	}
	return out
}

// peakOps is the median over windows of the closed loop's completed
// ops per second.
func peakOps(res *phaseResult) float64 {
	width := res.peakDur / windows
	done := make([]float64, windows)
	for _, rc := range res.peak {
		if i := int(rc.ended.Sub(res.peakStart) / width); rc.err == nil && i < windows {
			done[i]++
		}
	}
	return median(done) / width.Seconds()
}

// windowedQuantile is the median over the open loop's windows of the
// q-quantile of one op kind's latencies, windows cut by scheduled
// arrival.
func windowedQuantile(res *phaseResult, kind opKind, q float64) float64 {
	if len(res.open) == 0 {
		return 0
	}
	start := res.open[0].due
	width := res.openDur / windows
	per := make([][]record, windows)
	for _, rc := range res.open {
		i := min(int(rc.due.Sub(start)/width), windows-1)
		per[i] = append(per[i], rc)
	}
	vals := make([]float64, windows)
	for i, recs := range per {
		vals[i] = quantileMs(latencies(recs, kind), q)
	}
	return median(vals)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func endToEnd(rep *report, res *phaseResult) {
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	for kind, name := range opNames {
		set(name+"_p50_ms", windowedQuantile(res, opKind(kind), 0.50), "ms")
	}
	set("peak_ops_s", peakOps(res), "1/s")
	set("ok_ratio", 1-float64(rep.Failed)/float64(rep.Attempted), "ratio")
	set("setup_s", quantileMs(res.setup, 0.5)/1000, "s")
	set("stored_bytes_per_user_byte", ratio(float64(res.live), float64(res.userBytes)), "ratio")
	set("disk_bytes_per_live_byte", ratio(float64(res.disk), float64(res.live)), "ratio")
	// A failed event has no duration to report.
	if res.eventErr == nil {
		set("rehome_s", res.rehome.Seconds(), "s")
		set("repair_s", res.repair.Seconds(), "s")
	}
}
