package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Registries of the traced run, one per layer, so each count is read
// where its work happens and foreground and background stay apart.
type regKind int

const (
	regCore   regKind = iota // encoders and decoders of foreground ops
	regClient                // the foreground Placed, its shards and clients
	regServer                // every store.Server
	regDisk                  // every diskstore
	regBG                    // the mover and repair daemons and their Placed
	nRegs
)

// Spans the traced run records around calls into each layer.
type spanKind int

const (
	spEncode      spanKind = iota // core.Encoder over one object
	spStorePut                    // one Placed.Put
	spCollect                     // one Placed.Collect
	spDecodeL0                    // core.Decoder until level 0 decodes
	spDecodeFull                  // core.Decoder until every level decodes
	spDiskPut                     // one engine Put, server side
	spDiskGet                     // one engine Get, server side
	spMoverRound                  // one mover.RunOnce
	spRepairRound                 // one repair RunOnce
	nSpans
)

// spanSet keeps the durations of one span kind in memory.
type spanSet struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *spanSet) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *spanSet) durations() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.d...)
}

// tracer is the traced run's recorder. A nil *tracer is the untraced
// run: every method is a no-op and every registry is nil, which the
// layers treat as instrumentation off.
type tracer struct {
	regs  [nRegs]*metrics.Registry
	spans [nSpans]spanSet
	// fg gates the server-side engine spans to the foreground phases, so
	// set-up, events and verification do not count.
	fg atomic.Bool
}

func newTracer() *tracer {
	t := &tracer{}
	for i := range t.regs {
		t.regs[i] = metrics.NewRegistry()
	}
	return t
}

func (t *tracer) reg(k regKind) *metrics.Registry {
	if t == nil {
		return nil
	}
	return t.regs[k]
}

func (t *tracer) span(k spanKind, d time.Duration) {
	if t != nil {
		t.spans[k].add(d)
	}
}

// engine records a server-side engine span that started at t0, during
// the foreground phases only.
func (t *tracer) engine(k spanKind, t0 time.Time) {
	if t != nil && t.fg.Load() {
		t.spans[k].add(time.Since(t0))
	}
}

func (t *tracer) setForeground(on bool) {
	if t != nil {
		t.fg.Store(on)
	}
}

// counts is a flat view of a registry: counters by name, and each
// histogram's count and sum under name+"#count" and name+"#sum".
type counts map[string]float64

func readCounts(r *metrics.Registry) counts {
	c := counts{}
	snap := r.Snapshot()
	for _, cv := range snap.Counters {
		c[cv.Name] = float64(cv.Value)
	}
	for _, h := range snap.Histograms {
		c[h.Name+"#count"] = float64(h.Count)
		c[h.Name+"#sum"] = float64(h.Sum)
	}
	return c
}

// sumPrefix adds every series whose name starts with prefix.
func (c counts) sumPrefix(prefix string) float64 {
	s := 0.0
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// minus returns c - base, series by series.
func (c counts) minus(base counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

func (c counts) plus(o counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// quantileMs is the nearest-rank q-quantile of d in milliseconds.
func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}

func meanMs(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return float64(s) / float64(len(d)) / float64(time.Millisecond)
}

func sumMs(d []time.Duration) float64 {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return float64(s) / float64(time.Millisecond)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
