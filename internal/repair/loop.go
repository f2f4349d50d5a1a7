package repair

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

const (
	// maxBackoff caps the exponential backoff after failed rounds, as a
	// multiple of the interval.
	maxBackoff = 16
	// jitter is the randomized fraction shaved off each wait, so a fleet
	// of daemons desynchronizes.
	jitter = 0.2
)

// Loop is the control loop both maintenance daemons run on: the repair
// Daemon and the migration mover. It runs one round immediately on
// Start, then one every interval; failed rounds back off exponentially
// (doubling from the interval, capped at 16x) with jitter, so a dark or
// flapping fleet is probed gently until it answers again. Kick cuts any
// wait short. Rounds never overlap, whether the loop or a RunOnce
// caller starts them.
//
// R is the owner's report type. A round returns a nil report when it
// failed before it had one; LastReport then keeps the previous report.
type Loop[R any] struct {
	interval time.Duration
	timeout  time.Duration
	round    func(context.Context) (*R, error)
	met      loopMetrics
	jitter   *rand.Rand // drawn only by the loop goroutine

	mu   sync.Mutex // serializes rounds and guards last, runs
	last R
	runs int

	ctx      context.Context
	cancel   context.CancelFunc
	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	started  atomic.Bool
	stopOnce sync.Once
}

// loopMetrics are the series every loop records. A nil registry
// yields all-nil fields and every recording call is a no-op.
type loopMetrics struct {
	rounds      *metrics.Counter
	roundErrors *metrics.Counter
	roundNs     *metrics.Histogram
	failures    *metrics.Gauge
	backoff     *metrics.Gauge
}

// NewLoop returns a stopped loop that runs round every interval, each
// round bounded by timeout. seed seeds the jitter. The loop records
// <prefix>_rounds_total, <prefix>_round_errors_total, <prefix>_round_ns,
// and the <prefix>_consecutive_failures and <prefix>_backoff_ns gauges
// into reg (nil disables them).
func NewLoop[R any](interval, timeout time.Duration, seed int64, reg *metrics.Registry, prefix string,
	round func(context.Context) (*R, error)) *Loop[R] {
	ctx, cancel := context.WithCancel(context.Background())
	return &Loop[R]{
		interval: interval,
		timeout:  timeout,
		round:    round,
		met: loopMetrics{
			rounds:      reg.Counter(prefix + "_rounds_total"),
			roundErrors: reg.Counter(prefix + "_round_errors_total"),
			roundNs:     reg.Histogram(prefix + "_round_ns"),
			failures:    reg.Gauge(prefix + "_consecutive_failures"),
			backoff:     reg.Gauge(prefix + "_backoff_ns"),
		},
		jitter: rand.New(rand.NewSource(seed)),
		ctx:    ctx,
		cancel: cancel,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// RunOnce runs one round now and returns its report.
func (l *Loop[R]) RunOnce(ctx context.Context) (R, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs++
	t0 := time.Now()
	rep, err := l.round(ctx)
	l.met.roundNs.ObserveSince(t0)
	l.met.rounds.Inc()
	if err != nil {
		l.met.roundErrors.Inc()
	}
	if rep == nil {
		var zero R
		return zero, err
	}
	l.last = *rep
	return *rep, err
}

// Start launches the background loop. The first round runs immediately.
// Start is idempotent.
func (l *Loop[R]) Start() {
	if l.started.CompareAndSwap(false, true) {
		go l.run()
	}
}

// Kick requests an immediate round, collapsing any pending wait or
// backoff. Never blocks; kicks coalesce.
func (l *Loop[R]) Kick() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Stop shuts the loop down gracefully: it exits after the in-flight
// round completes. If ctx expires first, the round is cancelled and
// Stop returns the context error once the loop has exited. Safe to call
// more than once, and before Start.
func (l *Loop[R]) Stop(ctx context.Context) error {
	l.stopOnce.Do(func() { close(l.stop) })
	defer l.cancel()
	if !l.started.Load() {
		return nil
	}
	select {
	case <-l.done:
		return nil
	case <-ctx.Done():
		l.cancel()
		<-l.done
		return ctx.Err()
	}
}

// Rounds returns how many rounds have run.
func (l *Loop[R]) Rounds() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runs
}

// LastReport returns the most recent round's report.
func (l *Loop[R]) LastReport() R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

func (l *Loop[R]) run() {
	defer close(l.done)
	failures := 0
	timer := time.NewTimer(0) // first round immediately
	defer timer.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-timer.C:
		case <-l.kick:
			// A kick outranks the schedule: run now. The timer is
			// drained so the reset below starts clean.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		rctx, rcancel := context.WithTimeout(l.ctx, l.timeout)
		_, err := l.RunOnce(rctx)
		rcancel()
		if l.ctx.Err() != nil {
			return
		}
		wait := l.interval
		if err != nil {
			failures++
			for i := 1; i < failures && wait < maxBackoff*l.interval; i++ {
				wait *= 2
			}
			wait = min(wait, maxBackoff*l.interval)
		} else {
			failures = 0
		}
		l.met.failures.Set(int64(failures))
		l.met.backoff.Set(int64(wait))
		timer.Reset(time.Duration(float64(wait) * (1 - jitter*l.jitter.Float64())))
	}
}
