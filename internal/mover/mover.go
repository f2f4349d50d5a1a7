// Package mover re-homes coded blocks when ring membership changes.
//
// Consistent hashing tells every node where an object lives *now*; it
// says nothing about moving the blocks that landed under an older
// membership. After a join, the new successor owns an object it holds
// zero blocks of — reads still work only as long as the displaced
// nodes stay up, which is exactly the assumption churn breaks. The
// mover closes that gap: it diffs data placement against ring
// ownership and migrates until they agree.
//
// Each round:
//
//  1. plan: scan every reachable node's per-object inventory
//     (Stats().PerObject) and diff it against the ring's current
//     successor lists. A node holding an object it no longer owns is a
//     stale holder; the object joins the work list, ordered
//     most-critical-level-first (an object whose level-0 copies all sit
//     on stale holders outranks one missing only its tail levels).
//  2. transfer: for each planned object, audit the new owners and fill
//     their per-level deficits by recombining survivors collected from
//     the stale holders — fresh blocks, the paper's regeneration
//     primitive, not verbatim moves (with a verbatim-copy fallback when
//     a sample spans nothing and recombination is degenerate). The
//     step is repair.Regenerate, the one repair rounds use. Concurrency
//     is bounded, transfers retry with backoff, and a shared token
//     bucket caps the byte rate.
//  3. verify + reclaim: re-audit the owners against the provisioning
//     targets; only when every level meets its copy target are the
//     stale holders sent Delete. A failed verification leaves the old
//     copies in place — migration never destroys the only copy.
//
// Planning from inventories (not from membership events) makes rounds
// idempotent and restart-safe: whatever a crashed mover left half-done
// is still visible as stale holdings to the next round. The
// OnMembershipChange hook only accelerates the loop via Kick; it is
// never load-bearing for correctness.
package mover

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/repair"
	"repro/internal/store"
)

// Fixed tuning of the migration loop.
const (
	// roundTimeout bounds one plan+migrate round.
	roundTimeout = 60 * time.Second
	// burst is the throttle's minimum bucket capacity; the bucket always
	// holds at least one second of RateLimit.
	burst = 1 << 20
	// retryBackoff is the delay before an object's second attempt,
	// doubling for each later one.
	retryBackoff = 250 * time.Millisecond
)

// Config parameterizes a Mover.
type Config struct {
	// Scheme and Levels describe the code the fleet holds.
	Scheme core.Scheme
	Levels *core.Levels
	// Dist and TotalBlocks (or Targets) define the provisioning targets
	// migrated objects are verified against — the same knobs as
	// repair.AuditConfig, and they should carry the same values.
	Dist        core.PriorityDistribution
	TotalBlocks int
	Targets     []int
	// Interval is the pause between successful rounds. Default 5s; a
	// membership change cuts the wait short via Kick, and failed rounds
	// back off from it exponentially (see repair.Loop).
	Interval time.Duration
	// Workers bounds how many objects migrate concurrently. Default 2.
	Workers int
	// RateLimit caps the mover's aggregate byte rate (collected plus
	// placed wire bytes) in bytes/second; 0 means unlimited. Migration
	// is background work — the cap is what keeps foreground puts and
	// gets within their latency budget while the fleet rebalances.
	RateLimit int64
	// Attempts is how many times one object's migration is tried per
	// round before it is counted failed. Default 3.
	Attempts int
	// SampleSize is how many survivors feed each recombination. Default 8.
	SampleSize int
	// Seed seeds recombination and jitter (0 means 1); each object
	// derives its own generator from Seed and its ID, so bounded
	// concurrency does not perturb determinism.
	Seed int64
	// Metrics, when non-nil, receives the mover_* series (DESIGN.md §15).
	Metrics *metrics.Registry
}

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Report summarizes one migration round.
type Report struct {
	// Plan is the work list the round executed.
	Plan *Plan
	// Migrated counts objects fully re-homed, verified, and reclaimed.
	Migrated int
	// Failed counts objects whose migration did not complete this
	// round; they stay planned (the stale holdings persist) and retry
	// next round.
	Failed int
	// Regenerated and Copied count blocks placed on new owners: fresh
	// recombinations, and verbatim copies (the minimum-rank fallback).
	Regenerated int
	Copied      int
	// Copies is the fleet-wide copy total those placements aimed at.
	Copies int
	// BytesCollected and BytesPlaced are the wire volumes moved.
	BytesCollected int64
	BytesPlaced    int64
	// DeletesIssued counts reclaim calls to stale holders;
	// BlocksReclaimed the copies they removed.
	DeletesIssued   int
	BlocksReclaimed int
	// SkippedLevels counts level transfers waived for lack of any usable
	// survivor (repair.RegenReport.SkippedLevels) — lost data, which
	// migration cannot conjure back.
	SkippedLevels int
}

// Mover is the background migration loop over a placement ring. Every
// interval — or immediately upon Kick — it plans and executes one
// migration round. It runs on repair's Loop, so failed rounds back off
// exponentially with jitter.
type Mover struct {
	*repair.Loop[Report]
	placed  *store.Placed
	cfg     Config
	met     moverMetrics
	limiter *throttle
}

// New validates the configuration and returns a stopped mover; call
// Start to launch the loop, or RunOnce to drive rounds manually.
func New(p *store.Placed, cfg Config) (*Mover, error) {
	if p == nil {
		return nil, fmt.Errorf("mover: nil placed store")
	}
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("mover: invalid scheme %v", cfg.Scheme)
	}
	if cfg.Levels == nil {
		return nil, fmt.Errorf("mover: nil levels")
	}
	if cfg.Levels.Count() != p.Levels() {
		return nil, fmt.Errorf("mover: code has %d levels, store replicates %d", cfg.Levels.Count(), p.Levels())
	}
	acfg := repair.AuditConfig{Dist: cfg.Dist, TotalBlocks: cfg.TotalBlocks, Targets: cfg.Targets}
	if _, err := acfg.DistinctTargets(p.Levels()); err != nil {
		return nil, fmt.Errorf("mover: %w", err)
	}
	cfg.fillDefaults()
	m := &Mover{
		placed:  p,
		cfg:     cfg,
		met:     newMoverMetrics(cfg.Metrics),
		limiter: newThrottle(cfg.RateLimit, burst),
	}
	m.Loop = repair.NewLoop(cfg.Interval, roundTimeout, cfg.Seed, cfg.Metrics, "mover", m.round)
	return m, nil
}

// Kick requests an immediate round, collapsing any pending wait or
// backoff. Wire it to PlacedConfig.OnMembershipChange so migration
// starts the moment placement shifts. Never blocks; kicks coalesce.
func (m *Mover) Kick() {
	m.met.kicks.Inc()
	m.Loop.Kick()
}

// round performs one migration round — plan, transfer, verify,
// reclaim. The report is nil when planning failed; the error is non-nil
// when planning failed or any object's migration did, which the loop
// answers with backoff. Partially-migrated objects stay visible as
// stale holdings and are re-planned next round.
func (m *Mover) round(ctx context.Context) (*Report, error) {
	acfg := repair.AuditConfig{Dist: m.cfg.Dist, TotalBlocks: m.cfg.TotalBlocks, Targets: m.cfg.Targets}
	targets, err := acfg.DistinctTargets(m.placed.Levels())
	if err != nil {
		return nil, fmt.Errorf("mover: %w", err)
	}
	plan, err := m.plan(ctx, targets)
	if err != nil {
		return nil, fmt.Errorf("mover: plan: %w", err)
	}
	rep := &Report{Plan: plan}
	m.met.objectsPlanned.Add(uint64(len(plan.Objects)))
	if len(plan.Objects) == 0 {
		return rep, nil
	}

	// Bounded workers pull plans in order, so the most critical objects
	// start first even though completions interleave.
	workers := m.cfg.Workers
	if workers > len(plan.Objects) {
		workers = len(plan.Objects)
	}
	results := make([]Report, len(plan.Objects))
	errs := make([]error, len(plan.Objects))
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(plan.Objects) || ctx.Err() != nil {
					return
				}
				results[i], errs[i] = m.migrateAttempts(ctx, plan.Objects[i])
			}
		}()
	}
	wg.Wait()

	var firstErr error
	for i, res := range results {
		rep.add(res)
		if errs[i] != nil {
			rep.Failed++
			m.met.objectErrors.Inc()
			if firstErr == nil {
				firstErr = errs[i]
			}
		}
	}
	m.met.objectsMigrated.Add(uint64(rep.Migrated))
	m.met.blocksRegenerated.Add(uint64(rep.Regenerated))
	m.met.blocksCopied.Add(uint64(rep.Copied))
	m.met.copiesPlaced.Add(uint64(rep.Copies))
	m.met.bytesCollected.Add(uint64(rep.BytesCollected))
	m.met.bytesPlaced.Add(uint64(rep.BytesPlaced))
	m.met.levelsSkipped.Add(uint64(rep.SkippedLevels))
	m.met.deletesIssued.Add(uint64(rep.DeletesIssued))
	m.met.blocksReclaimed.Add(uint64(rep.BlocksReclaimed))
	if firstErr != nil {
		return rep, fmt.Errorf("mover: %d/%d objects failed: %w", rep.Failed, len(plan.Objects), firstErr)
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// add accumulates an object's tallies into the round's report.
func (r *Report) add(o Report) {
	r.Migrated += o.Migrated
	r.Regenerated += o.Regenerated
	r.Copied += o.Copied
	r.Copies += o.Copies
	r.BytesCollected += o.BytesCollected
	r.BytesPlaced += o.BytesPlaced
	r.DeletesIssued += o.DeletesIssued
	r.BlocksReclaimed += o.BlocksReclaimed
	r.SkippedLevels += o.SkippedLevels
}

// migrateAttempts drives one object through up to Attempts tries with
// doubling backoff, and returns the tallies of every attempt (Migrated
// is 1 once the object was released). Each object recombines from its
// own generator, seeded by Seed and the object ID, so worker
// interleaving never changes what gets placed.
func (m *Mover) migrateAttempts(ctx context.Context, op ObjectPlan) (Report, error) {
	rng := rand.New(rand.NewSource(m.cfg.Seed ^ int64(op.Object)))
	var res Report
	var err error
	for attempt := 0; attempt < m.cfg.Attempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(retryBackoff << (attempt - 1))
			select {
			case <-ctx.Done():
				timer.Stop()
				return res, err
			case <-timer.C:
			}
		}
		var r Report
		r, err = m.migrateObject(ctx, op, rng)
		// Work done by a failed attempt still moved bytes; account it.
		res.add(r)
		if err == nil || ctx.Err() != nil {
			return res, err
		}
	}
	return res, err
}
