package repair

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// roundTimeout bounds one audit+repair round.
const roundTimeout = 30 * time.Second

// Config parameterizes a repair Daemon.
type Config struct {
	// Object is the namespace the daemon maintains; audits, collects and
	// regenerated blocks are all scoped to it. The zero value is the
	// legacy key-less namespace, so pre-namespace deployments repair
	// unchanged. A daemon maintains exactly one namespace (recombining
	// across objects would corrupt both); run one daemon per object.
	Object core.ObjectID
	// Scheme and Levels describe the code the store holds.
	Scheme core.Scheme
	Levels *core.Levels
	// Dist and TotalBlocks (or Targets) define the audit's provisioning
	// targets — see AuditConfig.
	Dist        core.PriorityDistribution
	TotalBlocks int
	Targets     []int
	// Interval is the pause between successful rounds. Default 2s.
	// Failed rounds back off from it exponentially (see Loop).
	Interval time.Duration
	// BlockBudget caps the blocks regenerated per round, so one huge
	// deficit cannot starve the critical levels of later rounds (the
	// budget is spent most-critical-level-first). Default 64.
	BlockBudget int
	// SampleSize is how many surviving blocks feed each recombination.
	// Small samples keep repair bandwidth near the regenerated volume;
	// larger ones raise the entropy of each regenerated block. Default 8.
	SampleSize int
	// Seed seeds the recombination generator and, separately, the loop's
	// jitter (0 means 1), so a repair history is reproducible given a
	// reproducible fleet.
	Seed int64
	// Metrics, when non-nil, receives round counters, regeneration
	// volumes, and backoff state (see DESIGN.md §10).
	Metrics *metrics.Registry
}

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.BlockBudget <= 0 {
		c.BlockBudget = 64
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Report summarizes one repair round.
type Report struct {
	// Audit is the inventory scan the round acted on.
	Audit *Audit
	// BytesCollected is the wire volume of survivors fetched.
	BytesCollected int64
	// RegenReport tallies the regeneration. Copied stays 0: repair's
	// survivors already sit on the shard. Truncated means BlockBudget
	// ran out; the next round continues.
	RegenReport
}

// Daemon is the background maintenance loop: every interval it audits
// the fleet and regenerates missing redundancy by recombination,
// most-critical-level-first. It runs on the shared Loop, so failed
// rounds back off exponentially with jitter. The daemon never decodes:
// its only data operations are collect, recombine, put.
type Daemon struct {
	*Loop[Report]
	// shard resolves the replica set each round operates on: constant
	// for a static Replicated store, re-resolved through the placement
	// ring for an object shard — so repair follows membership churn.
	shard func() (*store.Replicated, error)
	cfg   Config
	met   daemonMetrics
	rng   *rand.Rand // sampling and weights; rounds are serialized by Loop
}

// New validates the configuration and returns a stopped daemon over a
// static replica set; call Start to launch the loop, or RunOnce to
// drive rounds manually.
func New(r *store.Replicated, cfg Config) (*Daemon, error) {
	if r == nil {
		return nil, fmt.Errorf("repair: nil replicated store")
	}
	return newDaemon(func() (*store.Replicated, error) { return r, nil }, r.Levels(), cfg)
}

// NewObject returns a daemon maintaining one object on a placement
// ring: each round re-resolves the object's shard, so repair follows
// the ring through membership churn — regenerated blocks land on the
// nodes that own the object now, not the ones that owned it at start.
func NewObject(p *store.Placed, obj core.ObjectID, cfg Config) (*Daemon, error) {
	if p == nil {
		return nil, fmt.Errorf("repair: nil placed store")
	}
	if obj == core.AllObjects {
		return nil, fmt.Errorf("repair: the all-objects wildcard names no shard")
	}
	cfg.Object = obj
	return newDaemon(func() (*store.Replicated, error) { return p.Shard(obj) }, p.Levels(), cfg)
}

func newDaemon(shard func() (*store.Replicated, error), levels int, cfg Config) (*Daemon, error) {
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("repair: invalid scheme %v", cfg.Scheme)
	}
	if cfg.Levels == nil {
		return nil, fmt.Errorf("repair: nil levels")
	}
	if cfg.Levels.Count() != levels {
		return nil, fmt.Errorf("repair: code has %d levels, store replicates %d", cfg.Levels.Count(), levels)
	}
	if _, err := (&AuditConfig{Dist: cfg.Dist, TotalBlocks: cfg.TotalBlocks, Targets: cfg.Targets}).DistinctTargets(levels); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	d := &Daemon{
		shard: shard,
		cfg:   cfg,
		met:   newDaemonMetrics(cfg.Metrics),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	d.Loop = NewLoop(cfg.Interval, roundTimeout, cfg.Seed, cfg.Metrics, "repair", d.round)
	return d, nil
}

// round performs one audit+repair round: scan the fleet, and for each
// deficient level (most critical first, within the block budget)
// regenerate fresh blocks from the shard's own survivors. The report is
// nil when the shard could not be resolved or audited; the error is
// non-nil when the fleet was unreachable or a regenerated block could
// not be placed, which the loop answers with backoff.
//
// A round never decodes: a level none of whose survivors remain is
// skipped (and reported), not reconstructed.
func (d *Daemon) round(ctx context.Context) (*Report, error) {
	rep, err := d.repair(ctx)
	if rep != nil {
		d.met.blocksRegenerated.Add(uint64(rep.Regenerated))
		d.met.copiesPlaced.Add(uint64(rep.Copies))
		d.met.bytesCollected.Add(uint64(rep.BytesCollected))
		d.met.bytesPlaced.Add(uint64(rep.BytesPlaced))
		d.met.levelsSkipped.Add(uint64(len(rep.SkippedLevels)))
		if rep.Truncated {
			d.met.roundsTruncated.Inc()
		}
	}
	return rep, err
}

func (d *Daemon) repair(ctx context.Context) (*Report, error) {
	shard, err := d.shard()
	if err != nil {
		return nil, fmt.Errorf("repair: resolve shard: %w", err)
	}
	audit, err := AuditFleet(ctx, shard, AuditConfig{
		Object: d.cfg.Object, Dist: d.cfg.Dist, TotalBlocks: d.cfg.TotalBlocks, Targets: d.cfg.Targets,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Audit: audit}
	deficient := audit.Deficient()
	if len(deficient) == 0 {
		return rep, nil
	}
	if audit.Reachable == 0 {
		return rep, fmt.Errorf("repair: %w: all %d replicas unreachable", store.ErrStoreUnavailable, audit.Unreachable)
	}

	// One collect covers every deficient level: survivors of level k
	// also serve as sample padding for deeper PLC levels.
	survivors, err := shard.CollectObject(ctx, d.cfg.Object, deficient[len(deficient)-1].Level)
	if err != nil {
		return rep, err
	}
	for _, b := range survivors {
		rep.BytesCollected += int64(b.WireSize())
	}
	rep.RegenReport, err = Regenerate(ctx, Regen{
		Shard:      shard,
		Scheme:     d.cfg.Scheme,
		Levels:     d.cfg.Levels,
		Survivors:  survivors,
		Deficient:  deficient,
		Rng:        d.rng,
		SampleSize: d.cfg.SampleSize,
		Budget:     d.cfg.BlockBudget,
	})
	if err != nil {
		return rep, fmt.Errorf("repair: %w", err)
	}
	return rep, nil
}
