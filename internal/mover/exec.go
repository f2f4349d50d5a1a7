package mover

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/repair"
)

// migrateObject re-homes one object: audit the current owners, fill
// their per-level deficits by recombining survivors gathered from the
// stale holders (and whatever the owners already received), verify the
// owners meet the provisioning targets, and only then reclaim the stale
// copies. Every step is idempotent, so a failed attempt retries from
// the audit with nothing lost — stale holders are never deleted before
// verification passes.
func (m *Mover) migrateObject(ctx context.Context, op ObjectPlan, rng *rand.Rand) (Report, error) {
	var res Report
	shard, err := m.placed.Shard(op.Object)
	if err != nil {
		return res, fmt.Errorf("mover: resolve shard %s: %w", op.Object, err)
	}
	acfg := repair.AuditConfig{
		Object: op.Object, Dist: m.cfg.Dist, TotalBlocks: m.cfg.TotalBlocks, Targets: m.cfg.Targets,
	}
	audit, err := repair.AuditFleet(ctx, shard, acfg)
	if err != nil {
		return res, fmt.Errorf("mover: audit %s: %w", op.Object, err)
	}
	if audit.Unreachable > 0 {
		return res, fmt.Errorf("mover: %s: %d owners unreachable, cannot verify a release", op.Object, audit.Unreachable)
	}

	// waived marks levels with no usable survivor anywhere — neither on
	// the owners nor on the stale holders. Their dimensions are already
	// lost; reclaiming the stale copies loses nothing more, so the
	// verification gate lets them through (and reports them).
	waived := make(map[int]bool)

	if deficient := audit.Deficient(); len(deficient) > 0 {
		maxLevel := deficient[len(deficient)-1].Level

		// Gather survivors: stale holders carry the data being re-homed,
		// the owners contribute anchors already transferred (or already
		// in place) so retries never double-move what arrived. Blocks
		// only stale holders carry are fresh: the raw-copy fallback.
		var survivors []*core.CodedBlock
		fresh := make(map[*core.CodedBlock]bool)
		seen := make(map[string]bool)
		ownerBlocks, err := shard.CollectObject(ctx, op.Object, maxLevel)
		if err != nil {
			return res, fmt.Errorf("mover: collect %s from owners: %w", op.Object, err)
		}
		for _, b := range ownerBlocks {
			if k := blockKey(b); !seen[k] {
				seen[k] = true
				survivors = append(survivors, b)
				res.BytesCollected += int64(b.WireSize())
			}
		}
		for _, addr := range op.Stale {
			cl, err := m.placed.ClientFor(addr)
			if err != nil {
				return res, fmt.Errorf("mover: %s: %w", op.Object, err)
			}
			got, err := cl.GetObject(ctx, op.Object, maxLevel)
			if err != nil {
				return res, fmt.Errorf("mover: collect %s from stale holder %s: %w", op.Object, addr, err)
			}
			moved := 0
			for _, b := range got {
				if k := blockKey(b); !seen[k] {
					seen[k] = true
					survivors = append(survivors, b)
					fresh[b] = true
					moved += b.WireSize()
				}
			}
			res.BytesCollected += int64(moved)
			if err := m.throttleWait(ctx, moved); err != nil {
				return res, err
			}
		}

		regen, err := repair.Regenerate(ctx, repair.Regen{
			Shard:      shard,
			Scheme:     m.cfg.Scheme,
			Levels:     m.cfg.Levels,
			Survivors:  survivors,
			Fresh:      fresh,
			Deficient:  deficient,
			Rng:        rng,
			SampleSize: m.cfg.SampleSize,
			Charge:     m.throttleWait,
		})
		res.Regenerated = regen.Regenerated
		res.Copied = regen.Copied
		res.Copies = regen.Copies
		res.BytesPlaced = regen.BytesPlaced
		res.SkippedLevels = len(regen.SkippedLevels)
		for _, lvl := range regen.SkippedLevels {
			waived[lvl] = true
		}
		if err != nil {
			return res, fmt.Errorf("mover: %s: %w", op.Object, err)
		}
	}

	// Verify before release: the owners must meet every level's copy
	// target (waived levels excepted) with the whole shard answering.
	check, err := repair.AuditFleet(ctx, shard, acfg)
	if err != nil {
		return res, fmt.Errorf("mover: verify %s: %w", op.Object, err)
	}
	if check.Unreachable > 0 {
		return res, fmt.Errorf("mover: verify %s: %d owners unreachable", op.Object, check.Unreachable)
	}
	for _, lr := range check.Deficient() {
		if !waived[lr.Level] {
			return res, fmt.Errorf("mover: verify %s: level %d holds %d/%d copies",
				op.Object, lr.Level, lr.HaveCopies, lr.WantCopies)
		}
	}

	// Release: the owners hold everything the targets ask for, so the
	// stale copies are redundant. Delete is idempotent — a retry after a
	// partial release just re-deletes nothing.
	for _, addr := range op.Stale {
		cl, err := m.placed.ClientFor(addr)
		if err != nil {
			return res, fmt.Errorf("mover: %s: %w", op.Object, err)
		}
		n, err := cl.Delete(ctx, op.Object)
		if err != nil {
			return res, fmt.Errorf("mover: reclaim %s from %s: %w", op.Object, addr, err)
		}
		res.DeletesIssued++
		res.BlocksReclaimed += n
	}
	res.Migrated = 1
	return res, nil
}

// throttleWait charges n bytes against the rate limit and records the
// stall.
func (m *Mover) throttleWait(ctx context.Context, n int) error {
	slept, err := m.limiter.wait(ctx, n)
	if slept > 0 {
		m.met.throttleWaitNs.Observe(int64(slept))
	}
	return err
}

// blockKey identifies a block by content — level, coefficient vector
// (dense form, so representation does not split identities), payload.
func blockKey(b *core.CodedBlock) string {
	coeff := b.DenseCoeff()
	buf := make([]byte, 0, 3+len(coeff)+len(b.Payload))
	buf = append(buf, byte(b.Level), byte(b.Level>>8))
	buf = append(buf, coeff...)
	buf = append(buf, 0)
	buf = append(buf, b.Payload...)
	return string(buf)
}
