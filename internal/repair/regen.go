package repair

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/store"
)

// Regen is one regeneration request: refill a shard's deficient levels
// with fresh random combinations of surviving coded blocks. Repair
// regenerates a shard from its own survivors; migration regenerates new
// owners from the blocks of stale holders.
type Regen struct {
	// Shard receives the regenerated blocks.
	Shard *store.Replicated
	// Scheme and Levels describe the code.
	Scheme core.Scheme
	Levels *core.Levels
	// Survivors are the deduplicated blocks to recombine. Regenerate
	// sorts them in place, so a fixed seed samples identically.
	Survivors []*core.CodedBlock
	// Fresh marks the survivors the shard does not hold yet. When a
	// sample is degenerate they are copied verbatim instead. Repair
	// collects its survivors from the shard itself, so it has none.
	Fresh map[*core.CodedBlock]bool
	// Deficient lists the levels to refill, most critical first.
	Deficient []LevelReport
	// Rng draws the samples and the combination weights.
	Rng *rand.Rand
	// SampleSize is how many survivors feed each recombination.
	SampleSize int
	// Budget caps the blocks placed; 0 means no cap. The budget is spent
	// most-critical-level-first.
	Budget int
	// Charge, when non-nil, is called with each placement's wire bytes
	// before the put; an error aborts the step (the mover's throttle).
	Charge func(ctx context.Context, n int) error
}

// RegenReport tallies one Regenerate step.
type RegenReport struct {
	// Regenerated counts fresh recombinations placed; Copied counts
	// survivors placed verbatim after a degenerate sample.
	Regenerated int
	Copied      int
	// Copies is the fleet-wide copy target those placements aimed at.
	Copies int
	// BytesPlaced is the wire volume placed, once per target copy.
	BytesPlaced int64
	// SkippedLevels lists deficient levels with no usable sample: no
	// survivor carries the level, or the sample was degenerate and no
	// fresh survivor of the level was left to copy. Such levels need
	// lost-data handling, not regeneration.
	SkippedLevels []int
	// Truncated reports that the budget ran out before every deficit
	// was addressed.
	Truncated bool
}

// Regenerate refills each deficient level, most critical first: it
// samples survivors of the level (padded with lower-level survivors
// when the scheme mixes levels), recombines a fresh block, and places it
// preferring the replicas that hold the fewest copies of the level,
// until the level's deficit is covered or the budget runs out. It never
// decodes: a level none of whose survivors remain is skipped, not
// reconstructed.
func Regenerate(ctx context.Context, in Regen) (RegenReport, error) {
	var out RegenReport
	sortBlocks(in.Survivors)
	byLevel := make(map[int][]*core.CodedBlock)
	for _, b := range in.Survivors {
		byLevel[b.Level] = append(byLevel[b.Level], b)
	}
	budget := in.Budget
	if budget <= 0 {
		budget = math.MaxInt
	}
	for _, lr := range in.Deficient {
		if budget <= 0 {
			out.Truncated = true
			break
		}
		anchors := byLevel[lr.Level]
		if len(anchors) == 0 {
			// Without a surviving block of this level, its dimensions
			// are gone from the store; recombination cannot conjure
			// them back and decoding is exactly what we refuse to do.
			out.SkippedLevels = append(out.SkippedLevels, lr.Level)
			continue
		}
		var padding []*core.CodedBlock
		if in.Scheme != core.SLC {
			for lvl := 0; lvl < lr.Level; lvl++ {
				padding = append(padding, byLevel[lvl]...)
			}
		}
		// Raw-copy fallback: anchors the shard lacks, so survivors that
		// span nothing recombinable still transfer verbatim instead of
		// spinning on server-side dedup.
		var fresh []*core.CodedBlock
		for _, b := range anchors {
			if in.Fresh[b] {
				fresh = append(fresh, b)
			}
		}
		copied := 0
		prefer := preferOrder(lr.PerReplica)
		need := (lr.Deficit + lr.Replicas - 1) / lr.Replicas
		for ; need > 0 && budget > 0; need-- {
			nb, _, err := core.RecombineRanked(in.Rng, in.Scheme, in.Levels, sample(in.Rng, in.SampleSize, anchors, padding))
			raw := errors.Is(err, core.ErrDegenerateInputs)
			if raw {
				if copied == len(fresh) {
					if copied == 0 {
						out.SkippedLevels = append(out.SkippedLevels, lr.Level)
					}
					break // every fresh survivor already placed
				}
				nb, err = fresh[copied], nil
				copied++
			}
			if err != nil {
				return out, fmt.Errorf("recombine level %d: %w", lr.Level, err)
			}
			placed := nb.WireSize() * lr.Replicas
			if in.Charge != nil {
				if err := in.Charge(ctx, placed); err != nil {
					return out, err
				}
			}
			if err := in.Shard.PutPreferring(ctx, nb, prefer); err != nil {
				return out, fmt.Errorf("place level-%d block: %w", lr.Level, err)
			}
			if raw {
				out.Copied++
			} else {
				out.Regenerated++
			}
			budget--
			out.Copies += lr.Replicas
			out.BytesPlaced += int64(placed)
		}
		if need > 0 && budget <= 0 {
			out.Truncated = true
		}
	}
	return out, nil
}

// sample draws up to size blocks: at least one anchor of the target
// level (so the output keeps that level), padded with lower-level
// survivors when the scheme allows mixing.
func sample(rng *rand.Rand, size int, anchors, padding []*core.CodedBlock) []*core.CodedBlock {
	take := size
	if take > len(anchors) {
		take = len(anchors)
	}
	out := make([]*core.CodedBlock, 0, size)
	for _, i := range rng.Perm(len(anchors))[:take] {
		out = append(out, anchors[i])
	}
	if pad := size - len(out); pad > 0 && len(padding) > 0 {
		if pad > len(padding) {
			pad = len(padding)
		}
		for _, i := range rng.Perm(len(padding))[:pad] {
			out = append(out, padding[i])
		}
	}
	return out
}

// preferOrder ranks replica indices for placement: fewest copies of the
// level first, unreachable replicas last (they may have healed since
// the audit, so they stay eligible as fallback).
func preferOrder(perReplica []int) []int {
	order := make([]int, len(perReplica))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := perReplica[order[a]], perReplica[order[b]]
		if (ca < 0) != (cb < 0) {
			return cb < 0
		}
		return ca < cb
	})
	return order
}

// sortBlocks orders blocks by (level, dense coefficients, payload) so a
// fixed seed samples identically across runs.
func sortBlocks(blocks []*core.CodedBlock) {
	// Dense comparison keys are precomputed so sparse blocks (nil Coeff)
	// order by their actual coefficient vectors, not their representation —
	// keeping rerun determinism independent of which wire version a block
	// arrived in.
	keys := make([][]byte, len(blocks))
	for i, b := range blocks {
		keys[i] = b.DenseCoeff()
	}
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if blocks[i].Level != blocks[j].Level {
			return blocks[i].Level < blocks[j].Level
		}
		if c := bytes.Compare(keys[i], keys[j]); c != 0 {
			return c < 0
		}
		return bytes.Compare(blocks[i].Payload, blocks[j].Payload) < 0
	})
	sorted := make([]*core.CodedBlock, len(blocks))
	for pos, i := range order {
		sorted[pos] = blocks[i]
	}
	copy(blocks, sorted)
}
