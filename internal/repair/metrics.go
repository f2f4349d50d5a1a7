package repair

import "repro/internal/metrics"

// daemonMetrics is the repair daemon's metrics seam; names resolve once
// at construction so rounds pay only atomic updates. A nil registry
// yields all-nil fields and every recording call is a no-op. The name
// catalog lives in DESIGN.md §10; the round, failure and backoff series
// are the Loop's.
type daemonMetrics struct {
	roundsTruncated   *metrics.Counter
	blocksRegenerated *metrics.Counter
	copiesPlaced      *metrics.Counter
	bytesCollected    *metrics.Counter
	bytesPlaced       *metrics.Counter
	levelsSkipped     *metrics.Counter
}

func newDaemonMetrics(r *metrics.Registry) daemonMetrics {
	return daemonMetrics{
		roundsTruncated:   r.Counter("repair_rounds_truncated_total"),
		blocksRegenerated: r.Counter("repair_blocks_regenerated_total"),
		copiesPlaced:      r.Counter("repair_copies_placed_total"),
		bytesCollected:    r.Counter("repair_bytes_collected_total"),
		bytesPlaced:       r.Counter("repair_bytes_placed_total"),
		levelsSkipped:     r.Counter("repair_levels_skipped_total"),
	}
}
