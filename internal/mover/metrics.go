package mover

import "repro/internal/metrics"

// moverMetrics is the mover's metrics seam, following the repair
// daemon's pattern: names resolve once at construction, and a nil
// registry yields all-nil fields with every recording call a no-op.
// The name catalog lives in DESIGN.md §15; the round, failure and
// backoff series are the Loop's (repair.NewLoop).
type moverMetrics struct {
	kicks           *metrics.Counter
	objectsPlanned  *metrics.Counter
	objectsMigrated *metrics.Counter
	objectsSkipped  *metrics.Counter
	objectErrors    *metrics.Counter

	blocksRegenerated *metrics.Counter
	blocksCopied      *metrics.Counter
	copiesPlaced      *metrics.Counter
	bytesCollected    *metrics.Counter
	bytesPlaced       *metrics.Counter
	levelsSkipped     *metrics.Counter

	deletesIssued   *metrics.Counter
	blocksReclaimed *metrics.Counter

	throttleWaitNs *metrics.Histogram
}

func newMoverMetrics(r *metrics.Registry) moverMetrics {
	return moverMetrics{
		kicks:             r.Counter("mover_kicks_total"),
		objectsPlanned:    r.Counter("mover_objects_planned_total"),
		objectsMigrated:   r.Counter("mover_objects_migrated_total"),
		objectsSkipped:    r.Counter("mover_objects_skipped_total"),
		objectErrors:      r.Counter("mover_object_errors_total"),
		blocksRegenerated: r.Counter("mover_blocks_regenerated_total"),
		blocksCopied:      r.Counter("mover_blocks_copied_total"),
		copiesPlaced:      r.Counter("mover_copies_placed_total"),
		bytesCollected:    r.Counter("mover_bytes_collected_total"),
		bytesPlaced:       r.Counter("mover_bytes_placed_total"),
		levelsSkipped:     r.Counter("mover_levels_skipped_total"),
		deletesIssued:     r.Counter("mover_deletes_issued_total"),
		blocksReclaimed:   r.Counter("mover_blocks_reclaimed_total"),
		throttleWaitNs:    r.Histogram("mover_throttle_wait_ns"),
	}
}
