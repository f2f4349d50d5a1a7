package diskstore

import (
	"slices"
	"time"

	"repro/internal/core"
)

// Retention: sealed segments older than Options.Retention are deleted
// whole — segment granularity is what makes a rolling window cheap
// (one unlink reclaims a file of blocks, no per-record compaction).
// The active segment is never deleted; when it grows older than the
// window while still unfilled, the loop asks the writer to rotate it
// so its blocks become deletable on a later tick.

// retentionLoop enforces the rolling window every RetentionCheck.
func (s *Store) retentionLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.RetentionCheck)
	defer t.Stop()
	for {
		select {
		case <-s.stopRet:
			return
		case <-t.C:
			s.enforceRetention(time.Now())
		}
	}
}

// enforceRetention deletes expired sealed segments and requests a
// rotation when the active segment itself has outlived the window.
func (s *Store) enforceRetention(now time.Time) {
	cutoff := now.Add(-s.opts.Retention)

	s.mu.Lock()
	var expired []*segment
	keep := s.segs[:0]
	for i, seg := range s.segs {
		sealed := i < len(s.segs)-1
		if sealed && seg.createdAt.Before(cutoff) {
			expired = append(expired, seg)
			continue
		}
		keep = append(keep, seg)
	}
	s.segs = keep
	rotateActive := false
	if n := len(s.segs); n > 0 {
		active := s.segs[n-1]
		rotateActive = active.size > segHeaderLen && active.createdAt.Before(cutoff)
	}
	touched := make(map[core.ObjectID]struct{})
	for _, seg := range expired {
		for idx, r := range seg.recs {
			if r.dead {
				continue // a delete already dropped it from the index
			}
			s.dropRefLocked(seg, idx)
			touched[r.obj] = struct{}{}
		}
	}
	for obj := range touched {
		s.unlinkObjLocked(obj, expired)
	}
	if len(expired) > 0 {
		s.met.setInventory(s.blocks, s.bytes, len(s.segs))
	}
	s.mu.Unlock()

	for _, seg := range expired {
		purged, size := s.cache.purgeSeg(seg.id)
		s.met.cacheEvictions.Add(uint64(purged))
		s.met.cacheBytes.Set(size)
		blocks, bytes := len(seg.recs), seg.size-segHeaderLen
		if err := seg.remove(); err != nil {
			s.opts.Logf("diskstore: delete expired segment %d: %v", seg.id, err)
		}
		s.met.segmentsDeleted.Inc()
		s.met.blocksExpired.Add(uint64(blocks))
		s.met.bytesExpired.Add(uint64(bytes))
		s.opts.Logf("diskstore: expired segment %d (%d blocks, %d bytes) beyond the %v window",
			seg.id, blocks, bytes, s.opts.Retention)
	}
	if len(expired) > 0 {
		if err := syncDir(s.dir); err != nil {
			s.opts.Logf("diskstore: fsync data dir: %v", err)
		}
	}

	if rotateActive {
		s.requestRotate()
	}
}

// addRefLocked indexes one live record: the dedup hash, the object's
// log-order list, the tallies and the totals.
func (s *Store) addRefLocked(seg *segment, idx int) {
	r := seg.recs[idx]
	ref := blockRef{seg: seg, idx: idx}
	seg.live++
	s.byHash[r.hash] = append(s.byHash[r.hash], ref)
	s.byObj[r.obj] = append(s.byObj[r.obj], ref)
	k := objLevel{r.obj, int(r.level)}
	tally := s.tallies[k]
	tally.count++
	tally.bytes += int64(r.n)
	s.tallies[k] = tally
	s.blocks++
	s.bytes += int64(r.n)
}

// dropRefLocked removes one live record from the dedup index, the
// tallies and the totals. Callers unlink it from byObj, a whole object
// or a whole segment at a time, so no per-record list search is needed.
func (s *Store) dropRefLocked(seg *segment, idx int) {
	r := seg.recs[idx]
	refs := s.byHash[r.hash]
	for i, ref := range refs {
		if ref.seg == seg && ref.idx == idx {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(s.byHash, r.hash)
	} else {
		s.byHash[r.hash] = refs
	}
	k := objLevel{r.obj, int(r.level)}
	tally := s.tallies[k]
	tally.count--
	tally.bytes -= int64(r.n)
	if tally.count <= 0 {
		delete(s.tallies, k)
	} else {
		s.tallies[k] = tally
	}
	s.blocks--
	s.bytes -= int64(r.n)
}

// unlinkObjLocked drops obj's index entries that point into any of segs,
// keeping the rest in log order.
func (s *Store) unlinkObjLocked(obj core.ObjectID, segs []*segment) {
	refs := s.byObj[obj]
	keep := refs[:0]
	for _, ref := range refs {
		if !slices.Contains(segs, ref.seg) {
			keep = append(keep, ref)
		}
	}
	clear(refs[len(keep):]) // release the dropped segments
	if len(keep) == 0 {
		delete(s.byObj, obj)
	} else {
		s.byObj[obj] = keep
	}
}

// requestRotate asks the writer to seal the active segment; a no-op on
// a closed (or closing) store.
func (s *Store) requestRotate() {
	req := &writeReq{kind: reqRotate, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.putters.Add(1)
	s.mu.Unlock()
	select {
	case s.reqCh <- req:
		s.putters.Done()
		<-req.done
		if req.err != nil {
			s.opts.Logf("diskstore: rotate aged active segment: %v", req.err)
		}
	case <-s.stopRet:
		s.putters.Done()
	}
}
