package store

// This file implements FsyncAlways's group commit (DeWitt et al. 1984,
// with no added delay). An append writes its records, enqueues a waiter,
// and blocks while the commit loop syncs: one fsync acknowledges every
// append that landed since the previous one, so N concurrent writers
// share one sync instead of queueing N, and a lone writer pays one sync
// per append. No append is acknowledged before an fsync covering its
// bytes returns.
//
// Correctness hinges on one invariant: every pending waiter's records sit
// in the writer that will be fsynced for it, at or before the offset
// captured with it. Appends enqueue their waiter in the same s.mu
// critical section that wrote the records, and the two operations that
// pair waiters with a writer — groupCommit here and rotate (store.go) —
// both run under s.groupMu and capture the waiter list and the writer's
// end offset in the same s.mu critical section in which they read (or
// swap) s.wal. Lock order is groupMu → mu; neither is ever held while
// taking a corpus shard lock, so a waiter blocking with its shard lock
// held cannot deadlock the loop.
//
// A failed fsync discards the writer's entire unsynced tail (truncating
// back to the last offset a successful sync covered) and fails every
// pending waiter, including appends that landed during the failed sync:
// their records die in the same truncation, and their mutations abort, so
// the log stays a prefix of memory. If even the rollback cannot be
// confirmed the writer wedges, and every later append fails fast.

// groupWaiter is one append blocked on the fsync that will acknowledge
// it: the channel its caller waits on, the sequence number the store had
// before it (restored if its records are rolled back, so a retry reuses
// the seqs) and the highest one its records carry (so a successful commit
// can advance the acknowledged watermark the replication feed ships up
// to).
type groupWaiter struct {
	ch   chan error
	prev uint64
	seq  uint64
	// records counts the WAL records the append wrote — the unit the
	// group-commit batch-size histogram sums over.
	records int
}

// groupLoop commits a batch after each kick. On shutdown it takes a final
// drain: Close sets closing under s.mu before closing done, and appends
// fail fast once closing is set, so the drain cannot race with a late
// enqueue.
func (s *Store) groupLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			s.groupCommit()
			return
		case <-s.groupCh:
			s.groupCommit()
		}
	}
}

// groupCommit resolves every waiter currently pending against the live
// writer.
func (s *Store) groupCommit() {
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	s.mu.Lock()
	waiters := s.groupWaiters
	s.groupWaiters = nil
	w, end := s.wal, s.wal.off
	s.mu.Unlock()
	s.resolveGroup(w, end, waiters)
}

// resolveGroup fsyncs w and acknowledges waiters, whose records the
// caller guarantees lie in w before end. Callers hold groupMu, which is
// what pins w against rotation for the duration. The fsync runs outside
// s.mu so new appends keep landing behind the batch — they form the next
// one.
func (s *Store) resolveGroup(w *walWriter, end int64, waiters []groupWaiter) {
	if len(waiters) == 0 {
		return
	}
	err := w.fsync()
	if err == nil {
		// Everything up to end is durable: the next failed sync rolls back
		// to here and no further, and the replication feed may now ship up
		// to the batch's highest seq.
		s.mu.Lock()
		w.syncedOff = end
		s.advanceAckedLocked(waiters[len(waiters)-1].seq)
		s.mu.Unlock()
		if m := s.opts.Metrics; m != nil {
			var n int
			for _, gw := range waiters {
				n += gw.records
			}
			m.GroupBatchRecords.Observe(float64(n))
		}
		for _, gw := range waiters {
			gw.ch <- nil
		}
		return
	}
	// Failed sync: discard the whole unsynced tail and fail the batch.
	s.mu.Lock()
	if s.wal == w {
		// Appends that landed during the failed fsync sit in the same
		// tail being discarded; they fail with the batch, and the seqs of
		// every discarded record are surrendered. (When called from
		// rotation, s.wal has already moved on and any new waiters belong
		// to the new writer — leave them alone.)
		waiters = append(waiters, s.groupWaiters...)
		s.groupWaiters = nil
		s.tailBytes -= w.off - w.syncedOff
		if prev := waiters[0].prev; prev >= s.ackedSeq {
			s.seq = prev
		}
	}
	w.off = w.syncedOff
	w.rollback("group fsync", err)
	s.mu.Unlock()
	for _, gw := range waiters {
		gw.ch <- err
	}
}
