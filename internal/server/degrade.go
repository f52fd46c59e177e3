package server

import (
	"errors"
	"time"

	"taco/internal/journal"
)

// Graceful degradation: a disk fault on a session's durability path — a
// journal append that fails, a snapshot that won't write — no longer risks
// poisoning the store or silently dropping the durability contract. The
// session enters a typed degraded state: reads keep serving (the in-memory
// engine is fine), writes are rejected with 507 + Retry-After (accepting
// more edits would silently widen the window of acknowledged-but-
// unjournaled data), and a background repairer retries with capped backoff
// until the fault clears — reopening torn journal writers, re-appending the
// records that failed, rewriting failed snapshots — then re-arms durability
// and lifts the write fence.
//
// The one batch that triggered journal degradation IS acknowledged (it was
// applied before the append failed; unwinding applied engine state would
// trade a durability gap for a consistency lie) and is buffered in memory
// until the repairer lands it on disk. A crash inside that window loses
// exactly the buffered batches of degraded sessions — the same window a
// non-durable store has for everything, bounded here to one batch per
// degraded session because subsequent writes are fenced.

// ErrSessionDegraded rejects writes to a session whose durability path is
// broken (HTTP 507 + Retry-After). Reads are unaffected; the background
// repairer clears the state once appends/spills succeed again.
var ErrSessionDegraded = errors.New("server: session degraded (durability fault, retry later)")

// Degradation reasons, for telemetry and repair dispatch.
const (
	degradedJournal = "journal" // append or group-commit fsync failed
	degradedSpill   = "spill"   // snapshot write failed (evict or checkpoint)
)

// pendingRecord is an acknowledged edit batch whose journal append failed,
// held in memory (in rev order) until the repairer lands it.
type pendingRecord struct {
	rev     uint64
	payload []byte
}

// degradeLocked moves the session into the degraded state (idempotently)
// and buffers rec if the failed append's payload must be replayed by the
// repairer. Called with s.mu held; the caller schedules the repair after
// releasing the lock (scheduleRepair is session-lock-safe, but keeping it
// out of fn-callback paths keeps lock holds short).
func (st *Store) degradeLocked(s *Session, reason string, rec *pendingRecord) {
	if rec != nil {
		s.pendingRecs = append(s.pendingRecs, *rec)
	}
	// Whatever faulted, stop trusting base + journal to reproduce the state:
	// the next eviction writes a full base.
	s.tailBroken = true
	if s.degraded {
		return
	}
	s.degraded = true
	s.degradedReason = reason
	s.degradedSince = time.Now()
	s.repairBackoff = journal.Backoff{Base: 50 * time.Millisecond, Cap: 5 * time.Second}
	st.degradedCount.Add(1)
	mDegradedEvents.With(reason).Inc()
}

// scheduleRepair queues the session for the repair worker (deduplicated).
// Safe to call while holding a session lock: repq.mu is a leaf.
func (st *Store) scheduleRepair(s *Session) {
	st.repq.mu.Lock()
	if !st.repq.closed && !st.repq.queued[s] {
		st.repq.queued[s] = true
		st.repq.queue = append(st.repq.queue, s)
		st.repq.cond.Signal()
	}
	st.repq.mu.Unlock()
}

// repairWorker drains the repair queue. A failed attempt re-schedules the
// session on its capped exponential backoff via a timer, so one stubborn
// fault never busy-loops the worker or starves other degraded sessions.
func (st *Store) repairWorker() {
	defer st.wg.Done()
	for {
		st.repq.mu.Lock()
		for len(st.repq.queue) == 0 && !st.repq.closed {
			st.repq.cond.Wait()
		}
		if st.repq.closed {
			st.repq.mu.Unlock()
			return
		}
		s := st.repq.queue[0]
		st.repq.queue = st.repq.queue[1:]
		delete(st.repq.queued, s)
		st.repq.mu.Unlock()
		if st.repairSession(s) {
			continue
		}
		mRepairFailures.Inc()
		s.mu.Lock()
		delay := s.repairBackoff.Next()
		s.mu.Unlock()
		time.AfterFunc(delay, func() { st.scheduleRepair(s) })
	}
}

// repairSession attempts to restore the session's durability and reports
// whether the session no longer needs repair (fixed, deleted, or never
// degraded). On success the degraded fence lifts and writes flow again.
func (st *Store) repairSession(s *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.degraded || s.deleted {
		return true
	}
	switch s.degradedReason {
	case degradedSpill:
		if !st.repairSpillLocked(s) {
			return false
		}
	default:
		if !st.repairJournalLocked(s) {
			return false
		}
	}
	s.degraded = false
	s.degradedReason = ""
	s.degradedSince = time.Time{}
	s.repairBackoff.Reset()
	st.degradedCount.Add(-1)
	mRepairs.Inc()
	return true
}

// repairJournalLocked re-arms a session's journal: reopen (revalidating the
// file and clearing any torn poison), drop buffered records a checkpointed
// snapshot has since superseded, re-append the rest in rev order, and run
// the policy's fsync barrier. Called with s.mu held.
func (st *Store) repairJournalLocked(s *Session) bool {
	w, err := st.sessionJournal(s)
	if err != nil {
		return false
	}
	if _, err := w.Reopen(); err != nil {
		return false
	}
	// A spill that checkpointed past a buffered rev makes its record moot:
	// the snapshot already contains the batch.
	for len(s.pendingRecs) > 0 && s.pendingRecs[0].rev <= s.snapRev {
		s.pendingRecs = s.pendingRecs[1:]
	}
	for len(s.pendingRecs) > 0 {
		pr := s.pendingRecs[0]
		if err := w.Append(pr.rev, pr.payload); err != nil {
			return false
		}
		s.pendingRecs = s.pendingRecs[1:]
	}
	if err := w.Sync(); err != nil {
		return false
	}
	return true
}

// repairSpillLocked retries the snapshot write that failed at eviction (or
// checkpoint). On success the session holds a current snapshot again and
// rejoins the evictable pool. Called with s.mu held.
func (st *Store) repairSpillLocked(s *Session) bool {
	if s.eng == nil {
		// Spilled successfully since (or deleted race): the snapshot write
		// that defines this degradation has already happened.
		s.unevictable.Store(false)
		return true
	}
	if err := st.writeFullLocked(s); err != nil {
		return false
	}
	s.unevictable.Store(false)
	return true
}

// Degraded reports whether the session's durability path is currently
// broken (writes fenced with ErrSessionDegraded).
func (s *Session) Degraded() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.degraded
}
