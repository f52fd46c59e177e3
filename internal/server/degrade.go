package server

import (
	"errors"
	"time"
)

// Graceful degradation: a disk fault on a session's durability path — a
// journal append that fails, a base that won't write — degrades that session
// (lifecycle.go's health) instead of poisoning the store or silently dropping
// the durability contract. Reads keep serving, writes are rejected with 507 +
// Retry-After (more edits would widen the window of acknowledged-but-
// unjournaled data), and a repair loop retries with capped backoff until the
// fault clears — reopening torn journal writers, re-appending the records
// that failed, rewriting the base — then lifts the write fence.
//
// The batch whose append failed IS acknowledged (it was applied first;
// unwinding applied engine state would trade a durability gap for a
// consistency lie) and buffered in memory until the repairer lands it. A
// crash inside that window loses exactly that one batch per degraded session,
// since later writes are fenced.

// ErrSessionDegraded rejects writes to a session whose durability path is
// broken (HTTP 507 + Retry-After). Reads are unaffected; the background
// repairer clears the state once appends/spills succeed again.
var ErrSessionDegraded = errors.New("server: session degraded (durability fault, retry later)")

// pendingRecord is an acknowledged edit batch whose journal append failed,
// held in memory (in rev order) until the repairer lands it.
type pendingRecord struct {
	rev     uint64
	payload []byte
}

// degradeLocked marks path p of the session broken, buffering rec if the
// failed append's batch must be landed by the repairer. A session that was
// healthy gets its repair loop; one past degrading (quarantined or deleted)
// is left as it is. Called with s.mu held.
func (st *Store) degradeLocked(s *Session, p brokenPath, rec *pendingRecord) {
	was := s.health.broken
	if s.degrade(p, rec) != nil {
		return
	}
	if was&p == 0 {
		mDegradedEvents.With(p.String()).Inc()
	}
	if was == 0 {
		st.degradedCount.Add(1)
		st.rq.mu.Lock() // a leaf, safe under a session lock
		if !st.rq.closed {
			st.wg.Add(1)
			go st.repairLoop(s)
		}
		st.rq.mu.Unlock()
	}
}

// baseFailedLocked degrades a session whose base write failed: it stays
// resident and unevictable, its writes fenced, until the repairer lands the
// base. Called with s.mu held.
func (st *Store) baseFailedLocked(s *Session) {
	mSpillErrors.Inc()
	st.degradeLocked(s, brokenSpill, nil)
}

// repairLoop is a degraded session's repairer: it retries the broken paths
// on the session's capped exponential backoff until none is left (or the
// session is deleted) or the store closes.
func (st *Store) repairLoop(s *Session) {
	defer st.wg.Done()
	for !st.repairSession(s) {
		mRepairFailures.Inc()
		s.mu.Lock()
		delay := s.retryDelay()
		s.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-st.stop:
			return
		}
	}
}

// repairSession attempts to restore each broken durability path of the
// session and reports whether none is left (fixed, deleted, or never
// degraded). Once none is left the write fence lifts.
func (st *Store) repairSession(s *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range [...]brokenPath{brokenJournal, brokenSpill} {
		if s.health.broken&p == 0 {
			continue
		}
		if p == brokenJournal && !st.repairJournalLocked(s) || p == brokenSpill && !st.repairSpillLocked(s) {
			return false
		}
		s.repair(p)
		if s.health.broken == 0 {
			st.degradedCount.Add(-1)
			mRepairs.Inc()
		}
	}
	return true
}

// repairJournalLocked re-arms a session's journal: reopen (revalidating the
// file and clearing any torn poison), re-append the buffered records in rev
// order — all but those the surviving journal or a checkpointed base already
// holds — and run the policy's fsync barrier. Called with s.mu held.
func (st *Store) repairJournalLocked(s *Session) bool {
	w, err := st.sessionJournal(s)
	if err != nil {
		return false
	}
	head, err := w.Reopen()
	if err != nil {
		return false
	}
	for _, pr := range s.health.recs {
		if pr.rev <= max(head, s.disk.rev) {
			continue
		}
		if err := w.Append(pr.rev, pr.payload); err != nil {
			return false
		}
		head = pr.rev
	}
	return w.Sync() == nil
}

// repairSpillLocked retries the base write that failed at eviction,
// creation or checkpoint. On success the session holds a current base again
// and rejoins the evictable pool. Called with s.mu held.
func (st *Store) repairSpillLocked(s *Session) bool {
	return s.res == resident && st.writeFullLocked(s) == nil
}

// Degraded reports whether the session's durability path is currently
// broken (writes fenced with ErrSessionDegraded).
func (s *Session) Degraded() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.health.broken != 0
}
