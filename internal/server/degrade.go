package server

import (
	"errors"
	"time"

	"taco/internal/engine"
)

// Graceful degradation: a disk fault on a session's durability path — a
// journal append or fsync that fails, a base that won't write — degrades
// that session (lifecycle.go's health) instead of poisoning the store or
// silently dropping the durability contract. Reads keep serving, writes are
// rejected with 507 + Retry-After (more edits would widen the window of
// acknowledged-but-unjournaled data), and a repair loop retries with capped
// backoff until the fault clears, then lifts the write fence.
//
// There is one repair, whichever path broke: land a base. The session's
// engine holds every acknowledged batch, so a checkpoint at its revision
// supersedes the journal — its Reset cuts the file to its header and
// re-arms the writer — and nothing a failed write or fsync touched is
// trusted again: a journal is never repaired in place.
//
// The batch whose append failed IS acknowledged (it was applied first;
// unwinding applied engine state would trade a durability gap for a
// consistency lie). A crash before the repair's base lands loses exactly
// that one batch per degraded session, since later writes are fenced.

// ErrSessionDegraded rejects writes to a session whose durability path is
// broken (HTTP 507 + Retry-After). Reads are unaffected; the background
// repairer clears the state once a base lands.
var ErrSessionDegraded = errors.New("server: session degraded (durability fault, retry later)")

// degradeLocked marks path p of the session broken. A session that was
// healthy gets its repair loop; one past degrading (quarantined or deleted)
// is left as it is. Called with s.mu held.
func (st *Store) degradeLocked(s *Session, p brokenPath) {
	was := s.health.broken
	if s.degrade(p) != nil {
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
	st.degradeLocked(s, brokenSpill)
}

// repairLoop is a degraded session's repairer: after each wait of the
// session's capped exponential backoff — a fault seen a moment ago has
// rarely cleared — it tries the repair, until the session is healthy
// (repaired, quarantined or deleted) or the store closes.
func (st *Store) repairLoop(s *Session) {
	defer st.wg.Done()
	for {
		s.mu.Lock()
		delay := s.retryDelay()
		s.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-st.stop:
			return
		}
		if st.repairSession(s) {
			return
		}
		mRepairFailures.Inc()
	}
}

// repairSession lands a base of the session at its revision — restoring a
// spilled session first — and reports whether the session is healthy:
// repaired, once the base has landed and the checkpoint's journal Reset has
// re-armed the writer, or deleted or quarantined meanwhile, with no health
// left to repair.
func (st *Store) repairSession(s *Session) bool {
	err := st.withResident(s, false, func(*engine.Engine) error {
		if err := st.writeFullLocked(s); err != nil {
			return err
		}
		if s.jw != nil {
			if err := s.jw.Err(); err != nil {
				return err // the Reset failed: the writer is still poisoned
			}
		}
		s.repair()
		st.degradedCount.Add(-1)
		mRepairs.Inc()
		return nil
	})
	return err == nil || errors.Is(err, ErrSessionDeleted) || errors.Is(err, ErrSnapshotCorrupt)
}

// Degraded reports whether the session's durability path is currently
// broken (writes fenced with ErrSessionDegraded).
func (s *Session) Degraded() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.health.broken != 0
}
