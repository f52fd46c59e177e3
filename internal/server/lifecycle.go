package server

import (
	"errors"
	"fmt"
	"time"

	"taco/internal/engine"
	"taco/internal/journal"
)

// The session lifecycle: a session's state is three typed parts —
// residency, what its files hold (disk) and health — changed only by the
// transitions below. Each checks its precondition under s.mu (or on a
// session no other goroutine can reach yet) and rejects an illegal call,
// the state left as it was: degrade, which a failed fsync racing a Delete or
// a quarantine can reach, returns errIllegalTransition; every other
// transition panics with it, a state only a bug can produce. The store does
// the file work around them; a transition records what that work achieved.
//
//	create       new → resident at rev, no base
//	bootRecover  new → spilled, the registry entry's base
//	restore      spilled → resident
//	spill        resident, no spill repair owed, disk reproduces it → spilled
//	checkpoint   resident: base at rev, tail none
//	append       resident: rev advances, the tail grows
//	replay       spilled above its base: the tail as the journal holds it
//	fork         healthy parent whose disk reproduces it: base frozen; child new → spilled
//	quarantine   spilled → quarantined, ok
//	degrade      resident, or spilled (journal only): a path broken
//	repair       degraded, resident: a base at rev landed → ok
//	delete       resident, spilled or quarantined → deleted, no disk, ok

// errIllegalTransition rejects a transition the session's state does not
// allow. TestSessionLifecycle says, for each, why no public call path makes
// it, or why degrade's rejection is what its caller relies on.
var errIllegalTransition = errors.New("server: illegal session transition")

// residency is resident (eng set), spilled (the graph may be pinned),
// quarantined (a file failed its check) or deleted — or new, a Session not
// yet created or recovered.
type residency uint8

const (
	resNew residency = iota
	resident
	spilled
	quarantined
	deleted
)

func (r residency) String() string {
	return [...]string{"new", "resident", "spilled", "quarantined", "deleted"}[r]
}

// tailKind is what the journal records above the base amount to, ordered by
// what they cost an eviction: nothing; value assignments, which replay onto
// the pinned graph; structural edits, which do not; or a revision no journal
// holds (a non-durable store, a failed append, a shipped gap, a degradation),
// which only a base write covers.
type tailKind uint8

const (
	tailNone tailKind = iota
	tailValues
	tailStructural
	tailBroken
)

// diskState is what the session's files hold. Without a held base file the
// base is the empty engine at rev.
type diskState struct {
	held      bool
	rev       uint64
	owner     string // the frozen <owner>.<rev>.tacob it shares; "" = <id>.tacos
	bytes     int64  // base size; 0 = unknown (boot-recovered)
	tail      tailKind
	tailBytes int64 // framed size of the journal's records
}

// brokenPath is a set of durability paths a degraded session has lost.
type brokenPath uint8

const (
	brokenJournal brokenPath = 1 << iota // an append or group-commit fsync failed
	brokenSpill                          // a base write failed
)

// String names one path: the degradation metric's reason label.
func (p brokenPath) String() string {
	return [...]string{brokenJournal: "journal", brokenSpill: "spill"}[p]
}

// health is ok while broken is empty; backoff paces the repairer.
type health struct {
	broken  brokenPath
	backoff Backoff
}

// Backoff is capped exponential retry pacing for the repair loop and the
// replicator: Next doubles from Base to Cap, Reset re-arms after a success.
type Backoff struct {
	Base time.Duration
	Cap  time.Duration
	cur  time.Duration
}

// Next returns the delay before the next retry.
func (b *Backoff) Next() time.Duration {
	if b.cur <= 0 {
		b.cur = b.Base
	} else {
		b.cur *= 2
		if b.cur > b.Cap {
			b.cur = b.Cap
		}
	}
	return b.cur
}

// Reset re-arms the backoff after a successful attempt.
func (b *Backoff) Reset() { b.cur = 0 }

func (s *Session) illegal(t string) error {
	return fmt.Errorf("%w: %s on a %s session", errIllegalTransition, t, s.res)
}

// enterResident and leaveResident are the only writers of eng and of the
// session's place in the eviction ring. A session enters at the ring's head
// unvisited.
func (s *Session) enterResident(eng *engine.Engine) {
	s.res, s.eng, s.graph = resident, eng, nil
	s.visited.Store(false)
	s.ring.push(s)
}

func (s *Session) leaveResident(to residency) {
	s.res, s.eng = to, nil
	s.ring.remove(s)
}

// create makes a new session resident at rev (a replica's shipped revision,
// else 0). Other content than an empty engine breaks the tail until the
// first checkpoint lands.
func (s *Session) create(eng *engine.Engine, rev uint64) {
	if s.res != resNew {
		panic(s.illegal("create"))
	}
	s.rev, s.disk = rev, diskState{rev: rev}
	if eng.NumCells() > 0 {
		s.disk.tail = tailBroken
	}
	s.enterResident(eng)
}

// bootRecover makes a new session its registry entry, spilled, at the
// journal's head; the tail counts as values until a replay reads it.
func (s *Session) bootRecover(e journal.Entry, head uint64) {
	if s.res != resNew {
		panic(s.illegal("bootRecover"))
	}
	s.res, s.rev = spilled, max(e.SnapRev, head)
	s.disk = diskState{held: e.SnapHeld, rev: e.SnapRev, owner: e.BaseID}
	if s.rev > e.SnapRev {
		s.disk.tail = tailValues
	}
}

func (s *Session) restore(eng *engine.Engine) {
	if s.res != spilled {
		panic(s.illegal("restore"))
	}
	s.enterResident(eng)
}

// spill drops residency and pins the graph; base and tail must reproduce
// the session: no tail, or value records above a held base.
func (s *Session) spill() {
	if s.res != resident || s.health.broken&brokenSpill != 0 ||
		!(s.disk.tail == tailNone || s.disk.tail == tailValues && s.disk.held) {
		panic(s.illegal("spill"))
	}
	g := s.eng.TACOGraph()
	s.eng.Recycle()
	s.leaveResident(spilled)
	s.graph = g
}

// checkpoint records that a base of the engine at rev, of the given size,
// landed in the session's own file: the journal's records are all below it.
func (s *Session) checkpoint(bytes int64) {
	if s.res != resident {
		panic(s.illegal("checkpoint"))
	}
	s.disk = diskState{held: true, rev: s.rev, bytes: bytes}
}

// append advances a resident session to rev, whose record grew the tail by
// kind k (tailBroken: no journal holds it) to tailBytes (0: unknown).
func (s *Session) append(rev uint64, k tailKind, tailBytes int64) {
	if s.res != resident || rev <= s.rev || k == tailNone {
		panic(s.illegal("append"))
	}
	s.rev, s.disk.tail = rev, max(s.disk.tail, k)
	if tailBytes > 0 {
		s.disk.tailBytes = tailBytes
	}
}

// replay records the tail a restore read, before its engine is published.
func (s *Session) replay(k tailKind, tailBytes int64) {
	if s.res != spilled || s.rev <= s.disk.rev || k == tailNone {
		panic(s.illegal("replay"))
	}
	s.disk.tail, s.disk.tailBytes = k, tailBytes
}

// fork makes the new session c a spilled copy of s over the same base, with
// a journal of tailBytes holding s's tail. A base file of s's own becomes
// the frozen one both share; the caller linked it under that name first.
func (s *Session) fork(c *Session, tailBytes int64) {
	if s.res != resident && s.res != spilled || s.health.broken != 0 || c.res != resNew ||
		s.rev != s.disk.rev && !(s.disk.held && (s.disk.tail == tailValues || s.disk.tail == tailStructural)) {
		panic(s.illegal("fork"))
	}
	if s.disk.held && s.disk.owner == "" {
		s.disk.owner = s.ID
	}
	c.res, c.rev, c.disk = spilled, s.rev, s.disk
	if c.rev == c.disk.rev {
		c.disk.tail = tailNone
	}
	c.disk.tailBytes = tailBytes
}

// quarantine poisons a spilled session whose base or journal failed its
// check. Nothing of it is served again, so no repair is owed: its health
// clears.
func (s *Session) quarantine() {
	if s.res != spilled {
		panic(s.illegal("quarantine"))
	}
	s.res, s.graph, s.health = quarantined, nil, health{}
}

// degrade marks path p broken. A resident session's disk no longer counts
// as reproducing it; a broken spill path, which only a resident session can
// lose, keeps coldest from claiming it until repaired.
func (s *Session) degrade(p brokenPath) error {
	if s.res != resident && (s.res != spilled || p != brokenJournal) {
		return s.illegal("degrade")
	}
	if s.health.broken == 0 {
		s.health.backoff = Backoff{Base: 50 * time.Millisecond, Cap: 5 * time.Second}
	}
	s.health.broken |= p
	if s.res == resident {
		s.disk.tail = tailBroken
	}
	return nil
}

// repair returns a degraded session to ok once a base of it at its
// revision has landed (a checkpoint: held, no tail), whichever paths broke.
func (s *Session) repair() {
	if s.health.broken == 0 || s.res != resident || !s.disk.held || s.disk.tail != tailNone {
		panic(s.illegal("repair"))
	}
	s.health = health{}
}

// retryDelay is the wait before the repairer's next attempt.
func (s *Session) retryDelay() time.Duration { return s.health.backoff.Next() }

// delete ends the session: nothing stays resident, pinned, on disk or owed.
func (s *Session) delete() {
	switch s.res {
	case resNew, deleted:
		panic(s.illegal("delete"))
	case resident:
		s.leaveResident(deleted)
	}
	s.res, s.graph, s.disk, s.health = deleted, nil, diskState{}, health{}
}
