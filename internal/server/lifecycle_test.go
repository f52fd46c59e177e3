package server

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"

	"taco/internal/engine"
	"taco/internal/faultfs"
	"taco/internal/journal"
	"taco/internal/ref"
)

// lifecycleViolation names the first way the session's state is not a legal
// triple, or returns "". Called with s.mu held.
func lifecycleViolation(s *Session) string {
	h := s.health
	switch {
	case s.res == resNew:
		return "a published session is new"
	case (s.eng != nil) != (s.res == resident):
		return "engine set but not resident, or resident without one"
	case inRing(s) != (s.res == resident):
		return "in the eviction ring without residency, or residency outside it"
	case s.graph != nil && s.res != spilled:
		return "graph pinned but not spilled"
	case s.disk.rev > s.rev:
		return "base above the revision"
	case s.disk.owner != "" && !s.disk.held:
		return "frozen base owner without a base"
	case s.disk.tail == tailNone && s.rev != s.disk.rev && s.res != deleted:
		return "revisions above the base but no tail"
	case s.disk.tail == tailBroken && (s.res == spilled || s.res == quarantined):
		return "non-resident with a broken tail: nothing reproduces it"
	case s.res == deleted && (s.disk != diskState{} || h.broken != 0):
		return "deleted with disk or health state"
	case h.broken != 0 && s.res == quarantined:
		return "quarantined with a broken path: nothing of it is served to repair"
	case h.broken&brokenSpill != 0 && s.res != resident:
		return "spill repair owed by a non-resident session"
	}
	return ""
}

// inRing reports whether s is linked into its store's eviction ring.
func inRing(s *Session) bool {
	if s.ring == nil { // a forked child before its store registers it
		return false
	}
	s.ring.mu.Lock()
	defer s.ring.mu.Unlock()
	return s.ring.head == s || s.newer != nil || s.older != nil
}

// ringViolation names the first way the store's eviction ring is not a
// well-formed list — its links, count and hand agreeing — or returns "".
// That it holds exactly the resident sessions is lifecycleViolation's check.
func ringViolation(st *Store) string {
	r := &st.ring
	r.mu.Lock()
	defer r.mu.Unlock()
	n, handSeen := 0, r.hand == nil
	var newer *Session
	for s := r.tail; s != nil; s = s.newer {
		if s.older != newer {
			return "a link disagrees with its neighbour's"
		}
		handSeen = handSeen || r.hand == s
		newer = s
		if n++; n > r.n {
			return "more sessions linked than counted"
		}
	}
	switch {
	case newer != r.head:
		return "the walk from the tail does not end at the head"
	case n != r.n:
		return fmt.Sprintf("%d sessions linked, %d counted", n, r.n)
	case !handSeen:
		return "the hand points outside the ring"
	}
	return ""
}

// lifeCode is a session's state in short: the residency (N new, R resident,
// S spilled, Q quarantined, D deleted), then — except for N and D — the
// tail (n none, v values, s structural, b broken), whether a base is held
// (h, or -), and the broken paths (j journal, s spill).
func lifeCode(s *Session) string {
	c := "NRSQD"[s.res : s.res+1]
	if s.res == resNew || s.res == deleted {
		return c
	}
	c += "nvsb"[s.disk.tail : s.disk.tail+1]
	if s.disk.held {
		c += "h"
	} else {
		c += "-"
	}
	if s.health.broken&brokenJournal != 0 {
		c += "j"
	}
	if s.health.broken&brokenSpill != 0 {
		c += "s"
	}
	return c
}

// buildSession constructs a registered session in the state code names: the
// base at rev 3, and the session at rev 5 when a tail is above it.
func buildSession(t *testing.T, st *Store, code string) *Session {
	t.Helper()
	s := &Session{ID: newSessionID()}
	if err := st.register(s); err != nil {
		t.Fatal(err)
	}
	switch code[0] {
	case 'N':
		return s
	case 'R':
		s.create(engine.New(nil), 0)
	case 'S', 'Q':
		s.res = spilled
	case 'D':
		s.res = deleted
		return s
	}
	s.disk = diskState{held: code[2] == 'h', rev: 3, tail: tailKind(strings.IndexByte("nvsb", code[1]))}
	s.rev = 3
	if s.disk.tail != tailNone {
		s.rev = 5
	}
	if strings.Contains(code[3:], "j") {
		s.degrade(brokenJournal)
	}
	if strings.Contains(code[3:], "s") {
		s.degrade(brokenSpill)
	}
	s.disk.tail = tailKind(strings.IndexByte("nvsb", code[1])) // degrade breaks a resident tail
	if code[0] == 'Q' {
		s.res = quarantined
	}
	if got := lifeCode(s); got != code {
		t.Fatalf("built %s, want %s", got, code)
	}
	return s
}

// lifeSnapshot is every lifecycle field, to show a rejected transition left
// the session as it was.
type lifeSnapshot struct {
	res    residency
	rev    uint64
	eng    *engine.Engine
	linked bool
	graph  any
	disk   diskState
	broken brokenPath
}

func snapshotLife(s *Session) lifeSnapshot {
	return lifeSnapshot{s.res, s.rev, s.eng, inRing(s), s.graph, s.disk, s.health.broken}
}

// lifecycleStates are the from-states the table covers: every residency and
// health, and each tail and base the preconditions tell apart. Qvhj is one
// quarantine no longer leaves (it clears health), kept to show that every
// transition but delete rejects it.
var lifecycleStates = []string{
	"N",
	"Rn-", "Rnh", "Rvh", "Rsh", "Rbh", "Rv-", "Rb-", "Rbhj", "Rvhj", "Rbhs", "Rb-s", "Rbhjs",
	"Rnhj", "Rnhs", "Rnhjs",
	"Snh", "Svh", "Ssh", "Sv-", "Svhj",
	"Qvh", "Qvhj",
	"D",
}

// lifecycleRow is one transition — apply panics where the transition
// rejects — with the state each legal from-state reaches
// (for fork "parent|child"), and, for every other from-state, why no public
// call path makes that call — or, where one can, why the rejection is what
// it relies on. A why key lists from-states separated by spaces.
type lifecycleRow struct {
	name  string
	apply func(s *Session) (child *Session)
	legal map[string]string
	why   map[string]string
}

var (
	allResident = "Rn- Rnh Rvh Rsh Rbh Rv- Rb- Rbhj Rvhj Rbhs Rb-s Rbhjs Rnhj Rnhs Rnhjs"
	allSpilled  = "Snh Svh Ssh Sv- Svhj"
	allQuar     = "Qvh Qvhj"
	notNew      = allResident + " " + allSpilled + " " + allQuar + " D"
)

var lifecycleTable = []lifecycleRow{
	{
		name:  "create",
		apply: func(s *Session) *Session { s.create(engine.New(nil), 0); return nil },
		legal: map[string]string{"N": "Rn-"},
		why:   map[string]string{notNew: "admit calls create once, on the Session it just built and registered under its lock"},
	},
	{
		name: "bootRecover",
		apply: func(s *Session) *Session {
			s.bootRecover(journal.Entry{ID: s.ID, SnapRev: 3, SnapHeld: true}, 5)
			return nil
		},
		legal: map[string]string{"N": "Svh"},
		why:   map[string]string{notNew: "NewStore's bootRecover builds each Session from a registry entry before the store serves"},
	},
	{
		name:  "restore",
		apply: func(s *Session) *Session { s.restore(engine.New(nil)); return nil },
		legal: map[string]string{"Snh": "Rnh", "Svh": "Rvh", "Ssh": "Rsh", "Sv-": "Rv-", "Svhj": "Rvhj"},
		why: map[string]string{
			"N":         "a constructor holds s.mu from register to its transition, so withResident never sees a new session",
			allResident: "withResident restores only a session that is not resident",
			allQuar:     "restoreEngine fails a quarantined session with ErrSnapshotCorrupt before restore",
			"D":         "withResident answers ErrSessionDeleted before restoring",
		},
	},
	{
		name:  "spill",
		apply: func(s *Session) *Session { s.spill(); return nil },
		legal: map[string]string{"Rn-": "Sn-", "Rnh": "Snh", "Rvh": "Svh", "Rvhj": "Svhj", "Rnhj": "Snhj"},
		why: map[string]string{
			"Rsh Rbh Rv- Rb- Rbhj":            "Store.spill checkpoints (leaving no tail) unless tailReplayableLocked holds: a healthy value tail above a held base",
			"Rbhs Rb-s Rbhjs Rnhs Rnhjs":      "coldest passes over a session with a broken spill path, reading it with the session locked",
			"N " + allSpilled + " " + allQuar: "coldest claims ring members only, locked, and the ring holds exactly the resident sessions",
			"D":                               "Delete leaves the ring under s.mu, before coldest can claim the session",
		},
	},
	{
		name:  "checkpoint",
		apply: func(s *Session) *Session { s.checkpoint(100); return nil },
		legal: map[string]string{
			"Rn-": "Rnh", "Rnh": "Rnh", "Rvh": "Rnh", "Rsh": "Rnh", "Rbh": "Rnh", "Rv-": "Rnh", "Rb-": "Rnh",
			"Rbhj": "Rnhj", "Rvhj": "Rnhj", "Rbhs": "Rnhs", "Rb-s": "Rnhs", "Rbhjs": "Rnhjs",
			"Rnhj": "Rnhj", "Rnhs": "Rnhs", "Rnhjs": "Rnhjs",
		},
		why: map[string]string{
			"N " + allSpilled + " " + allQuar + " D": "writeFullLocked runs on a resident session only: in admit after create, in Store.spill, and under withResident for a fork's base and for the repair",
		},
	},
	{
		name: "append",
		apply: func(s *Session) *Session {
			s.append(s.rev+1, tailValues, 64)
			return nil
		},
		legal: map[string]string{
			"Rn-": "Rv-", "Rnh": "Rvh", "Rvh": "Rvh", "Rsh": "Rsh", "Rbh": "Rbh", "Rv-": "Rv-", "Rb-": "Rb-",
			"Rbhj": "Rbhj", "Rvhj": "Rvhj", "Rbhs": "Rbhs", "Rb-s": "Rb-s", "Rbhjs": "Rbhjs",
			"Rnhj": "Rvhj", "Rnhs": "Rvhs", "Rnhjs": "Rvhjs",
		},
		why: map[string]string{
			"N " + allSpilled + " " + allQuar + " D": "every revision lands inside withResident (UpdateJournaled, ApplyReplicated), which restores the session or refuses first",
		},
	},
	{
		name:  "replay",
		apply: func(s *Session) *Session { s.replay(tailStructural, 64); return nil },
		legal: map[string]string{"Svh": "Ssh", "Ssh": "Ssh", "Sv-": "Ss-", "Svhj": "Sshj"},
		why: map[string]string{
			"Snh": "restoreEngine replays only a session whose revision is above its base",
			"N " + allResident + " " + allQuar + " D": "replayJournal runs inside restoreEngine, on the spilled session withResident is restoring",
		},
	},
	{
		name: "fork",
		apply: func(s *Session) *Session {
			c := &Session{ID: newSessionID()}
			s.fork(c, 0)
			return c
		},
		legal: map[string]string{
			"Rn-": "Rn-|Sn-", "Rnh": "Rnh|Snh", "Rvh": "Rvh|Svh", "Rsh": "Rsh|Ssh",
			"Snh": "Snh|Snh", "Svh": "Svh|Svh", "Ssh": "Ssh|Ssh",
		},
		why: map[string]string{
			"Rbh Rv- Rb- Sv-": "forkLocked asks for a base first (needBase) when the parent's tail is broken or has no base under it, and Fork checkpoints it under withResident",
			"Rbhj Rvhj Rbhs Rb-s Rbhjs Rnhj Rnhs Rnhjs Svhj Qvhj": "forkLocked answers ErrSessionDegraded (or ErrSnapshotCorrupt) first",
			"Qvh": "forkLocked answers ErrSnapshotCorrupt first",
			"D":   "forkLocked answers ErrSessionDeleted first",
			"N":   "Fork looks the parent up in the index; a new session is locked by its constructor until its transition",
		},
	},
	{
		name:  "quarantine",
		apply: func(s *Session) *Session { s.quarantine(); return nil },
		legal: map[string]string{"Snh": "Qnh", "Svh": "Qvh", "Ssh": "Qsh", "Sv-": "Qv-", "Svhj": "Qvh"},
		why: map[string]string{
			"N " + allResident + " " + allQuar + " D": "restoreEngine quarantines only the spilled session withResident is restoring",
		},
	},
	{
		name:  "degrade journal",
		apply: func(s *Session) *Session { mustDegrade(s, brokenJournal); return nil },
		legal: map[string]string{
			"Rn-": "Rb-j", "Rnh": "Rbhj", "Rvh": "Rbhj", "Rsh": "Rbhj", "Rbh": "Rbhj", "Rv-": "Rb-j", "Rb-": "Rb-j",
			"Rbhj": "Rbhj", "Rvhj": "Rbhj", "Rbhs": "Rbhjs", "Rb-s": "Rb-js", "Rbhjs": "Rbhjs",
			"Rnhj": "Rbhj", "Rnhs": "Rbhjs", "Rnhjs": "Rbhjs",
			"Snh": "Snhj", "Svh": "Svhj", "Ssh": "Sshj", "Sv-": "Sv-j", "Svhj": "Svhj",
		},
		why: map[string]string{
			"N":                 "a constructor holds s.mu until its transition, and no append precedes it",
			allQuar + " " + "D": "UpdateJournaled's failed fsync can race a quarantine or a Delete: degradeLocked relies on the rejection to leave that session, and the degraded count, as they are",
		},
	},
	{
		name:  "degrade spill",
		apply: func(s *Session) *Session { mustDegrade(s, brokenSpill); return nil },
		legal: map[string]string{
			"Rn-": "Rb-s", "Rnh": "Rbhs", "Rvh": "Rbhs", "Rsh": "Rbhs", "Rbh": "Rbhs", "Rv-": "Rb-s", "Rb-": "Rb-s",
			"Rbhj": "Rbhjs", "Rvhj": "Rbhjs", "Rbhs": "Rbhs", "Rb-s": "Rb-s", "Rbhjs": "Rbhjs",
			"Rnhj": "Rbhjs", "Rnhs": "Rbhs", "Rnhjs": "Rbhjs",
		},
		why: map[string]string{
			"N " + allSpilled + " " + allQuar + " D": "a base write fails only on a resident session: in admit, Store.spill, Fork or the repair, each under s.mu",
		},
	},
	repairRow("repair journal"),
	repairRow("repair spill"),
	{
		name:  "delete",
		apply: func(s *Session) *Session { s.delete(); return nil },
		legal: func() map[string]string {
			m := map[string]string{}
			for _, c := range strings.Fields(notNew) {
				if c != "D" {
					m[c] = "D"
				}
			}
			return m
		}(),
		why: map[string]string{
			"N": "Delete takes s.mu after finding the session in the index, and a constructor holds it until its transition",
			"D": "Delete removes the index entry before it deletes, so a second Delete answers ErrSessionNotFound",
		},
	},
}

// repairRow is the one repair, a base at rev landed → ok. It is listed
// under each path a session can lose (the reason label of
// taco_durability_degraded_total), since whichever broke, the degradation
// ends the same way.
func repairRow(name string) lifecycleRow {
	return lifecycleRow{
		name:  name,
		apply: func(s *Session) *Session { s.repair(); return nil },
		legal: map[string]string{"Rnhj": "Rnh", "Rnhs": "Rnh", "Rnhjs": "Rnh"},
		why: map[string]string{
			"Rbhj Rvhj Rbhs Rb-s Rbhjs": "repairSession repairs right after writeFullLocked's checkpoint, which leaves a held base and no tail",
			"Svhj":                      "repairSession restores a spilled session (withResident) before its checkpoint",
			"Rn- Rnh Rvh Rsh Rbh Rv- Rb- Snh Svh Ssh Sv- Qvh": "only a degraded session has a repair loop, and the loop ends at its repair",
			"Qvhj": "quarantine clears health, and a quarantined session's restore fails (ErrSnapshotCorrupt), which ends the loop",
			"N":    "a constructor holds s.mu until its transition, and no repair loop exists before it",
			"D":    "withResident answers ErrSessionDeleted first, which ends the loop",
		},
	}
}

// mustDegrade turns degrade's rejection into the panic the other
// transitions reject with, so the table treats all of them alike.
func mustDegrade(s *Session, p brokenPath) {
	if err := s.degrade(p); err != nil {
		panic(err)
	}
}

// tryTransition applies row to s and returns the error a rejecting
// transition panicked with.
func tryTransition(s *Session, row lifecycleRow) (child *Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	return row.apply(s), nil
}

// TestSessionLifecycle runs every transition from every covered state: a
// legal pair reaches the expected state, which is a legal triple; an illegal
// one is rejected with errIllegalTransition (a panic, but for degrade) and
// leaves every lifecycle field as it was, and the table says why no public
// call path makes it.
func TestSessionLifecycle(t *testing.T) {
	st, err := NewStore(StoreOptions{Shards: 1, RecalcWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, row := range lifecycleTable {
		why := map[string]string{}
		for keys, reason := range row.why {
			for _, k := range strings.Fields(keys) {
				if _, dup := why[k]; dup {
					t.Errorf("%s: %s listed twice as illegal", row.name, k)
				}
				why[k] = reason
			}
		}
		for _, from := range lifecycleStates {
			want, legal := row.legal[from]
			if _, listed := why[from]; legal == listed {
				t.Errorf("%s from %s: want it either legal or listed with a reason, exactly once", row.name, from)
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", row.name, from), func(t *testing.T) {
				s := buildSession(t, st, from)
				s.mu.Lock()
				defer s.mu.Unlock()
				before := snapshotLife(s)
				child, err := tryTransition(s, row)
				if !legal {
					if !errors.Is(err, errIllegalTransition) {
						t.Fatalf("illegal pair (%s) was not rejected: err = %v, now %s", why[from], err, lifeCode(s))
					}
					if after := snapshotLife(s); after != before {
						t.Fatalf("rejected transition changed the state: %+v -> %+v", before, after)
					}
					return
				}
				if err != nil {
					t.Fatalf("legal pair rejected: %v", err)
				}
				got := lifeCode(s)
				if child != nil {
					got += "|" + lifeCode(child)
					if v := lifecycleViolation(child); v != "" {
						t.Errorf("child: %s", v)
					}
				}
				if got != want {
					t.Fatalf("reached %s, want %s", got, want)
				}
				if v := lifecycleViolation(s); v != "" {
					t.Fatalf("reached an illegal triple: %s", v)
				}
			})
		}
	}
}

// FuzzStoreLifecycle drives a durable store — two resident slots, no drain
// workers, `-fsync never` or `always` by the program's first byte — with a
// fuzzed stream of value and formula edits, reads, Wait barriers, creates
// (which evict), forks, deletes, journal ENOSPC turned on and off, a
// one-shot EIO on the next journal fsync, and a barrier on one session
// while the test holds every other session's lock, so the overflow after
// the barrier's fault-in can claim only the waited session. After every op
// each session's state is a legal triple and the eviction ring well formed;
// after a Wait, every readable session's cells equal a model engine fed the
// batches the store applied to it. The run ends by closing the store and
// reopening its directory: every live session still equals its model, so
// no acknowledged batch was lost.
func FuzzStoreLifecycle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 4, 0, 3, 5, 0, 7, 0, 0, 2, 3, 8, 1, 1, 3})
	f.Add([]byte{1, 4, 0, 4, 0, 0, 0, 9, 7, 1, 1, 3, 3, 7, 0, 0, 1, 3, 5, 1, 6, 0, 3})
	f.Add([]byte{0, 0, 1, 2, 7, 0, 0, 5, 1, 4, 0, 6, 0, 1, 1, 0, 3, 7, 4, 0, 0, 0, 3})
	f.Add([]byte{1, 0, 0, 5, 9, 0, 1, 7, 3, 9, 1, 0, 9, 5, 0, 2, 1, 3})
	// A formula on s0, two creates, a value edit of s0 and reads of s2 and
	// s1 can leave s0 spilled with a value tail and the others resident: the
	// barrier on s0 must drain it before anything spills it again.
	f.Add([]byte{0, 1, 0, 0, 0, 4, 4, 0, 0, 5, 0, 2, 2, 2, 1, 10, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		defer faultfs.Clear()
		opts := StoreOptions{
			Shards: 2, MaxResident: 2, RecalcWorkers: -1,
			Durable: true, SpillDir: t.TempDir(), FsyncPolicy: "never",
		}
		if len(prog) > 0 && prog[0]%2 == 1 {
			opts.FsyncPolicy = "always"
		}
		st, err := NewStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { st.Close() }()
		type tracked struct {
			id    string
			acked [][]EditOp
		}
		var live []*tracked
		create := func() { live = append(live, &tracked{id: st.Create("", engine.New(nil)).ID}) }
		create()
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		next() // the policy
		pick := func() *tracked {
			if len(live) == 0 {
				create()
			}
			return live[int(next())%len(live)]
		}
		edit := func(batch []EditOp) {
			s := pick()
			ops, err := parseBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			err = st.UpdateJournaled(s.id, batch, func(_ *Session, eng *engine.Engine) error {
				applyBatch(eng, ops)
				return nil
			})
			switch {
			case err == nil, errors.Is(err, syscall.EIO):
				// A failed group commit answers an error for a batch it
				// applied: the repair's base holds it all the same.
				s.acked = append(s.acked, batch)
			case !errors.Is(err, ErrSessionDegraded):
				t.Fatalf("edit of %s: %v", s.id, err)
			}
		}
		for len(prog) > 0 {
			switch next() % 11 {
			case 0: // a value into A1:B4
				b := next()
				edit(valueEdit(fmt.Sprintf("%c%d", 'A'+b%2, 1+b/2%4), float64(next())))
			case 1: // a formula into C1:D4 over the columns to its left
				b := next()
				col, row := 'C'+rune(b%2), 1+int(b/2%4)
				src := [...]string{"A%d*2+B%d", "SUM(A1:B%d)+%d", "C%d+B%d", "IF(A%d>B%d,1,2)"}[next()%4]
				if col == 'C' && strings.HasPrefix(src, "C") {
					src = "A%d-B%d"
				}
				edit([]EditOp{{Cell: fmt.Sprintf("%c%d", col, row), Formula: str(fmt.Sprintf(src, row, row))}})
			case 2: // a read, which restores a spilled session
				s := pick()
				if err := st.View(s.id, func(*Session, *engine.Engine) error { return nil }); err != nil {
					t.Fatalf("read of %s: %v", s.id, err)
				}
			case 3: // Wait every session, then check it against its model
				for _, s := range live {
					checkAgainstModel(t, st, s.id, s.acked)
				}
			case 4:
				create()
			case 5:
				p := pick()
				c, err := st.Fork(p.id, "")
				switch {
				case err == nil:
					live = append(live, &tracked{id: c.ID, acked: append([][]EditOp(nil), p.acked...)})
				case !errors.Is(err, ErrSessionDegraded):
					t.Fatalf("fork of %s: %v", p.id, err)
				}
			case 6:
				if len(live) > 0 {
					i := int(next()) % len(live)
					if err := st.Delete(live[i].id); err != nil {
						t.Fatal(err)
					}
					live = append(live[:i], live[i+1:]...)
				}
			case 7:
				faultfs.Inject(faultfs.Rule{
					Op: faultfs.OpWrite, PathContains: journalSuffix,
					Fault: faultfs.Fault{Err: syscall.ENOSPC},
				})
			case 8:
				faultfs.Clear()
			case 9:
				faultfs.Inject(faultfs.Rule{
					Op: faultfs.OpSync, PathContains: journalSuffix, Count: 1,
					Fault: faultfs.Fault{Err: syscall.EIO},
				})
			case 10: // a barrier on one session, every other one locked
				w := pick()
				func() {
					for _, o := range live {
						if o != w {
							s := mustPeek(t, st, o.id)
							s.mu.Lock()
							defer s.mu.Unlock()
						}
					}
					checkAgainstModel(t, st, w.id, w.acked)
				}()
			}
			if v := ringViolation(st); v != "" {
				t.Fatalf("eviction ring: %s", v)
			}
			st.Each(func(s *Session) bool {
				s.mu.RLock()
				v, code := lifecycleViolation(s), lifeCode(s)
				s.mu.RUnlock()
				if v != "" {
					t.Fatalf("session %s (%s): %s", s.ID, code, v)
				}
				return true
			})
		}
		faultfs.Clear()
		waitRepaired(t, st)
		for _, s := range live {
			checkAgainstModel(t, st, s.id, s.acked)
		}
		st.Close()
		if st, err = NewStore(opts); err != nil {
			t.Fatal(err)
		}
		for _, s := range live {
			checkAgainstModel(t, st, s.id, s.acked)
		}
	})
}

// checkAgainstModel waits for the session to settle and compares A1:D4 with
// an engine fed its acknowledged batches.
func checkAgainstModel(t *testing.T, st *Store, id string, acked [][]EditOp) {
	t.Helper()
	if err := st.Wait(id); err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	model := engine.New(nil)
	for _, batch := range acked {
		ops, err := parseBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		applyBatch(model, ops)
	}
	model.RecalculateAll()
	err := st.View(id, func(_ *Session, eng *engine.Engine) error {
		for col := 1; col <= 4; col++ {
			for row := 1; row <= 4; row++ {
				at := ref.Ref{Col: col, Row: row}
				if got, want := eng.Value(at), model.Value(at); !sameValue(got, want) {
					t.Errorf("session %s %s = %v, model %v", id, ref.FormatA1(at), got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read %s: %v", id, err)
	}
}

func TestBackoff(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("Next #%d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("post-reset Next = %v", got)
	}
}
