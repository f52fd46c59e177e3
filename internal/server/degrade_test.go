package server

import (
	"errors"
	"net/http"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"taco/internal/engine"
	"taco/internal/faultfs"
	"taco/internal/formula"
	"taco/internal/ref"
)

// waitRepaired polls until the store reports no degraded sessions.
func waitRepaired(t *testing.T, st *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().DegradedSessions > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("degraded sessions never repaired: %+v", st.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournalENOSPCDegradesAndRecovers is the tentpole degradation flow:
// a journal append hitting a full volume applies and acknowledges the batch,
// fences further writes on that session only (507, reads keep serving),
// and — once the disk heals — the background repairer lands a base holding
// it, so a restart serves every acknowledged batch. The volume is full for
// the journal and every base write alike: with the journal alone faulted,
// the repair would land at once (TestJournalFaultRepairLandsBase).
func TestJournalENOSPCDegradesAndRecovers(t *testing.T) {
	spill := t.TempDir()
	srv, tc := newTestServer(t, Options{Store: StoreOptions{
		SpillDir: spill, Durable: true, FsyncPolicy: "never",
	}})
	var a, b SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "a"}, &a)
	tc.do("POST", "/sessions", CreateRequest{Name: "b"}, &b)
	edit := func(id string, cell string, v float64) (EditResult, int) {
		var er EditResult
		code := tc.do("POST", "/sessions/"+id+"/edits",
			EditBatch{Edits: []EditOp{{Cell: cell, Value: num(v)}}}, &er)
		return er, code
	}
	if _, code := edit(a.ID, "A1", 1); code != http.StatusOK {
		t.Fatalf("edit before fault = %d", code)
	}

	// Fill the volume for session a's journal and for every base write.
	spillWriteFault(t, faultfs.Rule{
		Op: faultfs.OpWrite, PathContains: a.ID + ".tacoj",
		Fault: faultfs.Fault{Err: syscall.ENOSPC},
	})
	er, code := edit(a.ID, "A2", 2)
	if code != http.StatusOK || er.Rev != 2 {
		t.Fatalf("degrading edit = %d rev %d, want 200 rev 2 (applied and acknowledged)", code, er.Rev)
	}
	if _, code := edit(a.ID, "A3", 3); code != http.StatusInsufficientStorage {
		t.Fatalf("write while degraded = %d, want 507", code)
	}
	var cr CellsResult
	if code := tc.do("GET", "/sessions/"+a.ID+"/cells?range=A1:A2&wait=1", nil, &cr); code != http.StatusOK {
		t.Fatalf("read while degraded = %d, want 200", code)
	}
	if len(cr.Cells) != 2 || cr.Cells[1].Num != 2 {
		t.Fatalf("degraded session lost its acknowledged batch: %+v", cr.Cells)
	}
	// The fault is scoped to one session: b keeps writing.
	if _, code := edit(b.ID, "A1", 9); code != http.StatusOK {
		t.Fatalf("unrelated session write = %d, want 200", code)
	}
	if st := srv.Store().Stats(); st.DegradedSessions != 1 {
		t.Fatalf("degraded sessions = %d, want 1", st.DegradedSessions)
	}

	// Disk heals: the repairer lands a base and lifts the fence.
	faultfs.Clear()
	waitRepaired(t, srv.Store())
	if er, code := edit(a.ID, "A3", 3); code != http.StatusOK || er.Rev != 3 {
		t.Fatalf("edit after repair = %d rev %d", code, er.Rev)
	}

	// A restarted store replays every acknowledged batch, including the one
	// whose original append hit ENOSPC.
	srv.Close()
	srv2, err := NewServer(Options{Store: StoreOptions{
		SpillDir: spill, Durable: true, FsyncPolicy: "never",
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := srv2.Store().Wait(a.ID); err != nil {
		t.Fatal(err)
	}
	err = srv2.Store().View(a.ID, func(_ *Session, eng *engine.Engine) error {
		if n := eng.NumCells(); n != 3 {
			t.Fatalf("recovered session has %d cells, want 3", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJournalFaultRepairLandsBase: with only the journal faulted, the
// repair needs nothing of it — it lands a base holding the acknowledged
// batch while the fault still stands — so the session is writable again
// at once, and a restart serves every acknowledged batch.
func TestJournalFaultRepairLandsBase(t *testing.T) {
	spill := t.TempDir()
	opts := StoreOptions{Shards: 1, RecalcWorkers: -1, Durable: true, SpillDir: spill, FsyncPolicy: "never"}
	st, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	a := st.Create("a", engine.New(nil))
	applyJournaled(t, st, a.ID, valueEdit("A1", 1))
	defer faultfs.Clear()
	faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpWrite, PathContains: a.ID + journalSuffix,
		Fault: faultfs.Fault{Err: syscall.ENOSPC},
	})
	applyJournaled(t, st, a.ID, valueEdit("A2", 2)) // acknowledged, degrades a
	if !a.Degraded() {
		t.Fatal("failed journal append did not degrade the session")
	}
	waitRepaired(t, st) // the journal fault still stands
	a.mu.RLock()
	base, rev := a.disk, a.rev
	a.mu.RUnlock()
	if !base.held || base.rev != 2 || rev != 2 {
		t.Fatalf("repair left base %+v at rev %d, want a held base at rev 2", base, rev)
	}
	faultfs.Clear()
	applyJournaled(t, st, a.ID, valueEdit("A3", 3))
	if a.Degraded() {
		t.Fatal("edit after the repair degraded the session")
	}
	st.Close()

	st2, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	checkAgainstModel(t, st2, a.ID, [][]EditOp{valueEdit("A1", 1), valueEdit("A2", 2), valueEdit("A3", 3)})
}

// TestBackgroundFsyncFailureDegrades: under `-fsync interval` the syncer's
// flush is the only fsync. Its failure poisons the journal, so the
// session's next edit degrades it (acknowledged, as a failed append is),
// and the repair lands a base that re-arms the journal.
func TestBackgroundFsyncFailureDegrades(t *testing.T) {
	st, err := NewStore(StoreOptions{
		Shards: 1, RecalcWorkers: -1, Durable: true, SpillDir: t.TempDir(),
		FsyncPolicy: "interval", FsyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := st.Create("a", engine.New(nil))
	defer faultfs.Clear()
	faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpSync, PathContains: a.ID + journalSuffix,
		Fault: faultfs.Fault{Err: syscall.EIO},
	})
	applyJournaled(t, st, a.ID, valueEdit("A1", 1)) // dirties the journal
	waitPoisoned(t, a)
	faultfs.Clear()
	degraded := mDegradedEvents.With(brokenJournal.String()).Value()
	applyJournaled(t, st, a.ID, valueEdit("A2", 2))
	if d := mDegradedEvents.With(brokenJournal.String()).Value() - degraded; d != 1 {
		t.Fatalf("edit after a failed background fsync degraded %d sessions, want 1", d)
	}
	waitRepaired(t, st)
	a.mu.RLock()
	base, rev, armed := a.disk, a.rev, a.jw.Err() == nil
	a.mu.RUnlock()
	if !base.held || base.rev != rev || rev != 2 || !armed {
		t.Fatalf("repair left base %+v at rev %d (journal armed: %v), want a held base at rev 2", base, rev, armed)
	}
	applyJournaled(t, st, a.ID, valueEdit("A3", 3))
	if a.Degraded() {
		t.Fatal("edit after the repair degraded the session")
	}
}

// waitPoisoned polls until a failed fsync has poisoned the session's
// journal writer.
func waitPoisoned(t *testing.T, s *Session) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.RLock()
		poisoned := s.jw != nil && s.jw.Err() != nil
		s.mu.RUnlock()
		if poisoned {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the failed background fsync never poisoned the journal")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoisonedJournalEvictsWithBase: an eviction that would leave a value
// tail in the journal writes a base instead once a failed fsync has
// poisoned that journal, since the restore would read records the disk may
// never have taken. The base's checkpoint re-arms the journal.
func TestPoisonedJournalEvictsWithBase(t *testing.T) {
	st, err := NewStore(StoreOptions{
		Shards: 1, MaxResident: 1, RecalcWorkers: -1, Durable: true, SpillDir: t.TempDir(),
		FsyncPolicy: "interval", FsyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := engine.New(nil)
	for r := 1; r <= 100; r++ { // a base large enough that one record stays under the tail's byte cap
		eng.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
	}
	a := st.Create("a", eng) // a held base at rev 0
	defer faultfs.Clear()
	faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpSync, PathContains: a.ID + journalSuffix,
		Fault: faultfs.Fault{Err: syscall.EIO},
	})
	applyJournaled(t, st, a.ID, valueEdit("A1", 2)) // a value tail
	waitPoisoned(t, a)
	faultfs.Clear()
	evictNow(t, st, a.ID)
	a.mu.RLock()
	res, base, armed := a.res, a.disk, a.jw.Err() == nil
	a.mu.RUnlock()
	if res != spilled || !base.held || base.rev != 1 || base.tail != tailNone || !armed {
		t.Fatalf("a evicted as %s over base %+v (journal armed: %v), want spilled over a base at rev 1", res, base, armed)
	}
	err = st.View(a.ID, func(_ *Session, eng *engine.Engine) error {
		if v := eng.Value(ref.Ref{Col: 1, Row: 1}); v.Num != 2 {
			t.Errorf("a's A1 after the eviction = %v, want 2", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFsyncEIODegradesUnderAlways: under fsync=always the acknowledgement
// IS the fsync, so a failed group commit must surface the error — and
// degrade the session rather than silently downgrading the policy.
func TestFsyncEIODegradesUnderAlways(t *testing.T) {
	srv, tc := newTestServer(t, Options{Store: StoreOptions{
		SpillDir: t.TempDir(), Durable: true, FsyncPolicy: "always",
	}})
	var a SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "a"}, &a)
	edit := func(cell string, v float64) int {
		return tc.do("POST", "/sessions/"+a.ID+"/edits",
			EditBatch{Edits: []EditOp{{Cell: cell, Value: num(v)}}}, nil)
	}
	if code := edit("A1", 1); code != http.StatusOK {
		t.Fatalf("edit before fault = %d", code)
	}
	defer faultfs.Clear()
	faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpSync, PathContains: a.ID + ".tacoj",
		Fault: faultfs.Fault{Err: syscall.EIO},
	})
	if code := edit("A2", 2); code != http.StatusInsufficientStorage {
		t.Fatalf("edit with failing fsync = %d, want 507", code)
	}
	if st := srv.Store().Stats(); st.DegradedSessions != 1 {
		t.Fatalf("degraded sessions = %d, want 1", st.DegradedSessions)
	}
	if code := tc.do("GET", "/sessions/"+a.ID+"/cells?at=A1", nil, nil); code != http.StatusOK {
		t.Fatalf("read while degraded = %d", code)
	}
	faultfs.Clear()
	waitRepaired(t, srv.Store())
	if code := edit("A3", 3); code != http.StatusOK {
		t.Fatalf("edit after repair = %d", code)
	}
}

// TestTornSpillRenameDegradesAndRecovers: a spill whose atomic-publish
// rename fails leaves the victim resident, unevictable, and degraded; after
// the disk heals the repairer lands the snapshot and eviction works again.
func TestTornSpillRenameDegradesAndRecovers(t *testing.T) {
	store, err := NewStore(StoreOptions{
		Shards: 2, MaxResident: 1, SpillDir: filepath.Join(t.TempDir(), "spill"),
		RecalcWorkers: -1, Durable: true, FsyncPolicy: "never",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	a := store.Create("a", engine.New(nil))
	if err := store.Update(a.ID, true, func(*Session, *engine.Engine) error { return nil }); err != nil {
		t.Fatal(err)
	}
	defer faultfs.Clear()
	faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpRename, PathContains: ".tacos",
		Fault: faultfs.Fault{Err: syscall.EIO},
	})
	b := store.Create("b", engine.New(nil)) // forces eviction of a; rename tears
	if st := store.Stats(); st.DegradedSessions == 0 {
		t.Fatalf("torn spill rename did not degrade: %+v", st)
	}
	// Reads keep serving; rev-bumping writes are fenced on the victim.
	if err := store.View(a.ID, func(*Session, *engine.Engine) error { return nil }); err != nil {
		t.Fatalf("read of degraded victim: %v", err)
	}
	faultfs.Clear()
	waitRepaired(t, store)
	for _, s := range []*Session{a, b} {
		if err := store.Update(s.ID, true, func(*Session, *engine.Engine) error { return nil }); err != nil {
			t.Fatalf("write after repair: %v", err)
		}
	}
	// The repaired snapshot makes the victim evictable again.
	store.Create("c", engine.New(nil))
	if st := store.Stats(); st.Evictions == 0 {
		t.Fatalf("no eviction after repair: %+v", st)
	}
}

// TestSlowFsyncDoesNotDegrade: latency is not a fault — a slow disk under
// group commit just makes edits slower, never 507s.
func TestSlowFsyncDoesNotDegrade(t *testing.T) {
	srv, tc := newTestServer(t, Options{Store: StoreOptions{
		SpillDir: t.TempDir(), Durable: true, FsyncPolicy: "always",
	}})
	var a SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "a"}, &a)
	defer faultfs.Clear()
	faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpSync, PathContains: ".tacoj",
		Fault: faultfs.Fault{Delay: 20 * time.Millisecond},
	})
	for i := 0; i < 3; i++ {
		code := tc.do("POST", "/sessions/"+a.ID+"/edits",
			EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(float64(i))}}}, nil)
		if code != http.StatusOK {
			t.Fatalf("edit %d under slow fsync = %d", i, code)
		}
	}
	if st := srv.Store().Stats(); st.DegradedSessions != 0 {
		t.Fatalf("slow fsync degraded sessions: %+v", st)
	}
}

// spillWriteFault fails every atomic base write (the temp file's write) with
// ENOSPC, and clears the plan when the test ends.
func spillWriteFault(t *testing.T, more ...faultfs.Rule) {
	t.Helper()
	t.Cleanup(faultfs.Clear)
	faultfs.Inject(append(more, faultfs.Rule{
		Op: faultfs.OpWrite, PathContains: ".spill-",
		Fault: faultfs.Fault{Err: syscall.ENOSPC},
	})...)
}

// oneCell is an engine holding A1 = v.
func oneCell(v float64) *engine.Engine {
	eng := engine.New(nil)
	eng.SetValue(ref.Ref{Col: 1, Row: 1}, formula.Num(v))
	return eng
}

// TestRepairedSessionEvictable: a session degraded by a journal fault whose
// eviction then fails too owes two repairs. Once both land it must be
// evictable again — no flag of the failed spill may outlive the repair.
func TestRepairedSessionEvictable(t *testing.T) {
	st, err := NewStore(StoreOptions{
		Shards: 1, MaxResident: 1, RecalcWorkers: -1,
		Durable: true, SpillDir: t.TempDir(), FsyncPolicy: "never",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := st.Create("a", engine.New(nil))
	spillWriteFault(t, faultfs.Rule{
		Op: faultfs.OpWrite, PathContains: a.ID + journalSuffix,
		Fault: faultfs.Fault{Err: syscall.ENOSPC},
	})
	applyJournaled(t, st, a.ID, valueEdit("A1", 1)) // acknowledged, degrades a
	if !a.Degraded() {
		t.Fatal("failed journal append did not degrade the session")
	}
	evictNow(t, st, a.ID) // fails: a's base cannot be written
	if !a.Resident() {
		t.Fatal("a was evicted though its base write failed")
	}
	faultfs.Clear()
	waitRepaired(t, st)
	// Two creates over the cap: the first overflow's hand passes a over,
	// clearing the visited bit its edit set, and spills c; the second must
	// claim a.
	st.Create("c", engine.New(nil))
	st.Create("d", engine.New(nil))
	if a.Resident() {
		t.Fatalf("repaired session a still resident after a create over the cap: %+v", st.Stats())
	}
}

// TestCreateDuringBaseFaultKeepsAcks: a non-empty session created while its
// first base cannot be written must not acknowledge an edit a restart would
// lose. Writes are fenced until the repairer lands the base and the
// registry entry; after that an acknowledged edit survives a restart.
func TestCreateDuringBaseFaultKeepsAcks(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Shards: 1, RecalcWorkers: -1, Durable: true, SpillDir: dir, FsyncPolicy: "always"}
	st1, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st1.Close)
	spillWriteFault(t)
	a := st1.Create("a", oneCell(1)).ID
	edit := func(cell string, v float64) error {
		batch := valueEdit(cell, v)
		ops, err := parseBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		return st1.UpdateJournaled(a, batch, func(_ *Session, eng *engine.Engine) error {
			applyBatch(eng, ops)
			return nil
		})
	}
	acked := map[string]float64{"A1": 1}
	if err := edit("A2", 2); err == nil {
		acked["A2"] = 2
	} else if !errors.Is(err, ErrSessionDegraded) {
		t.Fatalf("edit during the base fault: %v", err)
	}
	faultfs.Clear()
	waitRepaired(t, st1)
	if err := edit("A3", 3); err != nil {
		t.Fatalf("edit after repair: %v", err)
	}
	acked["A3"] = 3
	st1.Close()

	st2, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	err = st2.View(a, func(_ *Session, eng *engine.Engine) error {
		for cell, want := range acked {
			at, _ := ref.ParseA1(cell)
			if got := eng.Value(at); got.Num != want {
				t.Errorf("after restart %s = %v, want the acknowledged %v", cell, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("session lost across the restart: %v", err)
	}
}

// TestReplicaDuringBaseFaultNeverRestartsEmpty: a durable standby whose
// bootstrap base cannot be written must not register a base it does not
// hold. After a restart the replica either holds the bootstrapped cells or
// is absent (and is bootstrapped again); it is never an empty engine at the
// shipped revision.
func TestReplicaDuringBaseFaultNeverRestartsEmpty(t *testing.T) {
	dir := t.TempDir()
	opts := tailStoreOpts(dir)
	st1, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st1.Close)
	spillWriteFault(t)
	if _, err := st1.CreateReplica("replica", "r", oneCell(7), 5); err != nil {
		t.Fatal(err)
	}
	st1.Close()
	faultfs.Clear()

	st2, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Peek("replica"); errors.Is(err, ErrSessionNotFound) {
		return
	}
	err = st2.View("replica", func(s *Session, eng *engine.Engine) error {
		if v := eng.Value(ref.Ref{Col: 1, Row: 1}); v.Num != 7 {
			t.Errorf("restarted replica A1 = %v at rev %d, want the bootstrapped 7", v, s.rev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
