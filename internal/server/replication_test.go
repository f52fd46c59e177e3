package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"syscall"
	"testing"
	"time"

	"taco/internal/engine"
	"taco/internal/faultfs"
	"taco/internal/formula"
	"taco/internal/ref"
)

// newPair boots a durable primary and a warm standby following it over
// HTTP, both on httptest servers.
func newPair(t *testing.T) (pri *Server, priTC *testClient, sby *Server, sbyTC *testClient) {
	t.Helper()
	pri, priTC = newTestServer(t, Options{Store: StoreOptions{
		SpillDir: t.TempDir(), Durable: true, FsyncPolicy: "never",
	}})
	sby, err := NewServer(Options{
		Store:   StoreOptions{SpillDir: t.TempDir(), Durable: true, FsyncPolicy: "never"},
		Standby: StandbyOptions{PrimaryURL: priTC.base, Interval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sby.Close)
	hs := httptest.NewServer(sby)
	t.Cleanup(hs.Close)
	return pri, priTC, sby, &testClient{t: t, base: hs.URL, c: hs.Client()}
}

// waitCaughtUp polls until the standby hosts the session at (at least) rev.
func waitCaughtUp(t *testing.T, sby *Server, id string, rev uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s, err := sby.Store().Peek(id); err == nil && s.Rev() >= rev {
			return
		}
		if time.Now().After(deadline) {
			s, err := sby.Store().Peek(id)
			if err != nil {
				t.Fatalf("standby never created session %s: %v", id, err)
			}
			t.Fatalf("standby stuck at rev %d, want %d", s.Rev(), rev)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStandbyShipsAndServesReads is the tentpole replication flow: the
// standby bootstraps a scenario session from the primary's snapshot, tails
// its journal, serves byte-identical reads with lag headers, and rejects
// writes with 503.
func TestStandbyShipsAndServesReads(t *testing.T) {
	_, priTC, sby, sbyTC := newPair(t)

	var info SessionInfo
	priTC.do("POST", "/sessions", CreateRequest{Scenario: "financial", Rows: 30, Seed: 7}, &info)
	var er EditResult
	for i := 0; i < 5; i++ {
		priTC.do("POST", "/sessions/"+info.ID+"/edits",
			EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(float64(i))}}}, &er)
	}
	waitCaughtUp(t, sby, info.ID, er.Rev)

	// Reads match the primary cell-for-cell once both sides settle.
	read := func(tc *testClient) CellsResult {
		var cr CellsResult
		if code := tc.do("GET", "/sessions/"+info.ID+"/cells?range=A1:H30&wait=1", nil, &cr); code != http.StatusOK {
			t.Fatalf("cells = %d", code)
		}
		return cr
	}
	want, got := read(priTC), read(sbyTC)
	if want.Rev != got.Rev || !reflect.DeepEqual(want.Cells, got.Cells) {
		t.Fatalf("standby read diverges: primary rev %d (%d cells), standby rev %d (%d cells)",
			want.Rev, len(want.Cells), got.Rev, len(got.Cells))
	}

	// Standby responses carry the replication lag headers.
	resp, err := http.Get(sbyTC.base + "/sessions/" + info.ID + "/cells?at=A1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Replication-Lag-Rev") == "" || resp.Header.Get("X-Replication-Lag-Ms") == "" {
		t.Fatalf("standby response missing lag headers: %v", resp.Header)
	}

	// Writes are fenced with 503 (+Retry-After) on every mutating route.
	if code := sbyTC.do("POST", "/sessions/"+info.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "B1", Value: num(1)}}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("standby edit = %d, want 503", code)
	}
	if code := sbyTC.do("POST", "/sessions", CreateRequest{}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("standby create = %d, want 503", code)
	}
	if code := sbyTC.do("DELETE", "/sessions/"+info.ID, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("standby delete = %d, want 503", code)
	}

	// A session dropped on the primary is pruned from the standby.
	if code := priTC.do("DELETE", "/sessions/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("primary delete = %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := sby.Store().Peek(info.ID); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never pruned the deleted session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPromoteLiftsFenceAndFencesCursor: promotion makes the standby
// writable, is idempotent, and guarantees no shipped record applies after.
func TestPromoteLiftsFenceAndFencesCursor(t *testing.T) {
	_, priTC, sby, sbyTC := newPair(t)

	var info SessionInfo
	priTC.do("POST", "/sessions", CreateRequest{Name: "wb"}, &info)
	var er EditResult
	priTC.do("POST", "/sessions/"+info.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(42)}}}, &er)
	waitCaughtUp(t, sby, info.ID, er.Rev)

	var pr PromoteResult
	if code := sbyTC.do("POST", "/admin/promote", nil, &pr); code != http.StatusOK {
		t.Fatalf("promote = %d", code)
	}
	if !pr.Promoted || pr.AlreadyPrimary {
		t.Fatalf("promote result = %+v", pr)
	}
	// Writable now — and the write lands on the promoted store.
	if code := sbyTC.do("POST", "/sessions/"+info.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "A2", Value: num(43)}}}, &er); code != http.StatusOK {
		t.Fatalf("edit after promote = %d", code)
	}
	// The fence holds: edits still flowing into the old primary never reach
	// the promoted standby.
	priTC.do("POST", "/sessions/"+info.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "A3", Value: num(99)}}}, nil)
	time.Sleep(50 * time.Millisecond)
	var cr CellsResult
	sbyTC.do("GET", "/sessions/"+info.ID+"/cells?range=A1:A3&wait=1", nil, &cr)
	for _, c := range cr.Cells {
		if c.Cell == "A3" {
			t.Fatalf("shipped record applied after promotion: %+v", cr.Cells)
		}
	}
	// Idempotent.
	if code := sbyTC.do("POST", "/admin/promote", nil, &pr); code != http.StatusOK || !pr.AlreadyPrimary {
		t.Fatalf("second promote = %d %+v", code, pr)
	}
	// Promotion on a server that was never a standby reports AlreadyPrimary.
	if code := priTC.do("POST", "/admin/promote", nil, &pr); code != http.StatusOK || !pr.AlreadyPrimary {
		t.Fatalf("primary promote = %d %+v", code, pr)
	}
}

// TestStandbyRebasesPastCheckpoint: when the primary checkpoints a journal
// (snapshot advances, records truncated), a standby whose cursor predates
// the checkpoint gets 409 from the journal endpoint and re-bases from the
// snapshot instead of missing records.
func TestStandbyRebasesPastCheckpoint(t *testing.T) {
	_, priTC := newTestServer(t, Options{Store: StoreOptions{
		SpillDir: t.TempDir(), Durable: true, FsyncPolicy: "never", MaxResident: 1,
	}})

	var a SessionInfo
	priTC.do("POST", "/sessions", CreateRequest{Name: "a"}, &a)
	var er EditResult
	for i := 0; i < 4; i++ {
		priTC.do("POST", "/sessions/"+a.ID+"/edits",
			EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(float64(i))}}}, &er)
	}
	// Force a of spill/checkpoint: a second session evicts the first.
	priTC.do("POST", "/sessions", CreateRequest{Name: "b"}, nil)

	// The standby starts AFTER the checkpoint: its from=0 cursor predates
	// the primary's snapshot revision, so the first journal fetch 409s and
	// the replicator must bootstrap from the snapshot.
	sby, err := NewServer(Options{
		Store:   StoreOptions{SpillDir: t.TempDir(), Durable: true, FsyncPolicy: "never"},
		Standby: StandbyOptions{PrimaryURL: priTC.base, Interval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sby.Close()
	waitCaughtUp(t, sby, a.ID, er.Rev)
	hs := httptest.NewServer(sby)
	defer hs.Close()
	sbyTC := &testClient{t: t, base: hs.URL, c: hs.Client()}
	var cr CellsResult
	if code := sbyTC.do("GET", "/sessions/"+a.ID+"/cells?at=A1&wait=1", nil, &cr); code != http.StatusOK {
		t.Fatalf("standby read = %d", code)
	}
	if len(cr.Cells) != 1 || cr.Cells[0].Num != 3 {
		t.Fatalf("re-based standby serves wrong state: %+v", cr.Cells)
	}
}

// TestStandbyRefusesRottedBase: the primary ships a spilled session's base
// file as it lies on disk, so the standby checks its CRC trailer before
// restoring it. A rotted base fails the bootstrap with ErrSnapshotChecksum
// and leaves no replica behind; the primary's own restore refuses the same
// file.
func TestStandbyRefusesRottedBase(t *testing.T) {
	dir := t.TempDir()
	pri, priTC := newTestServer(t, Options{Store: StoreOptions{
		Shards: 1, SpillDir: dir, Durable: true, FsyncPolicy: "never", MaxResident: 1,
	}})
	id, _ := spillRotted(t, pri.Store(), priTC, dir)
	priTC.do("POST", "/sessions", CreateRequest{Name: "sound"}, nil)

	store, err := NewStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rp := NewReplicator(store, StandbyOptions{PrimaryURL: priTC.base})
	if err := rp.cycle(); !errors.Is(err, engine.ErrSnapshotChecksum) {
		t.Fatalf("shipping pass: err = %v, want ErrSnapshotChecksum", err)
	}
	if _, err := store.Peek(id); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("standby holds a replica of the rotted session (err=%v)", err)
	}
	replicas := 0
	store.Each(func(*Session) bool { replicas++; return true })
	if replicas != 1 {
		t.Fatalf("standby holds %d replicas, want the sound session alone", replicas)
	}
	if code := priTC.do("GET", "/sessions/"+id+"/cells?at=A1", nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("primary read of the rotted session: status %d, want 500", code)
	}
}

// TestStandbyFailedAppendDegrades: a durable standby whose local append of a
// shipped record fails degrades that session, as a primary's does, and takes
// no later record until the repairer lands a base — so its journal never
// holds a record over a hole. Restarted before the repair, it serves the
// journal it has, a gapless tail above its base, and a follower of it passes
// the base within two shipping cycles instead of re-basing on every one.
func TestStandbyFailedAppendDegrades(t *testing.T) {
	opts := StoreOptions{Shards: 1, RecalcWorkers: -1, Durable: true, SpillDir: t.TempDir(), FsyncPolicy: "never"}
	st, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateReplica("replica", "r", oneCell(50), 5); err != nil {
		t.Fatal(err)
	}
	apply := func(rev uint64) error {
		return st.ApplyReplicated("replica", rev, encodeEditOps(valueEdit("A1", float64(10*rev))))
	}
	for _, rev := range []uint64{6, 7} {
		if err := apply(rev); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer faultfs.Inject(faultfs.Rule{
			Op: faultfs.OpWrite, PathContains: "replica" + journalSuffix,
			Fault: faultfs.Fault{Err: syscall.ENOSPC},
		})()
		if err := apply(8); err != nil {
			t.Fatalf("apply with a failing local append: %v", err)
		}
	}()
	if !mustPeek(t, st, "replica").Degraded() {
		t.Fatal("a failed local append did not degrade the standby's session")
	}
	// The repairer may land its base first; otherwise rev 9 waits for it.
	if err := apply(9); err != nil && !errors.Is(err, ErrSessionDegraded) {
		t.Fatalf("apply past a failed append: %v", err)
	}
	st.Close()

	srv, tc := newTestServer(t, Options{Store: opts})
	sess := mustPeek(t, srv.Store(), "replica")
	if snap, rev := snapState(sess); rev <= 5 {
		t.Fatalf("restarted standby at rev %d over base %d, want past 5", rev, snap)
	}
	follower, err := NewStore(StoreOptions{RecalcWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	rp := NewReplicator(follower, StandbyOptions{PrimaryURL: tc.base})
	for cycle := 1; ; cycle++ {
		if err := rp.cycle(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if s, err := follower.Peek("replica"); err == nil && s.Rev() > 5 {
			break
		}
		if cycle == 2 {
			t.Fatal("the follower is still at the standby's base after two cycles")
		}
	}
	want := sess.Rev()
	err = follower.View("replica", func(s *Session, eng *engine.Engine) error {
		if v := eng.Value(ref.Ref{Col: 1, Row: 1}); s.rev != want || v != formula.Num(float64(10*want)) {
			t.Errorf("follower A1 = %v at rev %d, want %d at rev %d", v, s.rev, 10*want, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
