package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"taco/internal/engine"
)

// TestEvictionRestoreEquivalence is the acceptance check: a session spilled
// to a snapshot and touched again answers with identical cell values and
// query results, and stays editable.
func TestEvictionRestoreEquivalence(t *testing.T) {
	spill := t.TempDir()
	srv, tc := newTestServer(t, Options{Store: StoreOptions{
		Shards: 4, MaxResident: 2, SpillDir: spill,
	}})

	var victim SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Scenario: "financial", Rows: 40, Seed: 1}, &victim)

	readAll := func() ([]CellOut, QueryResult, QueryResult) {
		var cells CellsResult
		tc.do("GET", "/sessions/"+victim.ID+"/cells?range=A1:H40", nil, &cells)
		var dep, prec QueryResult
		tc.do("GET", "/sessions/"+victim.ID+"/dependents?of=B1:B5", nil, &dep)
		tc.do("GET", "/sessions/"+victim.ID+"/precedents?of=E10", nil, &prec)
		return cells.Cells, dep, prec
	}
	beforeCells, beforeDep, beforePrec := readAll()
	if len(beforeCells) == 0 || beforeDep.Cells == 0 {
		t.Fatalf("empty baseline: %d cells, dep %+v", len(beforeCells), beforeDep)
	}

	// Push the victim out with newer sessions.
	for i := 0; i < 4; i++ {
		tc.do("POST", "/sessions", CreateRequest{Scenario: "inventory", Rows: 20, Seed: int64(i)}, nil)
	}
	sess, err := srv.Store().lookup(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Resident() {
		t.Fatal("victim still resident after overflow")
	}
	if _, err := os.Stat(filepath.Join(spill, victim.ID+".tacos")); err != nil {
		t.Fatalf("spill file: %v", err)
	}

	// Reads against the spilled session answer identically — the cells from
	// the restored engine, the queries from its pinned compressed graph.
	afterCells, afterDep, afterPrec := readAll()
	if !reflect.DeepEqual(beforeCells, afterCells) {
		t.Fatal("cell values changed across evict/restore")
	}
	if !reflect.DeepEqual(beforeDep, afterDep) || !reflect.DeepEqual(beforePrec, afterPrec) {
		t.Fatal("query results changed across evict/restore")
	}

	// An edit keeps the session live.
	var res EditResult
	if code := tc.do("POST", "/sessions/"+victim.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "B1", Value: num(424242)}}}, &res); code != http.StatusOK {
		t.Fatalf("edit after restore: status %d", code)
	}
	if res.DirtyCells == 0 {
		t.Fatalf("edit after restore: %+v", res)
	}
	if !sess.Resident() {
		t.Fatal("victim not resident after edit")
	}

	var st StoreStats
	tc.do("GET", "/stats", nil, &st)
	if st.Evictions == 0 || st.Restores == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Resident > 2 {
		t.Fatalf("resident = %d exceeds cap", st.Resident)
	}
}

func TestStoreRevCounter(t *testing.T) {
	store, err := NewStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := store.Create("r", engine.New(nil))
	for i := 1; i <= 5; i++ {
		if err := store.Update(s.ID, true, func(*Session, *engine.Engine) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rev() != 5 {
		t.Fatalf("rev = %d", s.Rev())
	}
	// View does not bump.
	store.View(s.ID, func(*Session, *engine.Engine) error { return nil })
	if s.Rev() != 5 {
		t.Fatalf("rev after view = %d", s.Rev())
	}
}

func TestStoreShardDistribution(t *testing.T) {
	store, err := NewStore(StoreOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < 200; i++ {
		store.Create(fmt.Sprintf("s%d", i), engine.New(nil))
	}
	occupied := 0
	for _, sh := range store.shards {
		if len(sh.sessions) > 0 {
			occupied++
		}
	}
	if occupied < 6 {
		t.Fatalf("only %d/8 shards occupied — bad hashing", occupied)
	}
}

func TestSpillFailureDoesNotStallStore(t *testing.T) {
	spill := filepath.Join(t.TempDir(), "spill")
	store, err := NewStore(StoreOptions{Shards: 2, MaxResident: 1, SpillDir: spill})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	a := store.Create("a", engine.New(nil))
	// Break the spill directory: every snapshot write now fails.
	if err := os.RemoveAll(spill); err != nil {
		t.Fatal(err)
	}
	b := store.Create("b", engine.New(nil)) // triggers eviction; spill fails
	c := store.Create("c", engine.New(nil)) // must not loop forever on the bad victims

	// All three stay resident (nothing could be spilled) and readable; the
	// spill failures degrade their victims, so writes may be fenced with
	// ErrSessionDegraded — but never fail any other way, and never stall.
	for _, s := range []*Session{a, b, c} {
		if err := store.View(s.ID, func(*Session, *engine.Engine) error { return nil }); err != nil {
			t.Fatalf("session %s unreadable after spill failure: %v", s.ID, err)
		}
		err := store.Update(s.ID, true, func(*Session, *engine.Engine) error { return nil })
		if err != nil && !errors.Is(err, ErrSessionDegraded) {
			t.Fatalf("session %s write after spill failure: %v", s.ID, err)
		}
	}
	if st := store.Stats(); st.Resident != 3 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Heal the disk: the background repairer re-arms every victim and lifts
	// the write fence.
	if err := os.MkdirAll(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for store.Stats().DegradedSessions > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("degraded sessions never repaired: %+v", store.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, s := range []*Session{a, b, c} {
		if err := store.Update(s.ID, true, func(*Session, *engine.Engine) error { return nil }); err != nil {
			t.Fatalf("session %s write after repair: %v", s.ID, err)
		}
	}
}

func TestStoreConcurrentCreateDelete(t *testing.T) {
	store, err := NewStore(StoreOptions{Shards: 4, MaxResident: 8, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s := store.Create(fmt.Sprintf("w%d-%d", w, i), engine.New(nil))
				store.Update(s.ID, true, func(*Session, *engine.Engine) error { return nil })
				if i%3 == 0 {
					store.Delete(s.ID)
				}
			}
		}(w)
	}
	wg.Wait()
	st := store.Stats()
	if st.Resident > 8 {
		t.Fatalf("resident = %d exceeds cap", st.Resident)
	}
	want := 8 * 25 * 2 / 3 // two thirds survive (ceil-ish); just sanity-check scale
	if st.Sessions < want-20 || st.Sessions > 8*25 {
		t.Fatalf("sessions = %d", st.Sessions)
	}
}
