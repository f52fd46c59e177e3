package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
)

// wideBatch returns a bulk batch: one value cell A1 plus n formulas in
// column B, every one aggregating over a fixed range anchored at $A$1 — a
// dirty set that is wide but shallow (no chains), so a background drain
// proceeds in many small chunks, and each evaluation does enough range work
// that a large drain spans many scheduler quanta even on one CPU.
func wideBatch(n, span int) EditBatch {
	batch := EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(1)}}}
	f := fmt.Sprintf("SUM($A$1:$A$%d)*2", span)
	for row := 1; row <= n; row++ {
		batch.Edits = append(batch.Edits, EditOp{Cell: ref.FormatA1(ref.Ref{Col: 2, Row: row}), Formula: str(f)})
	}
	return batch
}

// TestReadsServePendingWithoutBlocking is the deterministic proof that the
// read path never blocks on (or triggers) recalculation: with background
// workers disabled, a large dirty set stays pending indefinitely, yet reads
// return immediately with last-computed values and the pending flag, and a
// flush barrier drains on demand.
func TestReadsServePendingWithoutBlocking(t *testing.T) {
	const n = 2000
	_, tc := newTestServer(t, Options{Store: StoreOptions{RecalcWorkers: -1}})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "wide"}, &info)
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits", wideBatch(n, 2), nil); code != http.StatusOK {
		t.Fatalf("bulk batch: status %d", code)
	}

	// Dirty the whole column. The response returns after the traversal with
	// the full dirty set still pending — nothing drains it.
	var res EditResult
	tc.do("POST", "/sessions/"+info.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(21)}}}, &res)
	if res.DirtyCells != n || res.Pending != n {
		t.Fatalf("edit result = %+v, want %d dirty and pending", res, n)
	}

	// A plain read completes while the recalculation is entirely undrained:
	// stale values, flagged pending, at the new revision.
	var cells CellsResult
	if code := tc.do("GET", "/sessions/"+info.ID+"/cells?at=B7", nil, &cells); code != http.StatusOK {
		t.Fatalf("read: status %d", code)
	}
	if cells.Rev != 2 || cells.Pending != n {
		t.Fatalf("read = rev %d pending %d, want rev 2 pending %d", cells.Rev, cells.Pending, n)
	}
	if len(cells.Cells) != 1 || !cells.Cells[0].Pending || cells.Cells[0].Num != 2 {
		t.Fatalf("B7 = %+v, want stale 2 flagged pending", cells.Cells)
	}

	// The flush barrier drains inline and gives read-your-writes.
	var fr FlushResult
	if code := tc.do("POST", "/sessions/"+info.ID+"/flush", nil, &fr); code != http.StatusOK || fr.Rev != 2 {
		t.Fatalf("flush: status %d, %+v", code, fr)
	}
	cells = CellsResult{}
	tc.do("GET", "/sessions/"+info.ID+"/cells?at=B7", nil, &cells)
	if cells.Pending != 0 || len(cells.Cells) != 1 || cells.Cells[0].Pending || cells.Cells[0].Num != 42 {
		t.Fatalf("after flush: %+v", cells)
	}
}

// TestReadsCompleteDuringLargeDrain is the live-worker acceptance check: a
// large recalculation drains on the background pool in bounded chunks, and
// cell reads complete (and observe the pending state) while it is still in
// flight.
func TestReadsCompleteDuringLargeDrain(t *testing.T) {
	const n = 8000
	const span = 1000
	_, tc := newTestServer(t, Options{Store: StoreOptions{RecalcChunk: 8}})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "drain"}, &info)
	// Populate the summed column densely: the columnar bulk resolver skips
	// unpopulated cells, so a sparse column would make each SUM near-free
	// and the drain too fast for reads to ever overlap it. SUMSQ rather than
	// SUM for the same reason: SUM folds off the slabs in one batched pass
	// now, which again made the whole drain finish before a read could land.
	batch := wideBatch(n, span)
	sumsq := fmt.Sprintf("SUMSQ($A$1:$A$%d)*2", span)
	for i := range batch.Edits {
		if batch.Edits[i].Formula != nil {
			batch.Edits[i].Formula = &sumsq
		}
	}
	for row := 2; row <= span; row++ {
		batch.Edits = append(batch.Edits, EditOp{Cell: ref.FormatA1(ref.Ref{Col: 1, Row: row}), Value: num(float64(row))})
	}
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits", batch, nil); code != http.StatusOK {
		t.Fatalf("bulk batch: status %d", code)
	}

	sawPending := false
	lastRev := uint64(0)
	for attempt := 1; attempt <= 5 && !sawPending; attempt++ {
		var res EditResult
		tc.do("POST", "/sessions/"+info.ID+"/edits",
			EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(float64(attempt))}}}, &res)
		// ~n/8 chunked lock holds stand between this response and a drained
		// session; these reads land in between and must not block.
		for i := 0; i < 50; i++ {
			var cells CellsResult
			if code := tc.do("GET", "/sessions/"+info.ID+"/cells?at=B42", nil, &cells); code != http.StatusOK {
				t.Fatalf("read during drain: status %d", code)
			}
			if cells.Rev < lastRev {
				t.Fatalf("revision went backwards: %d after %d", cells.Rev, lastRev)
			}
			lastRev = cells.Rev
			if cells.Pending > 0 {
				sawPending = true
				break
			}
		}
	}
	if !sawPending {
		t.Fatal("never observed a read overlapping the background drain")
	}
	// Read-your-writes once the caller asks for it.
	var cells CellsResult
	tc.do("GET", "/sessions/"+info.ID+"/cells?at=B42&wait=1", nil, &cells)
	if cells.Pending != 0 || len(cells.Cells) != 1 || cells.Cells[0].Pending {
		t.Fatalf("after wait: %+v", cells)
	}
}

// TestConcurrentReadersObserveMonotonicRevs runs editors against readers
// (under -race in CI): every reader must see non-decreasing revisions and
// structurally sound responses while background recalculation churns.
func TestConcurrentReadersObserveMonotonicRevs(t *testing.T) {
	_, tc := newTestServer(t, Options{Store: StoreOptions{RecalcChunk: 16}})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "mono"}, &info)
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits", wideBatch(500, 5), nil); code != http.StatusOK {
		t.Fatal("bulk batch failed")
	}

	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			var res EditResult
			if code := tc.do("POST", "/sessions/"+info.ID+"/edits",
				EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(float64(i))}}}, &res); code != http.StatusOK {
				errc <- fmt.Errorf("edit %d: status %d", i, code)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := uint64(0)
			for i := 0; i < iters; i++ {
				var cells CellsResult
				if code := tc.do("GET", "/sessions/"+info.ID+"/cells?range=B1:B20", nil, &cells); code != http.StatusOK {
					errc <- fmt.Errorf("reader %d: status %d", r, code)
					return
				}
				if cells.Rev < last {
					errc <- fmt.Errorf("reader %d: rev regressed %d -> %d", r, last, cells.Rev)
					return
				}
				last = cells.Rev
				for _, c := range cells.Cells {
					if c.Kind != "number" {
						errc <- fmt.Errorf("reader %d: torn cell %+v", r, c)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestEvictionDrainsPendingAndRoundTrips: spilling a session with a pending
// dirty set must drain the recalculation first, so the snapshot holds
// settled values and the spilled session answers reads correctly.
func TestEvictionDrainsPendingAndRoundTrips(t *testing.T) {
	srv, tc := newTestServer(t, Options{Store: StoreOptions{
		Shards: 2, MaxResident: 1, RecalcWorkers: -1,
	}})
	var a SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "victim"}, &a)
	tc.do("POST", "/sessions/"+a.ID+"/edits", EditBatch{Edits: []EditOp{
		{Cell: "A1", Value: num(2)},
		{Cell: "B1", Formula: str("A1*10")},
	}}, nil)
	// Dirty B1; with workers disabled it stays pending.
	var res EditResult
	tc.do("POST", "/sessions/"+a.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(5)}}}, &res)
	if res.Pending != 1 {
		t.Fatalf("edit result = %+v, want 1 pending", res)
	}

	evictNow(t, srv.Store(), a.ID)
	sess, err := srv.Store().lookup(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Resident() {
		t.Fatal("victim still resident")
	}

	// The spilled read serves the drained value — the spill recalculated
	// B1 before writing — with nothing pending.
	var cells CellsResult
	tc.do("GET", "/sessions/"+a.ID+"/cells?at=B1", nil, &cells)
	if cells.Pending != 0 || len(cells.Cells) != 1 || cells.Cells[0].Num != 50 || cells.Cells[0].Pending {
		t.Fatalf("spilled read = %+v, want drained B1=50", cells)
	}
	// And a barrier read agrees.
	cells = CellsResult{}
	tc.do("GET", "/sessions/"+a.ID+"/cells?at=B1&wait=1", nil, &cells)
	if len(cells.Cells) != 1 || cells.Cells[0].Num != 50 {
		t.Fatalf("restored read = %+v", cells)
	}
}

// TestQueryAgainstSpilledSession: dependents/precedents of a non-resident
// session restore it and answer from its compressed graph — the one an
// eviction left pinned, or, for a session a durable store's boot
// re-registered and nothing has faulted in yet (no engine, so no graph to
// pin), the one decoded from its base file.
func TestQueryAgainstSpilledSession(t *testing.T) {
	for _, noPin := range []bool{false, true} {
		t.Run(fmt.Sprintf("noGraphPin=%v", noPin), func(t *testing.T) {
			opts := Options{Store: StoreOptions{
				Shards: 2, MaxResident: 1, SpillDir: t.TempDir(), Durable: noPin, FsyncPolicy: "never",
			}}
			srv, tc := newTestServer(t, opts)
			var a SessionInfo
			tc.do("POST", "/sessions", CreateRequest{Name: "q"}, &a)
			tc.do("POST", "/sessions/"+a.ID+"/edits", EditBatch{Edits: []EditOp{
				{Cell: "A1", Value: num(1)},
				{Cell: "B1", Formula: str("A1*2")},
				{Cell: "C1", Formula: str("B1*2")},
			}}, nil)
			evictNow(t, srv.Store(), a.ID)
			if noPin {
				srv.Close() // the eviction checkpointed q; the restart forgets its graph
				srv, tc = newTestServer(t, opts)
			}

			sess, err := srv.Store().lookup(a.ID)
			if err != nil {
				t.Fatal(err)
			}
			if sess.Resident() {
				t.Fatal("session still resident")
			}
			sess.mu.RLock()
			pinned := sess.graph != nil
			sess.mu.RUnlock()
			if pinned == noPin {
				t.Fatalf("pinned graph present = %v, want %v", pinned, !noPin)
			}
			var q QueryResult
			if code := tc.do("GET", "/sessions/"+a.ID+"/dependents?of=A1", nil, &q); code != http.StatusOK {
				t.Fatalf("query: status %d", code)
			}
			if q.Cells != 2 {
				t.Fatalf("dependents = %+v, want B1+C1", q)
			}
		})
	}
}

// TestStoreWaitDrainsInline exercises the store-level barrier directly.
func TestStoreWaitDrainsInline(t *testing.T) {
	store, err := NewStore(StoreOptions{RecalcWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e := engine.New(nil)
	s := store.Create("w", e)
	err = store.Update(s.ID, true, func(_ *Session, eng *engine.Engine) error {
		eng.SetValue(ref.MustCell("A1"), formula.Num(3))
		if _, err := eng.SetFormula(ref.MustCell("B1"), "A1+1"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pending() == 0 {
		t.Fatal("no pending work recorded")
	}
	if err := store.Wait(s.ID); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after Wait", s.Pending())
	}
	store.View(s.ID, func(_ *Session, eng *engine.Engine) error {
		if v, clean := eng.Peek(ref.MustCell("B1")); !clean || v.Num != 4 {
			t.Fatalf("B1 = %v clean=%v", v, clean)
		}
		return nil
	})
}
