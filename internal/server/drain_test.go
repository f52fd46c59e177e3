package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
)

// buildFanoutSheet populates a two-tier sheet: ten inputs in column A
// fanning out to six 60-cell formula columns, reconverging into a 60-cell
// SUM tier — wide enough for real wavefront levels, deep enough that a
// drain spans several bounded holds.
func buildFanoutSheet(t testing.TB, eng *engine.Engine) {
	t.Helper()
	for r := 1; r <= 10; r++ {
		eng.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
	}
	for col := 3; col <= 8; col++ {
		for r := 1; r <= 60; r++ {
			src := fmt.Sprintf("SUM(A$1:A$10)*%d+%d", col, r)
			if _, err := eng.SetFormula(ref.Ref{Col: col, Row: r}, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 1; r <= 60; r++ {
		if _, err := eng.SetFormula(ref.Ref{Col: 10, Row: r}, fmt.Sprintf("SUM(C%d:H%d)", r, r)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RecalculateAll()
}

// drainBackends names the two graph backends the schedule-invalidation
// stress must hold on: the compressed TACO graph (one-hop precedents off
// compressed edges) and the NoComp mirror.
var drainBackends = map[string]func() engine.Graph{
	"taco":   func() engine.Graph { return nil }, // engine.New defaults to TACO
	"nocomp": func() engine.Graph { return engine.NoComp{G: nocomp.NewGraph()} },
}

// TestEditDuringDrainConverges is the edit-during-drain invalidation proof,
// run under -race in CI: a single writer keeps mutating input cells while
// the background workers drain the resulting wavefronts in short lock holds
// (each edit landing mid-drain invalidates and rebuilds the remaining
// schedule), and concurrent readers hammer the shared-lock read paths the
// whole time. After the final barrier, every cell must be byte-identical to
// a serial engine that applied the same edit sequence — on both graph
// backends.
func TestEditDuringDrainConverges(t *testing.T) {
	for name, mkGraph := range drainBackends {
		t.Run(name, func(t *testing.T) {
			iters := 30
			if testing.Short() {
				iters = 8
			}
			store, err := NewStore(StoreOptions{
				Shards: 2, RecalcWorkers: 2, RecalcChunk: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			eng := engine.New(mkGraph())
			buildFanoutSheet(t, eng)
			id := store.Create("drain", eng).ID

			// The deterministic edit script a serial reference replays.
			type edit struct {
				at ref.Ref
				v  float64
			}
			var script []edit
			for i := 0; i < iters; i++ {
				script = append(script, edit{ref.Ref{Col: 1, Row: 1 + i%10}, float64(i*13 + 7)})
			}

			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // the single writer: edits land between drain holds
				defer wg.Done()
				for _, ed := range script {
					err := store.Update(id, true, func(_ *Session, e *engine.Engine) error {
						e.SetValue(ed.at, formula.Num(ed.v))
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for w := 0; w < 3; w++ { // readers interleave with the drains
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters*4; i++ {
						err := store.View(id, func(_ *Session, e *engine.Engine) error {
							switch i % 3 {
							case 0:
								e.Peek(ref.Ref{Col: 10, Row: 1 + (i+w)%60})
							case 1:
								e.ScanRange(ref.MustRange("C1:J60"), func(ref.Ref, formula.Value, string, bool) bool {
									return true
								})
							default:
								e.Dependents(ref.CellRange(ref.Ref{Col: 1, Row: 1 + (i+w)%10}))
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := store.Wait(id); err != nil {
				t.Fatal(err)
			}

			// Serial reference: same backend, same script, drained serially.
			want := engine.New(mkGraph())
			buildFanoutSheet(t, want)
			for _, ed := range script {
				want.SetValue(ed.at, formula.Num(ed.v))
			}
			want.RecalculateAll()
			err = store.View(id, func(_ *Session, e *engine.Engine) error {
				all := ref.MustRange("A1:J60")
				want.ScanRange(all, func(at ref.Ref, v formula.Value, _ string, _ bool) bool {
					if got := e.Value(at); got != v {
						t.Errorf("%v: store=%v serial=%v", at, got, v)
					}
					return true
				})
				e.ScanRange(all, func(at ref.Ref, v formula.Value, _ string, clean bool) bool {
					if !clean {
						t.Errorf("%v still dirty after barrier", at)
					}
					return true
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDrainGoroutinesBounded: a drain runs on the goroutine that called it,
// so the store's goroutine complement is fixed at NewStore — the count is
// the same before, while and after 32 sessions drain concurrently.
func TestDrainGoroutinesBounded(t *testing.T) {
	store, err := NewStore(StoreOptions{Shards: 2, RecalcWorkers: 2, RecalcChunk: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	want := runtime.NumGoroutine()
	var ids []string
	for i := 0; i < 32; i++ {
		eng := engine.New(nil)
		buildFanoutSheet(t, eng)
		ids = append(ids, store.Create(fmt.Sprintf("s%d", i), eng).ID)
	}
	for _, id := range ids { // dirty every session's whole fanout at once
		err := store.Update(id, true, func(_ *Session, e *engine.Engine) error {
			e.SetValue(ref.Ref{Col: 1, Row: 1}, formula.Num(99))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Only an excess fails: a goroutine left over from an earlier test may
	// still exit while this one runs.
	check := func(when string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > want {
			t.Fatalf("%s: %d goroutines, %d after NewStore: a drain spawned", when, n, want)
		}
	}
	for settled := false; !settled; {
		check("mid-drain")
		settled = true
		for _, id := range ids {
			s, err := store.Peek(id)
			if err != nil {
				t.Fatal(err)
			}
			if s.Pending() > 0 {
				settled = false
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	for _, id := range ids {
		if err := store.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	check("settled")
}

// TestLevelledDrainOnOneCPU: which evaluator a session gets depends on the
// size of its dirty set, never on the host — a default store on a single
// CPU still levels a 200-cell drain.
func TestLevelledDrainOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	store, err := NewStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := engine.New(nil)
	eng.SetValue(ref.MustCell("A1"), formula.Num(2))
	for r := 1; r <= 200; r++ {
		if _, err := eng.SetFormula(ref.Ref{Col: 2, Row: r}, fmt.Sprintf("$A$1*%d", r)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RecalculateAll()
	sess := store.Create("one-cpu", eng)
	builds0 := sessionInfo(sess).Recalc.ScheduleBuilds
	err = store.Update(sess.ID, true, func(_ *Session, e *engine.Engine) error {
		e.SetValue(ref.MustCell("A1"), formula.Num(3))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Wait(sess.ID); err != nil {
		t.Fatal(err)
	}
	if got := sessionInfo(sess).Recalc.ScheduleBuilds; got <= builds0 {
		t.Fatalf("schedule_builds %d -> %d: the drain took the serial path", builds0, got)
	}
	err = store.View(sess.ID, func(_ *Session, e *engine.Engine) error {
		if v := e.Value(ref.Ref{Col: 2, Row: 200}); v.Num != 600 {
			t.Errorf("B200 = %v, want 600", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitTerminatesUnderWritePressure pins the barrier's liveness: Wait
// releases the session lock between chunks (readers interleave), but a
// writer re-dirtying the sheet in those gaps must not be able to starve it
// — a registered waiter fences revision-bumping writes, so Wait drains the
// backlog it found and returns — and the fence must lift when it does: the
// writer makes progress again.
func TestWaitTerminatesUnderWritePressure(t *testing.T) {
	store, err := NewStore(StoreOptions{RecalcWorkers: -1, RecalcChunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := engine.New(nil)
	buildFanoutSheet(t, eng)
	id := store.Create("pressure", eng).ID
	if err := store.Update(id, true, func(_ *Session, e *engine.Engine) error {
		e.SetValue(ref.Ref{Col: 1, Row: 1}, formula.Num(1))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // re-dirties the whole fanout in every between-hold gap
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			err := store.Update(id, true, func(_ *Session, e *engine.Engine) error {
				e.SetValue(ref.Ref{Col: 1, Row: 1 + i%10}, formula.Num(float64(i)))
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			writes.Add(1)
		}
	}()
	done := make(chan error, 1)
	go func() { done <- store.Wait(id) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait starved by a concurrent writer")
	}
	for n, deadline := writes.Load(), time.Now().Add(30*time.Second); writes.Load() <= n+1; {
		if time.Now().After(deadline) {
			t.Fatal("the writer made no progress after Wait returned: the fence did not lift")
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
}

// TestStatsExposeScheduler: the store stats report the drain queue, and
// session stats carry the engine's scheduler snapshot.
func TestStatsExposeScheduler(t *testing.T) {
	store, err := NewStore(StoreOptions{RecalcWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := engine.New(nil)
	buildFanoutSheet(t, eng)
	sess := store.Create("stats", eng)
	err = store.Update(sess.ID, true, func(_ *Session, e *engine.Engine) error {
		e.SetValue(ref.Ref{Col: 1, Row: 2}, formula.Num(17))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info := sessionInfo(sess)
	if info.Recalc == nil || info.Recalc.Pending == 0 {
		t.Fatalf("session stats carry no pending scheduler state: %+v", info.Recalc)
	}
	st := store.Stats()
	if st.DrainsInFlight != 0 {
		t.Fatalf("drains_in_flight = %d with workers disabled", st.DrainsInFlight)
	}
	if err := store.Wait(sess.ID); err != nil {
		t.Fatal(err)
	}
	info = sessionInfo(sess)
	if info.Recalc == nil || info.Recalc.Pending != 0 {
		t.Fatalf("settled session still reports pending: %+v", info.Recalc)
	}
	if info.Recalc.LevelsDrained == 0 || info.Recalc.ScheduleBuilds == 0 {
		t.Fatalf("drain left no scheduler trace: %+v", info.Recalc)
	}
}

// TestWaitHoldsStayBoundedOnTheWalk: Wait drains a walk in holds of at most
// RecalcChunk evaluations to the end — a look-down chain on a pinned engine,
// and a mirrored zig-zag whose levelled drain stalls at once — even though the
// walk runs more evaluations than there are cells (a retry per chain link):
// Wait makes exactly the RecalculateN calls a loop over a copy of the engine
// makes, every one a bounded hold.
func TestWaitHoldsStayBoundedOnTheWalk(t *testing.T) {
	const rows, chunk = 20000, 256
	for _, tc := range []struct {
		name string
		srcs map[int]string // column → formula of row %[1]d, %[2]d the row below
		pin  bool
	}{
		{"look-down chain", map[int]string{1: "A%[2]d+$B$1"}, true},
		{"mirrored zig-zag", map[int]string{3: "D%[2]d+A%[1]d+$B$1", 4: "C%[1]d+A%[1]d"}, false},
	} {
		srcs := tc.srcs
		t.Run(tc.name, func(t *testing.T) {
			build := func() *engine.Engine {
				pcells := []engine.ParsedCell{{At: ref.MustCell("B1"), Value: formula.Num(1)}}
				for r := 1; r <= rows/len(srcs); r++ {
					if !tc.pin {
						pcells = append(pcells, engine.ParsedCell{At: ref.Ref{Col: 1, Row: r}, Value: formula.Num(float64(r))})
					}
					for col, f := range srcs {
						src := fmt.Sprintf(f, r, r+1)
						pcells = append(pcells, engine.ParsedCell{At: ref.Ref{Col: col, Row: r}, Shape: formula.MustParseShape(src, ref.Ref{Col: col, Row: r})})
					}
				}
				e := engine.LoadBulkParsed(pcells)
				if tc.pin {
					e.SetSerial(true)
				}
				return e
			}
			edit := func(e *engine.Engine) { e.SetValue(ref.MustCell("B1"), formula.Num(2)) }
			loop := build()
			edit(loop)
			calls := 0
			for ; loop.Pending() > 0; calls++ {
				loop.RecalculateN(chunk)
			}
			store, err := NewStore(StoreOptions{RecalcWorkers: -1, RecalcChunk: chunk})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			id := store.Create(tc.name, build()).ID
			if err := store.Update(id, true, func(_ *Session, e *engine.Engine) error { edit(e); return nil }); err != nil {
				t.Fatal(err)
			}
			_, _, holds0 := mDrainHold.Snapshot()
			if err := store.Wait(id); err != nil {
				t.Fatal(err)
			}
			if _, _, holds := mDrainHold.Snapshot(); int(holds-holds0) != calls {
				t.Fatalf("Wait drained in %d holds; a RecalculateN(%d) loop takes %d calls", holds-holds0, chunk, calls)
			}
		})
	}
}

// ledgerEngine bulk-loads a ledger of the given height: A and B data, C =
// A*B*$H$1, D a running sum of C restarted every 256 rows, H1 the rate — so a
// rate edit dirties two whole columns.
func ledgerEngine(rows int) *engine.Engine {
	cells := []engine.ParsedCell{{At: ref.MustCell("H1"), Value: formula.Num(1.05)}}
	form := func(at ref.Ref, src string) {
		cells = append(cells, engine.ParsedCell{At: at, Shape: formula.MustParseShape(src, at)})
	}
	for r := 1; r <= rows; r++ {
		cells = append(cells,
			engine.ParsedCell{At: ref.Ref{Col: 1, Row: r}, Value: formula.Num(float64(r%997) + 0.5)},
			engine.ParsedCell{At: ref.Ref{Col: 2, Row: r}, Value: formula.Num(float64(r%89) + 0.25)})
		form(ref.Ref{Col: 3, Row: r}, fmt.Sprintf("A%d*B%d*$H$1", r, r))
		if (r-1)%256 == 0 {
			form(ref.Ref{Col: 4, Row: r}, fmt.Sprintf("C%d", r))
		} else {
			form(ref.Ref{Col: 4, Row: r}, fmt.Sprintf("D%d+C%d", r-1, r))
		}
	}
	return engine.LoadBulkParsed(cells)
}

// rateEdit sets the ledger's rate, dirtying every C and D cell.
func rateEdit(store *Store, id string, v float64) error {
	return store.Update(id, true, func(_ *Session, e *engine.Engine) error {
		e.SetValue(ref.MustCell("H1"), formula.Num(v))
		return nil
	})
}

// TestOneDrainerPerSession: one goroutine at a time owns a session's drain.
// Two workers and four concurrent Wait barriers settle one rate edit on a
// 20 000-row ledger in 8-evaluation chunks, while a sampler watches how many
// goroutines are inside drainChunk — the store holds this one session, so
// the store-wide count is the session's — and that never exceeds one: a
// waiter sleeps through a running chunk, and a worker popping a session a
// waiter owns ends its turn. Every Wait settles the session.
func TestOneDrainerPerSession(t *testing.T) {
	const rows = 20000
	store, err := NewStore(StoreOptions{RecalcWorkers: 2, RecalcChunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.Create("ledger", ledgerEngine(rows))
	if err := rateEdit(store, sess.ID, 1.25); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	sampled := make(chan int64)
	go func() {
		peak := int64(0)
		for !done.Load() {
			peak = max(peak, store.drainsInFlight.Load())
			runtime.Gosched()
		}
		sampled <- peak
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := store.Wait(sess.ID); err != nil {
				t.Error(err)
			}
			if n := sess.Pending(); n != 0 {
				t.Errorf("Wait returned with %d cells pending", n)
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	if peak := <-sampled; peak > 1 {
		t.Fatalf("%d goroutines inside drainChunk on one session at once", peak)
	}

	want := ledgerEngine(rows)
	want.SetValue(ref.MustCell("H1"), formula.Num(1.25))
	want.RecalculateAll()
	last := ref.Ref{Col: 4, Row: rows}
	err = store.View(sess.ID, func(_ *Session, e *engine.Engine) error {
		if got, w := e.Value(last), want.Value(last); got != w {
			t.Errorf("%v = %v, want %v", last, got, w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitRegistered polls until n Wait barriers are registered on s.
func waitRegistered(t *testing.T, s *Session, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.RLock()
		got := s.waiters
		s.mu.RUnlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters registered, want %d", got, n)
		}
	}
}

// TestWaitSleepingWaiterSeesDelete: a waiter asleep behind another owner's
// chunk re-checks the session at that chunk's end and returns
// ErrSessionDeleted when the session went away meanwhile.
func TestWaitSleepingWaiterSeesDelete(t *testing.T) {
	store, err := NewStore(StoreOptions{RecalcWorkers: -1, RecalcChunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.Create("deleted", ledgerEngine(1000))
	if err := rateEdit(store, sess.ID, 2); err != nil {
		t.Fatal(err)
	}
	// The test owns the drain, standing in for a worker mid-chunk.
	sess.mu.Lock()
	sess.draining = true
	sess.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- store.Wait(sess.ID) }()
	waitRegistered(t, sess, 1)
	if err := store.Delete(sess.ID); err != nil {
		t.Fatal(err)
	}
	store.drainChunk(sess, false) // the owner's chunk ends
	select {
	case err := <-done:
		if !errors.Is(err, ErrSessionDeleted) {
			t.Fatalf("Wait = %v, want ErrSessionDeleted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait still asleep after the session was deleted")
	}
}

// TestWaitSettlesAcrossClose: Close runs while a waiter sleeps behind
// another owner's chunk; at that chunk's end the waiter finds no worker
// left, takes the drain and settles the session itself.
func TestWaitSettlesAcrossClose(t *testing.T) {
	store, err := NewStore(StoreOptions{RecalcWorkers: 2, RecalcChunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.Create("closing", ledgerEngine(20000))
	// The test owns the drain before the edit queues the session, so a
	// worker popping it ends its turn and the waiter below must sleep.
	sess.mu.Lock()
	sess.draining = true
	sess.mu.Unlock()
	if err := rateEdit(store, sess.ID, 3); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- store.Wait(sess.ID) }()
	waitRegistered(t, sess, 1)
	store.Close()
	store.drainChunk(sess, false) // the owner's chunk ends
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Wait did not return after Close")
	}
	if n := sess.Pending(); n != 0 {
		t.Fatalf("Wait returned across Close with %d cells pending", n)
	}
}
