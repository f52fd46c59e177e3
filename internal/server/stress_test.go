package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"taco/internal/core"
	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/workload"
)

// TestRaceStress drives both concurrency layers at once under the race
// detector: raw SafeGraph readers/writers, and the session store cycling
// sessions through edit/query/spill/restore. Run with -race (the CI default) to make it a
// synchronisation proof rather than just a load test.
func TestRaceStress(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	var wg sync.WaitGroup

	// Layer 1: SafeGraph — concurrent AddDependency/Clear against
	// FindDependents/FindPrecedents/Stats.
	sg := core.NewSafeGraph(core.DefaultOptions())
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				dep := ref.Ref{Col: 2 + w, Row: 1 + i}
				sg.AddDependency(core.Dependency{
					Prec: ref.CellRange(ref.Ref{Col: 1, Row: 1 + i}),
					Dep:  dep,
				})
				if i%7 == 0 {
					sg.Clear(ref.CellRange(dep))
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sg.FindDependents(ref.CellRange(ref.Ref{Col: 1, Row: 1 + i}))
				sg.FindPrecedents(ref.CellRange(ref.Ref{Col: 2 + w, Row: 1 + i}))
				sg.Stats()
			}
		}(w)
	}

	// Layer 2: the session store — mixed batched edits, value reads, and
	// dependent queries across sessions cycling through spill/restore.
	store, err := NewStore(StoreOptions{Shards: 4, MaxResident: 3, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var ids []string
	for i := 0; i < 8; i++ {
		sheet, err := workload.BuildScenario("financial", 25, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.LoadBulk(sheet)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, store.Create(fmt.Sprintf("stress%d", i), e).ID)
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < iters; i++ {
				id := ids[rng.Intn(len(ids))]
				switch i % 3 {
				case 0:
					err := store.Update(id, true, func(_ *Session, e *engine.Engine) error {
						e.SetValue(ref.Ref{Col: 2, Row: 1 + rng.Intn(25)}, workloadNum(rng))
						e.RecalculateAll()
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				case 1:
					// Value reads are side-effect-free: they run under the
					// shared read lock, racing the background recalc workers.
					err := store.View(id, func(_ *Session, e *engine.Engine) error {
						e.Peek(ref.Ref{Col: 5, Row: 1 + rng.Intn(25)})
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				case 2:
					err := store.View(id, func(_ *Session, e *engine.Engine) error {
						e.Dependents(ref.CellRange(ref.Ref{Col: 2, Row: 1 + rng.Intn(25)}))
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	wg.Wait()
	if err := sg.Check(); err != nil {
		t.Fatalf("SafeGraph invariants violated after stress: %v", err)
	}
	st := store.Stats()
	if st.Resident > 3 {
		t.Fatalf("resident = %d exceeds cap", st.Resident)
	}
	if v := ringViolation(store); v != "" {
		t.Fatalf("eviction ring after stress: %s", v)
	}
	if st.Evictions == 0 || st.Restores == 0 {
		t.Fatalf("stress produced no spill traffic: %+v", st)
	}
}

func workloadNum(rng *rand.Rand) formula.Value { return formula.Num(float64(rng.Intn(10000))) }

// TestWavefrontDrainReadStress hammers value reads, range scans, and graph
// queries against sessions whose dirty sets are being drained by the
// levelled scheduler on the store's drain workers. A drain runs strictly
// inside the session write lock, so under -race this proves the bounded
// lock holds and the read paths' side-effect freedom compose: readers
// never observe a torn value and never race a drain.
func TestWavefrontDrainReadStress(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 10
	}
	store, err := NewStore(StoreOptions{Shards: 2, RecalcWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// One wide sheet: a shared input column fanning out to hundreds of
	// formulas, so every edit dirties a set large enough for the levelled
	// path.
	eng := engine.New(nil)
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
	// A second tier so every drain has at least two levels.
	for r := 1; r <= 60; r++ {
		if _, err := eng.SetFormula(ref.Ref{Col: 10, Row: r}, fmt.Sprintf("SUM(C%d:H%d)", r, r)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RecalculateAll()
	id := store.Create("wavefront", eng).ID

	var wg sync.WaitGroup
	// Writers: value edits that dirty the whole fan-out, handed to the
	// background pool (which drains via the wavefront scheduler).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for i := 0; i < iters; i++ {
				err := store.Update(id, true, func(_ *Session, e *engine.Engine) error {
					e.SetValue(ref.Ref{Col: 1, Row: 1 + rng.Intn(10)}, workloadNum(rng))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers: point reads, columnar range scans, and graph traversals under
	// the shared read lock, interleaving with the drains.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + w)))
			for i := 0; i < iters*4; i++ {
				err := store.View(id, func(_ *Session, e *engine.Engine) error {
					switch i % 3 {
					case 0:
						e.Peek(ref.Ref{Col: 10, Row: 1 + rng.Intn(60)})
					case 1:
						e.ScanRange(ref.MustRange("C1:J60"), func(ref.Ref, formula.Value, string, bool) bool {
							return true
						})
					default:
						e.Dependents(ref.CellRange(ref.Ref{Col: 1, Row: 1 + rng.Intn(10)}))
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
	// After the barrier every value is settled and consistent: each tier-2
	// cell must equal the sum of its row across the fan-out columns.
	err = store.View(id, func(_ *Session, e *engine.Engine) error {
		var a float64
		for r := 1; r <= 10; r++ {
			a += e.Value(ref.Ref{Col: 1, Row: r}).Num
		}
		for r := 1; r <= 60; r++ {
			want := 0.0
			for col := 3; col <= 8; col++ {
				want += a*float64(col) + float64(r)
			}
			if got := e.Value(ref.Ref{Col: 10, Row: r}).Num; got != want {
				t.Errorf("J%d = %v, want %v", r, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
