package taco_test

// End-to-end integration tests crossing every subsystem the way a release
// user would: generate a workload, persist it as .xlsx, reopen each sheet as
// a live engine, edit through the async engine, snapshot the compressed graph,
// and reload it — verifying values and dependency answers at each step.

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"taco"
	"taco/internal/engine"
	"taco/internal/nocomp"
	"taco/internal/workload"
)

func TestEndToEndScenarioPipeline(t *testing.T) {
	for _, name := range workload.ScenarioNames {
		name := name
		t.Run(name, func(t *testing.T) {
			sheet, err := workload.BuildScenario(name, 40, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}

			// 1. Persist as xlsx (with shared formulas) and reopen.
			path := filepath.Join(t.TempDir(), name+".xlsx")
			if err := taco.WriteXLSX(path, []*taco.Sheet{sheet}, true); err != nil {
				t.Fatal(err)
			}
			sheets, err := taco.ReadXLSX(path)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			var eng *taco.Engine
			for _, s := range sheets {
				names = append(names, s.Name)
				if s.Name == name {
					if eng, err = taco.LoadEngine(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			if eng == nil {
				t.Fatalf("sheet %q missing; names=%v", name, names)
			}

			// 2. The reopened sheet computes the same values as loading
			// the sheet directly.
			direct, err := taco.LoadEngine(sheet)
			if err != nil {
				t.Fatal(err)
			}
			for at := range sheet.Cells {
				a, b := eng.Value(at), direct.Value(at)
				if a.String() != b.String() {
					t.Fatalf("cell %v: xlsx path %v vs direct %v", at, a, b)
				}
			}

			// 3. The TACO graph and a NoComp graph agree on dependency
			// queries over the file-parsed sheet.
			deps := sheet.MustDependencies()
			tg := taco.BuildGraph(deps, taco.DefaultOptions())
			ng := nocomp.Build(deps)
			seed := taco.MustRange("A1")
			if taco.CountCells(tg.FindDependents(seed)) != taco.CountCells(ng.FindDependents(seed)) {
				t.Fatalf("dependents disagree from %v", seed)
			}

			// 4. Snapshot the compressed graph and reload it; queries match.
			var buf bytes.Buffer
			if err := tg.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := taco.ReadGraphSnapshot(&buf, taco.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if taco.CountCells(loaded.FindDependents(seed)) != taco.CountCells(tg.FindDependents(seed)) {
				t.Fatal("snapshot round trip changed query results")
			}
		})
	}
}

func TestEndToEndAsyncEditing(t *testing.T) {
	sheet := workload.InventoryTracker(200, rand.New(rand.NewSource(4)))
	eng, err := taco.LoadEngine(sheet)
	if err != nil {
		t.Fatal(err)
	}

	stockEnd := taco.Ref{Col: 4, Row: 200}
	before := eng.Value(stockEnd)

	// Control returns with the dirty set identified and nothing evaluated:
	// the cell reads its last value, flagged pending.
	dirty := eng.SetValue(taco.Ref{Col: 2, Row: 1}, taco.Num(10000))
	if taco.CountCells(dirty) < 200 {
		t.Fatalf("dirty = %d cells", taco.CountCells(dirty))
	}
	if stale, clean := eng.Peek(stockEnd); clean || stale != before {
		t.Fatalf("before recalculation: %v clean=%v, want %v pending", stale, clean, before)
	}
	eng.RecalculateAll()
	after, clean := eng.Peek(stockEnd)
	if !clean {
		t.Fatal("recalculation left the cell pending")
	}
	if after.Num == before.Num {
		t.Fatalf("edit did not propagate: %v", after)
	}
	// The chain arithmetic is exact: +10000 minus the original B1.
	origB1 := sheet.Cells[taco.MustCell("B1")].Value.Num
	if diff := after.Num - before.Num; diff != 10000-origB1 {
		t.Fatalf("stock delta = %v, want %v", diff, 10000-origB1)
	}
}

func TestEndToEndCorpusThroughEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pipeline is slow")
	}
	sheets := workload.Generate(workload.CorpusSpec{
		Name: "it", Sheets: 2, MedianRows: 80, MaxRows: 150, Seed: 31, MessyFraction: 0.1,
	})
	path := filepath.Join(t.TempDir(), "corpus.xlsx")
	if err := taco.WriteXLSX(path, sheets, true); err != nil {
		t.Fatal(err)
	}
	read, err := taco.ReadXLSX(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(read) != 2 {
		t.Fatalf("sheets = %d", len(read))
	}
	for _, s := range read {
		eng, err := taco.LoadEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := eng.GraphStats(); st.Edges == 0 || st.Edges >= st.Dependencies {
			t.Fatalf("sheet %s poorly compressed: %+v", s.Name, st)
		}
	}
}

func TestEngineGraphBackendsInterchangeable(t *testing.T) {
	// The engine produces identical spreadsheets regardless of graph
	// backend — TACO is a drop-in replacement, the paper's integration
	// claim.
	sheet := workload.FinancialModel(36, rand.New(rand.NewSource(2)))
	withTACO, err := engine.Load(sheet, nil)
	if err != nil {
		t.Fatal(err)
	}
	withNoComp, err := engine.Load(sheet, engine.NoComp{G: nocomp.NewGraph()})
	if err != nil {
		t.Fatal(err)
	}
	edit := taco.MustCell("B7")
	withTACO.SetValue(edit, taco.Num(1234))
	withNoComp.SetValue(edit, taco.Num(1234))
	withTACO.RecalculateAll()
	withNoComp.RecalculateAll()
	for at := range sheet.Cells {
		a, b := withTACO.Value(at), withNoComp.Value(at)
		if a.String() != b.String() {
			t.Fatalf("cell %v: %v vs %v", at, a, b)
		}
	}
}
