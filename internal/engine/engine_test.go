package engine

import (
	"maps"
	"math/rand"
	"testing"

	"taco/internal/core"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/workload"
)

func newTACO() *Engine { return New(nil) }

func TestSetValueAndFormula(t *testing.T) {
	e := newTACO()
	e.SetValue(ref.MustCell("A1"), formula.Num(2))
	e.SetValue(ref.MustCell("A2"), formula.Num(3))
	if _, err := e.SetFormula(ref.MustCell("B1"), "SUM(A1:A2)*10"); err != nil {
		t.Fatal(err)
	}
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("B1")); v.Num != 50 {
		t.Fatalf("B1 = %v", v)
	}
}

func TestUpdatePropagates(t *testing.T) {
	e := newTACO()
	e.SetValue(ref.MustCell("A1"), formula.Num(1))
	if _, err := e.SetFormula(ref.MustCell("B1"), "A1+1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("C1"), "B1+1"); err != nil {
		t.Fatal(err)
	}
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("C1")); v.Num != 3 {
		t.Fatalf("C1 = %v", v)
	}
	// The asynchronous model: the dirty set returns before evaluation.
	dirty := e.SetValue(ref.MustCell("A1"), formula.Num(10))
	if core.CountCells(dirty) != 2 {
		t.Fatalf("dirty = %v", dirty)
	}
	if !e.Dirty(ref.MustCell("C1")) {
		t.Fatal("C1 should be dirty before recalculation")
	}
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("C1")); v.Num != 12 {
		t.Fatalf("C1 after update = %v", v)
	}
	if e.Dirty(ref.MustCell("C1")) {
		t.Fatal("C1 still dirty after recalculation")
	}
}

func TestReadsAreSideEffectFree(t *testing.T) {
	e := newTACO()
	e.SetValue(ref.MustCell("A1"), formula.Num(1))
	if _, err := e.SetFormula(ref.MustCell("B1"), "A1*2"); err != nil {
		t.Fatal(err)
	}
	e.RecalculateAll()
	e.SetValue(ref.MustCell("A1"), formula.Num(5))
	// Reads never evaluate: a dirty cell keeps returning its stale value
	// (flagged by Peek/Dirty) until an explicit recalculation drains it —
	// which is what makes reads safe under a shared read lock.
	if v := e.Value(ref.MustCell("B1")); v.Num != 2 {
		t.Fatalf("stale B1 = %v, want 2", v)
	}
	if v, clean := e.Peek(ref.MustCell("B1")); clean || v.Num != 2 {
		t.Fatalf("Peek B1 = %v clean=%v, want stale 2", v, clean)
	}
	if !e.Dirty(ref.MustCell("B1")) || e.Pending() != 1 {
		t.Fatalf("B1 dirty=%v pending=%d", e.Dirty(ref.MustCell("B1")), e.Pending())
	}
	e.RecalculateAll()
	if v, clean := e.Peek(ref.MustCell("B1")); !clean || v.Num != 10 {
		t.Fatalf("B1 after recalc = %v clean=%v", v, clean)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestRecalculateNDrainsInChunks(t *testing.T) {
	e := newTACO()
	e.SetValue(ref.MustCell("A1"), formula.Num(1))
	for row := 1; row <= 40; row++ {
		at := ref.Ref{Col: 2, Row: row}
		if _, err := e.SetFormula(at, "$A$1*2"); err != nil {
			t.Fatal(err)
		}
	}
	e.RecalculateAll()
	e.SetValue(ref.MustCell("A1"), formula.Num(3))
	if e.Pending() != 40 {
		t.Fatalf("pending = %d, want 40", e.Pending())
	}
	steps := 0
	for e.Pending() > 0 {
		if n := e.RecalculateN(8); n == 0 {
			t.Fatal("RecalculateN made no progress")
		}
		steps++
		if steps > 40 {
			t.Fatal("RecalculateN failed to converge")
		}
	}
	if steps < 2 {
		t.Fatalf("expected multiple chunks, got %d", steps)
	}
	if v := e.Value(ref.Ref{Col: 2, Row: 17}); v.Num != 6 {
		t.Fatalf("B17 = %v", v)
	}
}

func TestLoadBulkParsedDuplicateRefsLaterWins(t *testing.T) {
	// A formula overwritten by a value at the same ref: the later cell wins
	// and no stale formula survives in the index or the dirty set.
	e := LoadBulkParsed([]ParsedCell{
		{At: ref.MustCell("A1"), Value: formula.Num(3)},
		{At: ref.MustCell("B1"), Shape: formula.MustParseShape("A1*2", ref.MustCell("B1"))},
		{At: ref.MustCell("B1"), Value: formula.Num(7)},
	})
	if e.NumCells() != 2 || e.NumFormulas() != 0 || e.Pending() != 0 {
		t.Fatalf("cells=%d formulas=%d pending=%d", e.NumCells(), e.NumFormulas(), e.Pending())
	}
	if v := e.Value(ref.MustCell("B1")); v.Num != 7 {
		t.Fatalf("B1 = %v", v)
	}
	// And no dangling dependency fires on edits to A1.
	if dirty := e.SetValue(ref.MustCell("A1"), formula.Num(9)); core.CountCells(dirty) != 0 {
		t.Fatalf("stale dependency: %v", dirty)
	}
}

func TestFormulaReplacementRewiresGraph(t *testing.T) {
	e := newTACO()
	e.SetValue(ref.MustCell("A1"), formula.Num(1))
	e.SetValue(ref.MustCell("A2"), formula.Num(100))
	if _, err := e.SetFormula(ref.MustCell("B1"), "A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("B1"), "A2"); err != nil {
		t.Fatal(err)
	}
	// A1 no longer has dependents.
	if dirty := e.SetValue(ref.MustCell("A1"), formula.Num(2)); core.CountCells(dirty) != 0 {
		t.Fatalf("stale dependency: %v", dirty)
	}
	if dirty := e.SetValue(ref.MustCell("A2"), formula.Num(7)); core.CountCells(dirty) != 1 {
		t.Fatalf("missing dependency: %v", dirty)
	}
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("B1")); v.Num != 7 {
		t.Fatalf("B1 = %v", v)
	}
}

func TestClearCell(t *testing.T) {
	e := newTACO()
	e.SetValue(ref.MustCell("A1"), formula.Num(1))
	if _, err := e.SetFormula(ref.MustCell("B1"), "A1"); err != nil {
		t.Fatal(err)
	}
	e.ClearCell(ref.MustCell("B1"))
	if e.NumCells() != 1 {
		t.Fatalf("cells = %d", e.NumCells())
	}
	if dirty := e.SetValue(ref.MustCell("A1"), formula.Num(2)); core.CountCells(dirty) != 0 {
		t.Fatalf("dirty after clear = %v", dirty)
	}
}

func TestCycleDetection(t *testing.T) {
	e := newTACO()
	if _, err := e.SetFormula(ref.MustCell("A1"), "B1+1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("B1"), "A1+1"); err != nil {
		t.Fatal(err)
	}
	e.RecalculateAll()
	v := e.Value(ref.MustCell("A1"))
	if !v.IsError() {
		t.Fatalf("cycle value = %v, want error", v)
	}
}

func TestLoadFromSheetTACOAndNoCompAgree(t *testing.T) {
	s := workload.GenerateSheet("t", 60, 0.05, rand.New(rand.NewSource(8)))
	a, err := Load(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(s, NoComp{G: nocomp.NewGraph()})
	if err != nil {
		t.Fatal(err)
	}
	for at := range s.Cells {
		va, vb := a.Value(at), b.Value(at)
		if va.String() != vb.String() {
			t.Fatalf("cell %v: taco %v vs nocomp %v", at, va, vb)
		}
	}
	// An update must produce the same dirty cells and final values.
	target := ref.MustCell("B5")
	da := a.SetValue(target, formula.Num(999))
	db := b.SetValue(target, formula.Num(999))
	if core.CountCells(da) != core.CountCells(db) {
		t.Fatalf("dirty sets differ: %d vs %d", core.CountCells(da), core.CountCells(db))
	}
	a.RecalculateAll()
	b.RecalculateAll()
	for at := range s.Cells {
		va, vb := a.Value(at), b.Value(at)
		if va.String() != vb.String() {
			t.Fatalf("after update, cell %v: taco %v vs nocomp %v", at, va, vb)
		}
	}
}

func TestFig2Evaluation(t *testing.T) {
	// End-to-end over the paper's Fig. 2 column: grouped running totals.
	s := workload.NewSheet("fig2")
	keys := []string{"", "x", "x", "x", "y", "y", "z"}
	vals := []float64{0, 10, 20, 30, 5, 5, 1}
	for i := 2; i <= 7; i++ {
		s.SetText(ref.Ref{Col: 1, Row: i}, keys[i-1])
		s.SetValue(ref.Ref{Col: 13, Row: i}, vals[i-1])
	}
	s.AddFig2Column(1, 13, 14, 7)
	e, err := Load(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// N4 = 10+20+30 = 60 (third x row), N6 = 5+5 = 10, N7 = 1.
	if v := e.Value(ref.Ref{Col: 14, Row: 4}); v.Num != 60 {
		t.Fatalf("N4 = %v", v)
	}
	if v := e.Value(ref.Ref{Col: 14, Row: 6}); v.Num != 10 {
		t.Fatalf("N6 = %v", v)
	}
	if v := e.Value(ref.Ref{Col: 14, Row: 7}); v.Num != 1 {
		t.Fatalf("N7 = %v", v)
	}
	// Editing M3 dirties the rest of the group chain.
	dirty := e.SetValue(ref.Ref{Col: 13, Row: 3}, formula.Num(200))
	if core.CountCells(dirty) < 2 {
		t.Fatalf("dirty = %v", dirty)
	}
	e.RecalculateAll()
	if v := e.Value(ref.Ref{Col: 14, Row: 4}); v.Num != 240 {
		t.Fatalf("N4 after edit = %v", v)
	}
}

func TestPrecedentsExposed(t *testing.T) {
	e := newTACO()
	e.SetValue(ref.MustCell("A1"), formula.Num(1))
	if _, err := e.SetFormula(ref.MustCell("B1"), "A1*2"); err != nil {
		t.Fatal(err)
	}
	precs := e.Precedents(ref.MustRange("B1"))
	if core.CountCells(precs) != 1 || precs[0] != ref.MustRange("A1") {
		t.Fatalf("precedents = %v", precs)
	}
	deps := e.Dependents(ref.MustRange("A1"))
	if core.CountCells(deps) != 1 {
		t.Fatalf("dependents = %v", deps)
	}
}

func TestFormulaSourceAccessor(t *testing.T) {
	e := newTACO()
	if _, err := e.SetFormula(ref.MustCell("B1"), "1+1"); err != nil {
		t.Fatal(err)
	}
	if e.Formula(ref.MustCell("B1")) != "1+1" {
		t.Fatalf("formula = %q", e.Formula(ref.MustCell("B1")))
	}
	if e.Formula(ref.MustCell("Z9")) != "" {
		t.Fatal("missing cell formula should be empty")
	}
	if _, err := e.SetFormula(ref.MustCell("B2"), "SUM("); err == nil {
		t.Fatal("want parse error")
	}
}

// TestLoadBuildsAlg2Graph: Load registers a sheet's dependencies through
// Alg. 2 in column-major order, reading them off the interned shapes, so its
// graph is core.Build's over the sheet's parsed dependency list — the same
// edge count, pattern by pattern — on the four scenarios and on both
// synthetic corpora at a small scale.
func TestLoadBuildsAlg2Graph(t *testing.T) {
	var sheets []*workload.Sheet
	for _, name := range workload.ScenarioNames {
		s, err := workload.BuildScenario(name, 60, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		sheets = append(sheets, s)
	}
	sheets = append(sheets, workload.Generate(workload.EnronSpec(0.01))...)
	sheets = append(sheets, workload.Generate(workload.GithubSpec(0.01))...)
	for _, s := range sheets {
		e, err := Load(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, want := e.TACOGraph(), core.Build(s.MustDependencies(), core.DefaultOptions())
		if got.NumEdges() != want.NumEdges() || !maps.Equal(got.PatternStats(), want.PatternStats()) {
			t.Errorf("%s: Load's graph has %d edges %v, Alg. 2 over the sheet's dependencies %d %v",
				s.Name, got.NumEdges(), got.PatternStats(), want.NumEdges(), want.PatternStats())
		}
	}
}
