package workload

import (
	"math/rand"
	"testing"

	"taco/internal/core"
	"taco/internal/nocomp"
	"taco/internal/ref"
)

func TestFillDownCreatesRRRun(t *testing.T) {
	s := NewSheet("t")
	s.AddDataColumn(1, 20, rand.New(rand.NewSource(1)))
	s.AddSlidingWindow(2, 1, 3, 20)
	deps := s.MustDependencies()
	g := core.Build(deps, core.DefaultOptions())
	st := g.PatternStats()
	if st[core.RR].Edges != 1 {
		t.Fatalf("stats = %+v, want one RR edge", st)
	}
	if st[core.RR].Reduced != len(deps)-1 {
		t.Fatalf("reduced = %d, want %d", st[core.RR].Reduced, len(deps)-1)
	}
}

func TestRunningTotalIsFR(t *testing.T) {
	s := NewSheet("t")
	s.AddDataColumn(1, 15, rand.New(rand.NewSource(1)))
	s.AddRunningTotal(2, 1, 15)
	g := core.Build(s.MustDependencies(), core.DefaultOptions())
	if st := g.PatternStats(); st[core.FR].Edges != 1 {
		t.Fatalf("stats = %+v, want one FR edge", st)
	}
}

func TestReverseTotalIsRF(t *testing.T) {
	s := NewSheet("t")
	s.AddDataColumn(1, 15, rand.New(rand.NewSource(1)))
	s.AddReverseTotal(2, 1, 15)
	g := core.Build(s.MustDependencies(), core.DefaultOptions())
	if st := g.PatternStats(); st[core.RF].Edges != 1 {
		t.Fatalf("stats = %+v, want one RF edge", st)
	}
}

func TestFixedLookupIsFF(t *testing.T) {
	s := NewSheet("t")
	s.AddDataColumn(1, 15, rand.New(rand.NewSource(1)))
	s.SetValue(ref.MustCell("Z1"), 2.5)
	s.AddFixedLookup(2, 1, ref.MustCell("Z1"), 15)
	g := core.Build(s.MustDependencies(), core.DefaultOptions())
	st := g.PatternStats()
	// One FF run (the rate) and one in-row RR run (the source column).
	if st[core.FF].Edges != 1 || st[core.RR].Edges != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChainIsRRChain(t *testing.T) {
	s := NewSheet("t")
	s.AddDataColumn(1, 25, rand.New(rand.NewSource(1)))
	s.AddChain(2, 1, 25)
	g := core.Build(s.MustDependencies(), core.DefaultOptions())
	if st := g.PatternStats(); st[core.RRChain].Edges != 1 {
		t.Fatalf("stats = %+v, want one RR-Chain edge", st)
	}
}

func TestFig2ColumnCompresses(t *testing.T) {
	s := NewSheet("t")
	rng := rand.New(rand.NewSource(1))
	s.AddDataColumn(1, 40, rng)
	s.AddDataColumn(2, 40, rng)
	s.AddFig2Column(1, 2, 3, 40)
	deps := s.MustDependencies()
	g := core.Build(deps, core.DefaultOptions())
	if g.NumEdges() > 8 {
		t.Fatalf("fig2 column edges = %d (deps %d)", g.NumEdges(), len(deps))
	}
}

func TestFillRight(t *testing.T) {
	s := NewSheet("t")
	for c := 1; c <= 10; c++ {
		s.SetValue(ref.Ref{Col: c, Row: 1}, float64(c))
	}
	s.SetFormula(ref.Ref{Col: 1, Row: 2}, "A1*2")
	s.FillRight(ref.Ref{Col: 1, Row: 2}, 10)
	g := core.Build(s.MustDependencies(), core.DefaultOptions())
	var rowEdges int
	g.Edges(func(e *core.Edge) bool {
		if e.Pattern == core.RR && e.Axis == ref.AxisRow {
			rowEdges++
		}
		return true
	})
	if rowEdges != 1 {
		t.Fatalf("row-axis RR edges = %d", rowEdges)
	}
}

func TestFillDownPanicsOnNonFormula(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s := NewSheet("t")
	s.SetValue(ref.MustCell("A1"), 1)
	s.FillDown(ref.MustCell("A1"), 5)
}

func TestCorpusDeterminism(t *testing.T) {
	a := Generate(EnronSpec(0.1))
	b := Generate(EnronSpec(0.1))
	if len(a) != len(b) {
		t.Fatalf("sheet counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		da, db := a[i].MustDependencies(), b[i].MustDependencies()
		if len(da) != len(db) {
			t.Fatalf("sheet %d: %d vs %d deps", i, len(da), len(db))
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("sheet %d dep %d differs", i, j)
			}
		}
	}
}

func TestCorpusShape(t *testing.T) {
	sheets := Generate(GithubSpec(0.1))
	if len(sheets) < 6 {
		t.Fatalf("sheets = %d", len(sheets))
	}
	totalDeps := 0
	ratioSum := 0.0
	for _, s := range sheets {
		deps := s.MustDependencies()
		if len(deps) == 0 {
			t.Fatalf("sheet %s has no dependencies", s.Name)
		}
		totalDeps += len(deps)
		g := core.Build(deps, core.DefaultOptions())
		ratioSum += float64(g.NumEdges()) / float64(len(deps))
	}
	avgRatio := ratioSum / float64(len(sheets))
	// The paper's TACO-Full mean remaining-edge fraction is 3.4-7.4%; the
	// synthetic corpus should land in the same order of magnitude.
	if avgRatio > 0.25 {
		t.Fatalf("average remaining edge fraction %.2f too high — corpus lacks tabular locality", avgRatio)
	}
	if totalDeps < 1000 {
		t.Fatalf("corpus too small: %d deps", totalDeps)
	}
}

func TestMetrics(t *testing.T) {
	s := NewSheet("t")
	rng := rand.New(rand.NewSource(3))
	s.AddDataColumn(1, 30, rng)
	s.AddChain(2, 1, 30)
	deps := s.MustDependencies()
	m := Metrics(deps)
	// The chain gives a path of ~30 edges and the top cells reach everything.
	if m.LongestPath < 25 {
		t.Fatalf("longest path = %d", m.LongestPath)
	}
	if m.MaxDependents < 29 {
		t.Fatalf("max dependents = %d", m.MaxDependents)
	}
	// The max-dependents seed must actually attain the count.
	g := nocomp.Build(deps)
	n := core.CountCells(g.FindDependents(ref.CellRange(m.MaxDependentsCell)))
	if n != m.MaxDependents {
		t.Fatalf("seed %v yields %d, recorded %d", m.MaxDependentsCell, n, m.MaxDependents)
	}
}

// TestMetricsDeterministic: two chains of equal depth tie for the longest
// path — at the deepest cell, and (with a cell joining both) on the walk
// back to the root. Ties break column-major, not by map order.
func TestMetricsDeterministic(t *testing.T) {
	for _, join := range []bool{false, true} {
		s := NewSheet("t")
		rng := rand.New(rand.NewSource(3))
		s.AddDataColumn(1, 30, rng)
		s.AddDataColumn(3, 30, rng)
		s.AddChain(2, 1, 30)
		s.AddChain(4, 3, 30)
		if join {
			s.SetFormula(ref.MustCell("F1"), "B30+D30")
		}
		deps := s.MustDependencies()
		want := Metrics(deps)
		if want.LongestPathCell != ref.MustCell("A1") {
			t.Fatalf("join=%v: longest path seeded from %v, want A1", join, want.LongestPathCell)
		}
		for i := 0; i < 20; i++ {
			if got := Metrics(deps); got != want {
				t.Fatalf("join=%v: call %d answered %+v, first call %+v", join, i, got, want)
			}
		}
	}
}

func TestMetricsEmpty(t *testing.T) {
	m := Metrics(nil)
	if m.MaxDependents != 0 || m.LongestPath != 0 {
		t.Fatalf("empty metrics = %+v", m)
	}
}

func TestMessyRegionProducesSingles(t *testing.T) {
	s := NewSheet("t")
	rng := rand.New(rand.NewSource(9))
	s.AddDataColumn(1, 50, rng)
	s.AddMessyRegion(2, 50, 25, 1, rng)
	g := core.Build(s.MustDependencies(), core.DefaultOptions())
	st := g.PatternStats()
	if st[core.Single].Edges == 0 {
		t.Fatalf("stats = %+v, want Single edges from messy region", st)
	}
}

func TestSheetAccessors(t *testing.T) {
	s := NewSheet("t")
	s.SetText(ref.MustCell("A1"), "hello")
	s.SetValue(ref.MustCell("A2"), 4)
	s.SetFormula(ref.MustCell("A3"), "A2*2")
	if s.NumFormulas() != 1 {
		t.Fatalf("formulas = %d", s.NumFormulas())
	}
	if !s.Cells[ref.MustCell("A3")].IsFormula() || s.Cells[ref.MustCell("A1")].IsFormula() {
		t.Fatal("IsFormula wrong")
	}
}

func TestDependenciesParseError(t *testing.T) {
	s := NewSheet("t")
	s.SetFormula(ref.MustCell("A1"), "SUM(")
	if _, err := s.Dependencies(); err == nil {
		t.Fatal("want parse error")
	}
}
