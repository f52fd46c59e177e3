package core

import (
	"math/rand"
	"testing"

	"taco/internal/ref"
)

// columnMajor sorts dependencies the way sheet loaders deliver them.
func columnMajor(deps []Dependency) []Dependency {
	out := append([]Dependency(nil), deps...)
	// Stable insertion order: by column then row of the formula cell,
	// preserving per-cell reference order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1].Dep, out[j].Dep
			if a.Col > b.Col || a.Col == b.Col && a.Row > b.Row {
				out[j-1], out[j] = out[j], out[j-1]
			} else {
				break
			}
		}
	}
	return out
}

func TestBuildBulkMatchesGreedyOnRuns(t *testing.T) {
	// On a uniform run (every cell has the same reference shape) bulk and
	// greedy produce identical compression.
	var deps []Dependency
	for row := 3; row <= 200; row++ {
		c := ref.Ref{Col: 14, Row: row}
		deps = append(deps,
			Dependency{Prec: ref.CellRange(ref.Ref{Col: 1, Row: row}), Dep: c},
			Dependency{Prec: ref.CellRange(ref.Ref{Col: 1, Row: row - 1}), Dep: c},
			Dependency{Prec: ref.CellRange(ref.Ref{Col: 14, Row: row - 1}), Dep: c},
			Dependency{Prec: ref.CellRange(ref.Ref{Col: 13, Row: row}), Dep: c},
		)
	}
	greedy := Build(deps, DefaultOptions())
	bulk := BuildBulk(deps, DefaultOptions())
	if bulk.NumDependencies() != greedy.NumDependencies() {
		t.Fatalf("deps %d vs %d", bulk.NumDependencies(), greedy.NumDependencies())
	}
	if bulk.NumEdges() != greedy.NumEdges() {
		t.Fatalf("edges %d vs %d on a uniform column workload", bulk.NumEdges(), greedy.NumEdges())
	}
	if err := bulk.Check(); err != nil {
		t.Fatal(err)
	}

	// On the Fig. 2 column (N2 has a different shape than N3..) bulk may
	// leave at most one extra Single edge behind.
	f2 := columnMajor(fig2Deps(200))
	g2, b2 := Build(f2, DefaultOptions()), BuildBulk(f2, DefaultOptions())
	if b2.NumEdges() > g2.NumEdges()+1 {
		t.Fatalf("fig2: bulk %d vs greedy %d", b2.NumEdges(), g2.NumEdges())
	}
}

func TestBuildBulkQueriesAgree(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		deps := columnMajor(genRandomDeps(rng))
		greedy := Build(deps, DefaultOptions())
		bulk := BuildBulk(deps, DefaultOptions())
		if bulk.NumDependencies() != len(deps) {
			t.Fatalf("seed %d: bulk lost dependencies: %d vs %d", seed, bulk.NumDependencies(), len(deps))
		}
		if err := bulk.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for q := 0; q < 6; q++ {
			r := ref.CellRange(ref.Ref{Col: 1 + rng.Intn(7), Row: 1 + rng.Intn(25)})
			a := cellsOf(greedy.FindDependents(r))
			b := cellsOf(bulk.FindDependents(r))
			sameCells(t, "bulk dependents", b, a)
		}
		// Bulk never compresses worse than 25% over greedy on these
		// column-major workloads (it differs only in the runs it extends down
		// a column before the graph sees them).
		if bulk.NumEdges() > greedy.NumEdges()+greedy.NumEdges()/4+2 {
			t.Fatalf("seed %d: bulk %d edges vs greedy %d", seed, bulk.NumEdges(), greedy.NumEdges())
		}
	}
}

func TestBuildBulkEmptyAndSingle(t *testing.T) {
	g := BuildBulk(nil, DefaultOptions())
	if g.NumEdges() != 0 {
		t.Fatal("empty bulk build")
	}
	g = BuildBulk([]Dependency{dep("A1:A3", "B1")}, DefaultOptions())
	if g.NumEdges() != 1 || g.NumDependencies() != 1 {
		t.Fatalf("single bulk build: %d/%d", g.NumEdges(), g.NumDependencies())
	}
}

func TestBuildBulkInRow(t *testing.T) {
	var deps []Dependency
	for row := 1; row <= 20; row++ {
		deps = append(deps,
			Dependency{Prec: ref.CellRange(ref.Ref{Col: 1, Row: row}), Dep: ref.Ref{Col: 2, Row: row}},
			Dependency{Prec: ref.RangeOf(ref.Ref{Col: 1, Row: row}, ref.Ref{Col: 1, Row: row + 1}), Dep: ref.Ref{Col: 3, Row: row}},
		)
	}
	deps = columnMajor(deps)
	g := BuildBulk(deps, InRowOptions())
	st := g.PatternStats()
	// Only the derived column compresses under InRow.
	if st[RR].Edges != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if g.NumEdges() != 21 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestBuildBulkRunBreaks(t *testing.T) {
	// A run with a gap and a reference-count change closes runs correctly.
	deps := []Dependency{
		dep("A1", "B1"),
		dep("A2", "B2"),
		// B3 has TWO references: run shape changes.
		dep("A3", "B3"),
		dep("Z1", "B3"),
		// gap at B4; resume at B5.
		dep("A5", "B5"),
		dep("A6", "B6"),
	}
	g := BuildBulk(deps, DefaultOptions())
	if g.NumDependencies() != len(deps) {
		t.Fatalf("deps = %d", g.NumDependencies())
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	// B1:B2 merge, and B3's A3 joins that run through Alg. 2; B3's Z1 is a
	// single; B5:B6 merge.
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}
