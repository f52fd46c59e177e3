package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taco/internal/core"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/workload"
)

// ledgerDeps is the dependency list of the ledger sheet engine_recalc and
// serve_big_drain edit, in column-major order:
//
//	C[r] = A[r]*B[r]*$H$1          RR, RR and FF
//	D[r] = D[r-1]+C[r]             RR-Chain and RR, restarted every 256 rows
//	E[r] = SUM(C[r-6]:C[r])        RR
//	F[b] = SUM of 1 000 rows of C  Single
//	G1   = SUM(F)
func ledgerDeps(tb testing.TB, rows int) []core.Dependency {
	tb.Helper()
	s := workload.NewSheet("ledger")
	for r := 1; r <= rows; r++ {
		s.SetFormula(ref.Ref{Col: 3, Row: r}, fmt.Sprintf("A%d*B%d*$H$1", r, r))
		if (r-1)%256 == 0 {
			s.SetFormula(ref.Ref{Col: 4, Row: r}, fmt.Sprintf("C%d", r))
		} else {
			s.SetFormula(ref.Ref{Col: 4, Row: r}, fmt.Sprintf("D%d+C%d", r-1, r))
		}
		if r >= 7 {
			s.SetFormula(ref.Ref{Col: 5, Row: r}, fmt.Sprintf("SUM(C%d:C%d)", r-6, r))
		}
	}
	blocks := 0
	for b := 1; b <= rows; b += 1000 {
		blocks++
		s.SetFormula(ref.Ref{Col: 6, Row: blocks}, fmt.Sprintf("SUM(C%d:C%d)", b, min(b+999, rows)))
	}
	s.SetFormula(ref.Ref{Col: 7, Row: 1}, fmt.Sprintf("SUM(F1:F%d)", blocks))
	deps, err := s.Dependencies()
	if err != nil {
		tb.Fatal(err)
	}
	return deps
}

// setFormula replaces a cell's dependencies with those of src, the way the
// engine writes a formula: Clear, then one AddDependency per reference.
func setFormula(tb testing.TB, g *core.Graph, at ref.Ref, src string) {
	tb.Helper()
	refs, err := formula.ExtractRefs(src)
	if err != nil {
		tb.Fatal(err)
	}
	g.Clear(ref.CellRange(at))
	for _, r := range refs {
		g.AddDependency(core.Dependency{Prec: r.At, Dep: at, HeadFixed: r.HeadFixed, TailFixed: r.TailFixed})
	}
}

// rewriteLedgerRow rewrites ledger cell C[row] to another formula and back,
// as engine_recalc's formula edits do.
func rewriteLedgerRow(tb testing.TB, g *core.Graph, row int) {
	at := ref.Ref{Col: 3, Row: row}
	setFormula(tb, g, at, fmt.Sprintf("B%d*2", row))
	setFormula(tb, g, at, fmt.Sprintf("A%d*B%d*$H$1", row, row))
}

// TestRewriteRestoreKeepsCompression: 1 200 rewrite-and-restores of the
// ledger's column C at random rows leave the graph no larger than the fresh
// bulk load, answering the rate cell's dependents exactly as before. A
// restore that merged into only one of the two pieces its Clear left would
// grow the 20 000-row ledger from 262 edges to 3 634.
func TestRewriteRestoreKeepsCompression(t *testing.T) {
	const rows = 20_000
	deps := ledgerDeps(t, rows)
	fresh, g := core.BuildBulk(deps, core.DefaultOptions()), core.BuildBulk(deps, core.DefaultOptions())
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 1200; i++ {
		rewriteLedgerRow(t, g, 1+rng.Intn(rows))
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.NumEdges(), fresh.NumEdges(); got > want {
		t.Fatalf("%d edges after 1 200 rewrite-and-restores, %d fresh", got, want)
	}
	if got, want := g.NumDependencies(), fresh.NumDependencies(); got != want {
		t.Fatalf("%d dependencies after the rewrites, %d fresh", got, want)
	}
	rate := ref.CellRange(ref.MustCell("H1"))
	if got, want := g.FindDependents(rate), fresh.FindDependents(rate); !sameCells(cellSet(got), cellSet(want)) {
		t.Fatalf("FindDependents(H1) after the rewrites: %d cells in %d ranges, fresh %d cells in %d",
			core.CountCells(got), len(got), core.CountCells(want), len(want))
	}
}

// TestBuildBulkLedgerMatchesColumnOrder: the bulk builder keeps the ledger's
// runs across the rows where a formula's reference count changes (D restarts
// every 256 rows with one reference instead of two), so it ends with exactly
// the edges of column-order Build.
func TestBuildBulkLedgerMatchesColumnOrder(t *testing.T) {
	for _, rows := range []int{2000, 20_000} {
		deps := ledgerDeps(t, rows)
		bulk, greedy := core.BuildBulk(deps, core.DefaultOptions()), core.Build(deps, core.DefaultOptions())
		if err := bulk.Check(); err != nil {
			t.Fatalf("%d rows: %v", rows, err)
		}
		if got, want := bulk.NumEdges(), greedy.NumEdges(); got != want {
			t.Errorf("%d rows: bulk %d edges, column-order Build %d", rows, got, want)
		}
	}
}

// TestFindDependentsAllocationFree: a warm FindDependents($H$1) on the
// bulk-loaded 20 000-row ledger allocates little beyond its answer; the
// visited tree's nodes, the queue and the subtraction slices come back from
// the graph's scratch.
func TestFindDependentsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := core.BuildBulk(ledgerDeps(t, 20_000), core.DefaultOptions())
	rate := ref.CellRange(ref.MustCell("H1"))
	g.FindDependents(rate)
	if allocs := testing.AllocsPerRun(20, func() { g.FindDependents(rate) }); allocs > 10 {
		t.Fatalf("FindDependents(H1) allocated %.0f times a call, want at most 10", allocs)
	}
}

// TestBuildBulkRowFills: the bulk builder compresses a row fill as Alg. 2
// does, since a run it cannot extend down a column goes in through
// AddDependency. Every planning sheet (its budget and variance rows filled
// across) bulk-builds to greedy's edge count; no input, column-major in load
// order, takes more than twice greedy's edges; and every bulk graph answers
// sampled dependents and precedents as NoComp does.
func TestBuildBulkRowFills(t *testing.T) {
	type input struct {
		name string
		deps []core.Dependency
	}
	var inputs []input
	for _, q := range []int{48, 100, 2000} {
		s := workload.PlanningBudget(q, rand.New(rand.NewSource(1)))
		inputs = append(inputs, input{fmt.Sprintf("planning/%d", q), s.MustDependencies()})
	}
	for _, name := range []string{"financial", "inventory", "gradebook"} {
		s, err := workload.BuildScenario(name, 200, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, s.MustDependencies()})
	}
	inputs = append(inputs, input{"ledger/2000", ledgerDeps(t, 2000)})
	for _, in := range inputs {
		greedy, bulk := core.Build(in.deps, core.DefaultOptions()), core.BuildBulk(in.deps, core.DefaultOptions())
		if err := bulk.Check(); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		got, want := bulk.NumEdges(), greedy.NumEdges()
		if strings.HasPrefix(in.name, "planning") && got != want || got > 2*want {
			t.Errorf("%s: bulk %d edges, greedy %d", in.name, got, want)
		}
		nc := nocomp.Build(in.deps)
		for i := 0; i < len(in.deps); i += 1 + len(in.deps)/64 {
			for _, q := range []ref.Range{in.deps[i].Prec, ref.CellRange(in.deps[i].Dep)} {
				if got, want := cellSet(bulk.FindDependents(q)), cellSet(nc.FindDependents(q)); !sameCells(got, want) {
					t.Fatalf("%s: FindDependents(%v): bulk %d cells, NoComp %d", in.name, q, len(got), len(want))
				}
				if got, want := cellSet(bulk.FindPrecedents(q)), cellSet(nc.FindPrecedents(q)); !sameCells(got, want) {
					t.Fatalf("%s: FindPrecedents(%v): bulk %d cells, NoComp %d", in.name, q, len(got), len(want))
				}
			}
		}
		t.Logf("%s: bulk %d edges, greedy %d", in.name, got, want)
	}
}

// TestRunMaintenanceAllocations pins what growing and cutting a run
// allocates: an AddDependency that extends a 100-row column run allocates
// only the merged edge AddDep returns, since the run's edge takes it in
// place; a Clear of the run's end cell allocates four times, for the edges
// its search found, the piece Subtract leaves, the list RemoveDeps returns
// and the piece's edge.
func TestRunMaintenanceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	g := core.NewGraph(core.DefaultOptions())
	dep := func(row int) core.Dependency {
		return core.Dependency{Prec: ref.CellRange(ref.Ref{Col: 1, Row: row}), Dep: ref.Ref{Col: 2, Row: row}}
	}
	row := 1
	for ; row <= 100; row++ {
		g.AddDependency(dep(row))
	}
	if allocs := testing.AllocsPerRun(50, func() { g.AddDependency(dep(row)); row++ }); allocs > 1 {
		t.Errorf("extending the run allocated %.1f times, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { row--; g.Clear(ref.CellRange(ref.Ref{Col: 2, Row: row})) }); allocs > 4 {
		t.Errorf("clearing the run's end cell allocated %.1f times, want at most 4", allocs)
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.NumDependencies() != row-1 {
		t.Fatalf("%d edges holding %d dependencies, want 1 holding %d", g.NumEdges(), g.NumDependencies(), row-1)
	}
}
