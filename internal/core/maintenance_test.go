package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"taco/internal/core"
	"taco/internal/formula"
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
