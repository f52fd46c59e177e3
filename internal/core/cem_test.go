package core

import (
	"testing"

	"taco/internal/ref"
)

func TestExactCEMTrivial(t *testing.T) {
	if n, _ := ExactCEM(nil, DefaultOptions()); n != 0 {
		t.Fatalf("empty CEM = %d", n)
	}
	one := []Dependency{dep("A1:A3", "B1")}
	n, part := ExactCEM(one, DefaultOptions())
	if n != 1 || len(part) != 1 {
		t.Fatalf("singleton CEM = %d %v", n, part)
	}
}

func TestExactCEMRefusesLargeInput(t *testing.T) {
	deps := make([]Dependency, MaxExactCEM+1)
	for i := range deps {
		deps[i] = Dependency{Prec: mustRange("A1"), Dep: ref.Ref{Col: 2, Row: i + 1}}
	}
	if n, _ := ExactCEM(deps, DefaultOptions()); n != -1 {
		t.Fatalf("oversized CEM = %d, want -1", n)
	}
}

func TestExactCEMPerfectRun(t *testing.T) {
	// A pure FF run compresses to one edge.
	var deps []Dependency
	for row := 1; row <= 6; row++ {
		deps = append(deps, Dependency{Prec: mustRange("A1:B2"), Dep: ref.Ref{Col: 3, Row: row}})
	}
	n, part := ExactCEM(deps, DefaultOptions())
	if n != 1 || len(part[0]) != 6 {
		t.Fatalf("FF run CEM = %d %v", n, part)
	}
	if g := Build(deps, DefaultOptions()).NumEdges(); g != 1 {
		t.Fatalf("greedy = %d, want 1", g)
	}
}

func TestExactCEMMixedRuns(t *testing.T) {
	// Two interleavable runs: rows 1-3 slide (RR), rows 4-6 fixed (FF).
	var deps []Dependency
	for row := 1; row <= 3; row++ {
		deps = append(deps, Dependency{
			Prec: ref.RangeOf(ref.Ref{Col: 1, Row: row}, ref.Ref{Col: 1, Row: row + 1}),
			Dep:  ref.Ref{Col: 3, Row: row},
		})
	}
	for row := 4; row <= 6; row++ {
		deps = append(deps, Dependency{Prec: mustRange("B1:B9"), Dep: ref.Ref{Col: 3, Row: row}})
	}
	n, _ := ExactCEM(deps, DefaultOptions())
	if n != 2 {
		t.Fatalf("mixed CEM = %d, want 2", n)
	}
	if g := Build(deps, DefaultOptions()).NumEdges(); g != n {
		t.Fatalf("greedy = %d, exact = %d", g, n)
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	// Greedy is an upper bound on the optimum; check on assorted tiny
	// workloads, including ones where greedy may be suboptimal.
	workloads := [][]Dependency{
		fig8Deps(),
		fig2Deps(4),
		{
			dep("A1", "B1"), dep("A2", "B2"), dep("A3", "B3"),
			dep("A1", "C1"), dep("A1", "C2"),
		},
	}
	for i, deps := range workloads {
		if len(deps) > MaxExactCEM {
			continue
		}
		n, _ := ExactCEM(deps, DefaultOptions())
		g := Build(deps, DefaultOptions()).NumEdges()
		if g < n {
			t.Fatalf("workload %d: greedy %d beats exact %d (exact solver bug)", i, g, n)
		}
		if n <= 0 {
			t.Fatalf("workload %d: exact = %d", i, n)
		}
	}
}

func TestGapOneReduction(t *testing.T) {
	// Formulae on every other row with identical offsets: rows 1,3,5,7
	// reference the cell to the left.
	var deps []Dependency
	for _, row := range []int{1, 3, 5, 7} {
		deps = append(deps, Dependency{
			Prec: ref.CellRange(ref.Ref{Col: 1, Row: row}),
			Dep:  ref.Ref{Col: 2, Row: row},
		})
	}
	if got := GapOneReduction(deps); got != 3 {
		t.Fatalf("gap-one reduction = %d, want 3", got)
	}
	// Plain TACO cannot compress any of these (not adjacent).
	if g := Build(deps, DefaultOptions()); g.NumEdges() != 4 {
		t.Fatalf("TACO edges = %d, want 4", g.NumEdges())
	}
	// A contiguous run is NOT a gap-one run.
	deps = nil
	for row := 1; row <= 4; row++ {
		deps = append(deps, Dependency{
			Prec: ref.CellRange(ref.Ref{Col: 1, Row: row}),
			Dep:  ref.Ref{Col: 2, Row: row},
		})
	}
	if got := GapOneReduction(deps); got != 0 {
		t.Fatalf("contiguous run gap-one reduction = %d, want 0", got)
	}
}
