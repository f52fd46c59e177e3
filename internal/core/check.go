package core

import (
	"errors"
	"fmt"
	"maps"

	"taco/internal/ref"
)

// This file implements the structural invariant checker. Snapshot loading
// validates edges with it, and the property-based tests drive it against
// randomly built graphs. The invariants are exactly what the pattern
// algebra's O(1) queries rely on; an edge violating them would silently
// return wrong dependents.

// ErrInvariant reports a violated edge or graph invariant.
var ErrInvariant = errors.New("core: invariant violation")

// CheckEdge validates the structural invariants of a single edge:
//
//   - ranges are well-formed and inside the sheet space;
//   - a compressed dependent run is one cell wide along its axis;
//   - the precedent corners agree with the metadata (e.g. for RR,
//     Prec = [Dep.Head+HRel .. Dep.Tail+TRel]);
//   - RR-Chain's precedent is the dependent run shifted by one cell.
func CheckEdge(e *Edge) error {
	if !e.Prec.Valid() || !e.Dep.Valid() {
		return fmt.Errorf("%w: invalid ranges in %v", ErrInvariant, e)
	}
	if e.Pattern == Single {
		if !e.Dep.IsCell() {
			return fmt.Errorf("%w: Single edge with multi-cell dependent %v", ErrInvariant, e)
		}
		return nil
	}
	c := e.canon()
	if c.Dep.Cols() != 1 {
		return fmt.Errorf("%w: compressed run wider than one cell: %v", ErrInvariant, e)
	}
	if c.Dep.Rows() < 2 {
		return fmt.Errorf("%w: compressed run with fewer than two cells: %v", ErrInvariant, e)
	}
	switch e.Pattern {
	case RR:
		wantHead := c.Dep.Head.Add(c.Meta.HRel)
		wantTail := c.Dep.Tail.Add(c.Meta.TRel)
		if c.Prec.Head != wantHead || c.Prec.Tail != wantTail {
			return fmt.Errorf("%w: RR precedent %v does not match meta (want %v:%v)",
				ErrInvariant, c.Prec, wantHead, wantTail)
		}
	case RRChain:
		want := ref.Offset{DCol: 0, DRow: -1}
		if c.Meta.Dir == DirNext {
			want = ref.Offset{DCol: 0, DRow: 1}
		}
		if c.Meta.HRel != want || c.Meta.TRel != want {
			return fmt.Errorf("%w: RR-Chain offsets %v/%v do not match direction",
				ErrInvariant, c.Meta.HRel, c.Meta.TRel)
		}
		if c.Prec != c.Dep.Shift(want) {
			return fmt.Errorf("%w: RR-Chain precedent %v is not the shifted run", ErrInvariant, c.Prec)
		}
	case RF:
		if c.Prec.Head != c.Dep.Head.Add(c.Meta.HRel) || c.Prec.Tail != c.Meta.TFix {
			return fmt.Errorf("%w: RF precedent %v does not match meta", ErrInvariant, c.Prec)
		}
		// Every window must be a valid rectangle, including the last one.
		last := c.Dep.Tail.Add(c.Meta.HRel)
		if last.Col > c.Meta.TFix.Col || last.Row > c.Meta.TFix.Row {
			return fmt.Errorf("%w: RF window inverts before the run ends: %v", ErrInvariant, e)
		}
	case FR:
		if c.Prec.Head != c.Meta.HFix || c.Prec.Tail != c.Dep.Tail.Add(c.Meta.TRel) {
			return fmt.Errorf("%w: FR precedent %v does not match meta", ErrInvariant, c.Prec)
		}
		first := c.Dep.Head.Add(c.Meta.TRel)
		if first.Col < c.Meta.HFix.Col || first.Row < c.Meta.HFix.Row {
			return fmt.Errorf("%w: FR window inverts before the run starts: %v", ErrInvariant, e)
		}
	case FF:
		if c.Prec.Head != c.Meta.HFix || c.Prec.Tail != c.Meta.TFix {
			return fmt.Errorf("%w: FF precedent %v does not match meta", ErrInvariant, c.Prec)
		}
	default:
		return fmt.Errorf("%w: unknown pattern %v", ErrInvariant, e.Pattern)
	}
	return nil
}

// Check validates every edge of the graph plus the index invariants: each
// edge is present in both R-trees under exactly its own ranges, no index
// holds a stale entry, and the cached vertex refcounts and dependency count
// equal a recount from the edges.
func (g *Graph) Check() error {
	verts := make(map[ref.Range]int, len(g.verts))
	ndeps := 0
	for e := range g.edges {
		verts[e.Prec]++
		if e.Prec != e.Dep {
			verts[e.Dep]++
		}
		ndeps += e.Count()
		if err := CheckEdge(e); err != nil {
			return err
		}
		if !treeHas(g.byPrec, e.Prec, e) {
			return fmt.Errorf("%w: edge %v missing from precedent index", ErrInvariant, e)
		}
		if !treeHas(g.byDep, e.Dep, e) {
			return fmt.Errorf("%w: edge %v missing from dependent index", ErrInvariant, e)
		}
	}
	// The indexes must not contain stale entries.
	if g.byPrec.Len() != len(g.edges) || g.byDep.Len() != len(g.edges) {
		return fmt.Errorf("%w: index sizes %d/%d, edges %d",
			ErrInvariant, g.byPrec.Len(), g.byDep.Len(), len(g.edges))
	}
	if ndeps != g.ndeps {
		return fmt.Errorf("%w: dependency count %d, edges hold %d", ErrInvariant, g.ndeps, ndeps)
	}
	if !maps.Equal(verts, g.verts) {
		return fmt.Errorf("%w: vertex refcounts differ from a recount (%d cached, %d recounted)",
			ErrInvariant, len(g.verts), len(verts))
	}
	return nil
}

func treeHas(t interface {
	Search(ref.Range, func(ref.Range, *Edge) bool)
}, r ref.Range, e *Edge) bool {
	found := false
	t.Search(r, func(got ref.Range, x *Edge) bool {
		if x == e && got == r {
			found = true
			return false
		}
		return true
	})
	return found
}

// Dependencies reconstructs the full uncompressed dependency list the graph
// represents — decompression, used by tests to verify losslessness and by
// tools that export the graph.
func (g *Graph) Dependencies() []Dependency {
	var out []Dependency
	for e := range g.edges {
		out = append(out, edgeDependencies(e)...)
	}
	return out
}

// edgeDependencies expands one edge into its underlying dependencies.
func edgeDependencies(e *Edge) []Dependency {
	if e.Pattern == Single {
		return []Dependency{{
			Prec: e.Prec, Dep: e.Dep.Head,
			HeadFixed: e.HeadFixed, TailFixed: e.TailFixed,
		}}
	}
	c := e.canon()
	var out []Dependency
	for row := c.Dep.Head.Row; row <= c.Dep.Tail.Row; row++ {
		cell := ref.Ref{Col: c.Dep.Head.Col, Row: row}
		prec := directPrecsCol(c, ref.CellRange(cell))
		d := Dependency{Prec: prec, Dep: cell}
		if e.Axis == ref.AxisRow {
			d = transposeDep(d)
		}
		out = append(out, d)
	}
	return out
}
