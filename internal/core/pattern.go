// Package core implements TACO: tabular-locality-based compression of
// spreadsheet formula graphs (Tang et al., ICDE 2023).
//
// A formula graph stores one directed edge per (referenced range -> formula
// cell) dependency. TACO partitions these edges so that each class either
// follows one of the predefined tabular-locality patterns — RR, RF, FR, FF,
// and the extended RR-Chain — or remains a Single uncompressed edge, and
// replaces every class with one constant-size compressed edge. The four key
// per-pattern functions (addDep, findDep, findPrec, removeDep) all run in
// O(1), independent of how many dependencies an edge compresses, which is
// what makes querying the compressed graph directly (without decompression)
// asymptotically cheaper than traversing the uncompressed graph.
//
// All pattern math in this file is written once for the column-major
// orientation (a vertical run of formula cells within one column, the
// paper's presentation). Row-major runs are handled by transposing the edge
// and the query, running the same code, and transposing back.
package core

import (
	"fmt"

	"taco/internal/ref"
)

// PatternType identifies the compression pattern of an edge.
type PatternType uint8

const (
	// Single marks an uncompressed edge holding exactly one dependency.
	Single PatternType = iota
	// RR (Relative plus Relative) — each formula cell keeps the same
	// relative offset to both corners of its referenced range: a sliding
	// window.
	RR
	// RF (Relative plus Fixed) — relative head, fixed tail: a shrinking
	// window.
	RF
	// FR (Fixed plus Relative) — fixed head, relative tail: an expanding
	// window, e.g. cumulative totals.
	FR
	// FF (Fixed plus Fixed) — every formula cell references the same fixed
	// range, e.g. a conversion rate or a VLOOKUP table.
	FF
	// RRChain is the extended pattern of Sec. V: a special case of RR where
	// each formula cell references its adjacent cell, forming a dependency
	// chain. findDep/findPrec return the whole transitive run in one step,
	// avoiding the repeated edge accesses that make plain RR slow on chains.
	RRChain

	numPatterns = int(RRChain) + 1
)

// String returns the paper's name for the pattern.
func (p PatternType) String() string {
	switch p {
	case Single:
		return "Single"
	case RR:
		return "RR"
	case RF:
		return "RF"
	case FR:
		return "FR"
	case FF:
		return "FF"
	case RRChain:
		return "RR-Chain"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Direction orients an RR-Chain along its compression axis.
type Direction uint8

const (
	// DirNone is set for non-chain patterns.
	DirNone Direction = iota
	// DirPrev — each formula cell references the adjacent cell before it
	// along the axis (the paper's l = ABOVE for column runs).
	DirPrev
	// DirNext — each formula cell references the adjacent cell after it
	// (l = BELOW for column runs).
	DirNext
)

// Meta is the constant-size pattern metadata of a compressed edge
// (the paper's e.meta). Only the fields relevant to the pattern are
// meaningful: RR uses HRel/TRel, RF uses HRel/TFix, FR uses HFix/TRel,
// FF uses HFix/TFix, RR-Chain uses HRel/TRel plus Dir.
type Meta struct {
	HRel ref.Offset
	TRel ref.Offset
	HFix ref.Ref
	TFix ref.Ref
	Dir  Direction
}

// T transposes the metadata for row-major <-> column-major conversion.
func (m Meta) T() Meta {
	return Meta{HRel: m.HRel.T(), TRel: m.TRel.T(), HFix: m.HFix.T(), TFix: m.TFix.T(), Dir: m.Dir}
}

// Dependency is one uncompressed formula-graph edge: the formula cell Dep
// references the range Prec. HeadFixed/TailFixed carry the `$` dollar-sign
// cues from the formula source (true when the corner is anchored on both
// axes), which the greedy compressor uses as a tie-breaking heuristic.
type Dependency struct {
	Prec                 ref.Range
	Dep                  ref.Ref
	HeadFixed, TailFixed bool
}

// rel computes the relative positions of the dependency's formula cell with
// respect to the head and tail of its referenced range (the paper's rel(e)).
func (d Dependency) rel() (hRel, tRel ref.Offset) {
	return d.Prec.Head.Sub(d.Dep), d.Prec.Tail.Sub(d.Dep)
}

// Edge is a (possibly compressed) edge of the TACO graph: the paper's
// e = (prec, dep, p, meta). Axis records the orientation of the compressed
// run. For Single edges, HeadFixed/TailFixed retain the dollar-sign cues of
// the underlying dependency so heuristics can consult them later.
type Edge struct {
	Prec    ref.Range
	Dep     ref.Range
	Pattern PatternType
	Axis    ref.Axis
	Meta    Meta

	HeadFixed, TailFixed bool
}

// Count returns the number of uncompressed dependencies the edge represents
// (the paper's |E'_i|). Every compressed run carries exactly one dependency
// per formula cell in Dep.
func (e *Edge) Count() int {
	if e.Pattern == Single {
		return 1
	}
	return e.Dep.Size()
}

// String renders the edge for diagnostics: "A1:B6 -> C1:C4 [RR]".
func (e *Edge) String() string {
	return fmt.Sprintf("%v -> %v [%v]", e.Prec, e.Dep, e.Pattern)
}

// singleEdge builds the uncompressed edge for a dependency.
func singleEdge(d Dependency) *Edge {
	return &Edge{
		Prec:      d.Prec,
		Dep:       ref.CellRange(d.Dep),
		Pattern:   Single,
		HeadFixed: d.HeadFixed,
		TailFixed: d.TailFixed,
	}
}

// canon returns a column-axis view of the edge, transposing row-axis edges.
func (e *Edge) canon() Edge {
	if e.Axis == ref.AxisCol {
		return *e
	}
	return Edge{
		Prec: e.Prec.T(), Dep: e.Dep.T(), Pattern: e.Pattern,
		Axis: ref.AxisCol, Meta: e.Meta.T(),
		HeadFixed: e.HeadFixed, TailFixed: e.TailFixed,
	}
}

// uncanon converts a column-axis edge back to the original axis.
func uncanon(c Edge, axis ref.Axis) *Edge {
	if axis == ref.AxisCol {
		out := c
		return &out
	}
	return &Edge{
		Prec: c.Prec.T(), Dep: c.Dep.T(), Pattern: c.Pattern,
		Axis: ref.AxisRow, Meta: c.Meta.T(),
		HeadFixed: c.HeadFixed, TailFixed: c.TailFixed,
	}
}

// transposeDep mirrors a dependency across the main diagonal.
func transposeDep(d Dependency) Dependency {
	return Dependency{
		Prec: d.Prec.T(), Dep: d.Dep.T(),
		HeadFixed: d.HeadFixed, TailFixed: d.TailFixed,
	}
}

// ---------------------------------------------------------------------------
// addDep — the paper's addDep(e, e'): extend a compressed edge with one more
// dependency whose formula cell is adjacent to e.dep along the axis.
// ---------------------------------------------------------------------------

// AddDep attempts to add dependency d (whose formula cell must be adjacent to
// e.Dep along axis) to edge e under pattern p, returning the merged edge or
// nil when the pattern's compression condition fails. e may be a Single edge
// (in which case p chooses the target pattern) or an already-compressed edge
// with e.Pattern == p and e.Axis == axis.
func AddDep(e *Edge, d Dependency, p PatternType, axis ref.Axis) *Edge {
	// Compressed edges can only extend along their own axis.
	if e.Pattern != Single && e.Axis != axis {
		return nil
	}
	c := *e
	dc := d
	if axis == ref.AxisRow {
		// Transpose into the canonical column orientation. Single edges have
		// no intrinsic axis, so this applies to them too.
		c = Edge{
			Prec: e.Prec.T(), Dep: e.Dep.T(), Pattern: e.Pattern,
			Axis: ref.AxisCol, Meta: e.Meta.T(),
			HeadFixed: e.HeadFixed, TailFixed: e.TailFixed,
		}
		dc = transposeDep(d)
	}
	merged := addDepCol(c, dc, p)
	if merged == nil || axis == ref.AxisCol {
		return merged
	}
	return uncanon(*merged, axis)
}

// addDepCol implements addDep on a column-axis canonical edge.
func addDepCol(e Edge, d Dependency, p PatternType) *Edge {
	depCell := ref.CellRange(d.Dep)
	// The new formula cell must extend the run contiguously in the same
	// column, directly above the head or below the tail.
	if !e.Dep.Adjacent(depCell, ref.AxisCol) {
		return nil
	}
	var meta Meta
	hRel, tRel := d.rel()
	if e.Pattern == Single {
		// Derive the candidate metadata from the pair of dependencies.
		prev := Dependency{Prec: e.Prec, Dep: e.Dep.Head}
		ph, pt := prev.rel()
		switch p {
		case RR:
			if ph != hRel || pt != tRel {
				return nil
			}
			meta = Meta{HRel: hRel, TRel: tRel}
		case RRChain:
			if ph != hRel || pt != tRel || hRel != tRel {
				return nil
			}
			switch (ref.Offset{DCol: 0, DRow: -1}) {
			case hRel:
				meta = Meta{HRel: hRel, TRel: tRel, Dir: DirPrev}
			default:
				if hRel != (ref.Offset{DCol: 0, DRow: 1}) {
					return nil
				}
				meta = Meta{HRel: hRel, TRel: tRel, Dir: DirNext}
			}
		case RF:
			if ph != hRel || e.Prec.Tail != d.Prec.Tail {
				return nil
			}
			meta = Meta{HRel: hRel, TFix: d.Prec.Tail}
		case FR:
			if pt != tRel || e.Prec.Head != d.Prec.Head {
				return nil
			}
			meta = Meta{HFix: d.Prec.Head, TRel: tRel}
		case FF:
			if e.Prec != d.Prec {
				return nil
			}
			meta = Meta{HFix: d.Prec.Head, TFix: d.Prec.Tail}
		default:
			return nil
		}
	} else {
		if e.Pattern != p {
			return nil
		}
		meta = e.Meta
		switch p {
		case RR, RRChain:
			if meta.HRel != hRel || meta.TRel != tRel {
				return nil
			}
		case RF:
			if meta.HRel != hRel || meta.TFix != d.Prec.Tail {
				return nil
			}
		case FR:
			if meta.HFix != d.Prec.Head || meta.TRel != tRel {
				return nil
			}
		case FF:
			if meta.HFix != d.Prec.Head || meta.TFix != d.Prec.Tail {
				return nil
			}
		default:
			return nil
		}
	}
	return &Edge{
		Prec:    e.Prec.Bound(d.Prec),
		Dep:     e.Dep.Bound(depCell),
		Pattern: p,
		Axis:    ref.AxisCol,
		Meta:    meta,
	}
}

// ---------------------------------------------------------------------------
// findDep — the paper's findDep(e, r): the dependents within e.Dep of a range
// r that overlaps e.Prec, in O(1).
// ---------------------------------------------------------------------------

// FindDeps returns the sub-range of e.Dep whose formulae reference at least
// one cell of r. r is clipped to e.Prec first; ok is false when the clipped
// query yields no dependents.
func FindDeps(e *Edge, r ref.Range) (ref.Range, bool) {
	clipped, ok := r.Intersect(e.Prec)
	if !ok {
		return ref.Range{}, false
	}
	if e.Axis == ref.AxisRow {
		c := e.canon()
		d, ok := findDepsCol(c, clipped.T())
		if !ok {
			return ref.Range{}, false
		}
		return d.T(), true
	}
	return findDepsCol(e.canon(), clipped)
}

func findDepsCol(e Edge, r ref.Range) (ref.Range, bool) {
	switch e.Pattern {
	case Single, FF:
		// Every formula cell references the whole precedent.
		return e.Dep, true
	case RR:
		// Back-calculate the first and last dependents whose sliding windows
		// intersect r (Fig. 6): dh + tRel = (e.prec.tail.col, r.head.row),
		// dt + hRel = (e.prec.head.col, r.tail.row).
		dh := ref.Ref{Col: e.Prec.Tail.Col, Row: r.Head.Row}.Add(neg(e.Meta.TRel))
		dt := ref.Ref{Col: e.Prec.Head.Col, Row: r.Tail.Row}.Add(neg(e.Meta.HRel))
		return clipRun(dh.Row, dt.Row, e.Dep)
	case RF:
		// Shrinking windows (Fig. 7): the head of the run references all of
		// e.Prec; the last dependent's window head row is r's bottom row.
		dt := ref.Ref{Col: e.Prec.Head.Col, Row: r.Tail.Row}.Add(neg(e.Meta.HRel))
		return clipRun(e.Dep.Head.Row, dt.Row, e.Dep)
	case FR:
		// Expanding windows: the first dependent's window tail row is r's top
		// row; everything below also covers r.
		dh := ref.Ref{Col: e.Prec.Tail.Col, Row: r.Head.Row}.Add(neg(e.Meta.TRel))
		return clipRun(dh.Row, e.Dep.Tail.Row, e.Dep)
	case RRChain:
		// Return the whole transitive chain suffix/prefix in one step.
		if e.Meta.Dir == DirPrev {
			// Each cell references the cell above; dependents of r are all
			// chain cells below r.head.
			return clipRun(r.Head.Row+1, e.Dep.Tail.Row, e.Dep)
		}
		// Each cell references the cell below; dependents propagate upward.
		return clipRun(e.Dep.Head.Row, r.Tail.Row-1, e.Dep)
	}
	return ref.Range{}, false
}

// clipRun intersects the row interval [rowA, rowB] with the dependent run.
func clipRun(rowA, rowB int, dep ref.Range) (ref.Range, bool) {
	if rowA < dep.Head.Row {
		rowA = dep.Head.Row
	}
	if rowB > dep.Tail.Row {
		rowB = dep.Tail.Row
	}
	if rowA > rowB {
		return ref.Range{}, false
	}
	col := dep.Head.Col
	return ref.Range{Head: ref.Ref{Col: col, Row: rowA}, Tail: ref.Ref{Col: col, Row: rowB}}, true
}

func neg(o ref.Offset) ref.Offset { return ref.Offset{DCol: -o.DCol, DRow: -o.DRow} }

// ---------------------------------------------------------------------------
// findPrec — the paper's findPrec(e, s): the precedents of a range s within
// e.Dep, in O(1).
// ---------------------------------------------------------------------------

// FindPrecs returns the range of cells referenced by the formula cells of s.
// s is clipped to e.Dep first; ok is false when the clipped query is empty.
func FindPrecs(e *Edge, s ref.Range) (ref.Range, bool) {
	clipped, ok := s.Intersect(e.Dep)
	if !ok {
		return ref.Range{}, false
	}
	if e.Axis == ref.AxisRow {
		c := e.canon()
		g, ok := findPrecsCol(c, clipped.T())
		if !ok {
			return ref.Range{}, false
		}
		return g.T(), true
	}
	return findPrecsCol(e.canon(), clipped)
}

func findPrecsCol(e Edge, s ref.Range) (ref.Range, bool) {
	switch e.Pattern {
	case Single, FF:
		return e.Prec, true
	case RR:
		return ref.Range{Head: s.Head.Add(e.Meta.HRel), Tail: s.Tail.Add(e.Meta.TRel)}, true
	case RF:
		// Shrinking windows: the first cell's window contains the rest.
		return ref.Range{Head: s.Head.Add(e.Meta.HRel), Tail: e.Meta.TFix}, true
	case FR:
		// Expanding windows: the last cell's window contains the rest.
		return ref.Range{Head: e.Meta.HFix, Tail: s.Tail.Add(e.Meta.TRel)}, true
	case RRChain:
		// Transitive precedents within the chain.
		if e.Meta.Dir == DirPrev {
			rowA, rowB := e.Prec.Head.Row, s.Tail.Row-1
			if rowA > rowB {
				return ref.Range{}, false
			}
			col := e.Prec.Head.Col
			return ref.Range{Head: ref.Ref{Col: col, Row: rowA}, Tail: ref.Ref{Col: col, Row: rowB}}, true
		}
		rowA, rowB := s.Head.Row+1, e.Prec.Tail.Row
		if rowA > rowB {
			return ref.Range{}, false
		}
		col := e.Prec.Head.Col
		return ref.Range{Head: ref.Ref{Col: col, Row: rowA}, Tail: ref.Ref{Col: col, Row: rowB}}, true
	}
	return ref.Range{}, false
}

// directPrecsCol returns the exact union of the direct precedents of the run
// s within the canonical edge — used by removeDep, where RR-Chain needs the
// per-cell (not transitive) precedent span.
func directPrecsCol(e Edge, s ref.Range) ref.Range {
	switch e.Pattern {
	case RRChain:
		return ref.Range{Head: s.Head.Add(e.Meta.HRel), Tail: s.Tail.Add(e.Meta.TRel)}
	default:
		g, _ := findPrecsCol(e, s)
		return g
	}
}

// ---------------------------------------------------------------------------
// removeDep — the paper's removeDep(e, s): delete the dependencies of the
// formula cells s from e, returning the edges covering the remaining run.
// ---------------------------------------------------------------------------

// RemoveDeps deletes the dependencies whose formula cells fall in s from edge
// e. It returns the replacement edges (zero, one, or two — the run pieces
// left after subtracting s). s is clipped to e.Dep by the caller contract but
// clipping again is harmless.
func RemoveDeps(e *Edge, s ref.Range) []*Edge {
	clipped, ok := s.Intersect(e.Dep)
	if !ok {
		return []*Edge{e}
	}
	if e.Pattern == Single {
		return nil // the whole (single-cell) edge is removed
	}
	axis := e.Axis
	c := e.canon()
	if axis == ref.AxisRow {
		clipped = clipped.T()
	}
	var out []*Edge
	for _, piece := range c.Dep.Subtract(clipped) {
		prec := directPrecsCol(c, piece)
		ne := Edge{
			Prec:    prec,
			Dep:     piece,
			Pattern: c.Pattern,
			Axis:    ref.AxisCol,
			Meta:    c.Meta,
		}
		if piece.IsCell() {
			ne.Pattern = Single
			ne.Meta = Meta{}
		}
		out = append(out, uncanon(ne, axis))
	}
	return out
}
