package engine

import (
	"math"

	"taco/internal/core"
	"taco/internal/formula"
	"taco/internal/ref"
)

// This file implements pattern runs, the span nodes of the levelled schedule
// (schedule.go): contiguous dirty rows of a column whose cells share one
// compiled program (modulo relative offsets) are carved into one node and
// evaluated as a single batched sweep instead of per-cell dispatch. The
// sharing is exactly what the TACO graph's pattern/RR-Chain edges record — a
// compressed dependent run is a set of cells with one formula shape — so run
// detection is keyed on the canonical compile cache (shifted copies of a
// formula intern to one *Program; membership is pointer equality) and, when
// the graph supports it, gated on the compressed edges' dependent spans
// (patternSpanner). It happens once per schedule build, during the
// column-major walk of the dirty spans that enumerates the set anyway.
//
// The sweep itself plans one cursor per compiled cell operand: a row-fixed
// operand ($-anchored row) resolves to one position for the whole run and is
// read once; a relative-row operand advances down a columnar slab window one
// row per evaluated cell, foldRange-style, so the inner loop touches no maps
// and re-resolves nothing. A range operand the numeric plan folds (SUM,
// AVERAGE, COUNT, COUNTA, MIN, MAX of one single-column range) is a cursor
// too: one slab window per sweep whose ends only move down (foldWindow), so a
// sliding window costs its width per row and a running total what entered.
// Other range operands and call dispatch still go through the ordinary
// resolver — folds keep their own batched paths. Every value a run reads was
// settled by an earlier level or by an earlier row of the same sweep (a span
// that reads itself is only carved when it reads strictly upwards, and the
// cursors read a cell's value when they reach it), so the sweep reads exactly
// what per-cell evaluation in dependency order would read, and results —
// including error values and #CYCLE! propagated from earlier levels — are
// bit-identical to the serial AST path.

// minPatternRun is the run length below which a span is not carved: planning
// cursors for a handful of cells costs more than evaluating them.
const minPatternRun = 8

// carve walks the dirty spans column-major and appends the schedule's nodes.
// A maximal run of contiguous flagged rows whose cells intern to one compiled
// program is a candidate when runs is set and it is at least minPatternRun
// long; each stretch of it that is itself that long, that compressed
// dependent spans cover (when the graph tracks pattern compression) and that
// an ascending sweep can order — its cells read, inside the stretch, only
// rows above their own — becomes one span node. Every other dirty cell is a
// node of its own: value cells, uncompilable formulas, short or broken runs,
// rows only Single edges claim, every cell when runs is off.
//
// The sweep test is a precedent query per candidate span that linkSchedule
// repeats: linking needs the finished node index, so the windows seen here
// would have to be retained per node to be reused. On compressed edges that
// is a second index search per span, and spans are few next to the records
// the walk visits; a backend that answers per cell (NoComp, the oracle)
// enumerates a sweepable span's windows twice.
func (e *Engine) carve(sch *schedule, runs bool) {
	sp, hasSp := e.graph.(patternSpanner)
	// One closure per build, re-aimed per stretch through span.
	var span ref.Range
	var sweepable bool
	check := func(dep, _, first ref.Range) bool {
		// Windows are linear in the row, so if the first cell this edge
		// covers reads nothing at or below itself inside the span, no later
		// cell does either.
		sweepable = !first.Overlaps(ref.Range{Head: dep.Head, Tail: span.Tail})
		return sweepable
	}
	e.store.dirtyWindows(func(ci int, col *column, lo, hi int) bool {
		at := func(k int) ref.Ref { return ref.Ref{Col: ci, Row: col.rows[k]} }
		for i := lo; i < hi; {
			c := col.cells[i]
			if !c.dirty {
				i++
				continue
			}
			run0, j := i, i+1
			var p *formula.Program
			if runs && c.ast != nil {
				p = e.prog(at(i), c) // nil when the compiler declines the formula
			}
			for p != nil && j < hi && col.cells[j].dirty && col.rows[j] == col.rows[j-1]+1 &&
				col.cells[j].ast != nil && e.prog(at(j), col.cells[j]) == p {
				j++
			}
			long := j-i >= minPatternRun
			var holes []bool // rows of the run no compressed edge covers, if any
			if long && hasSp {
				holes = uncovered(sp, ref.Range{Head: at(i), Tail: at(j - 1)}, &sch.cover)
			}
			for i < j {
				k := i + 1
				if long && (holes == nil || !holes[i-run0]) {
					for k < j && (holes == nil || !holes[k-run0]) {
						k++
					}
					span, sweepable = ref.Range{Head: at(i), Tail: at(k - 1)}, k-i >= minPatternRun
					if sweepable {
						e.spanPrecedents(span, col.cells[i:k], check)
					}
					if sweepable {
						sch.addNode(at(i), col.cells[i:k], p)
						i = k
						continue
					}
				}
				for ; i < k; i++ {
					sch.addNode(at(i), col.cells[i:i+1], nil)
				}
			}
		}
		return true
	})
}

// uncovered marks the rows of a column span that lie inside no compressed
// (non-Single) dependent span — the graph's own evidence of which cells share
// a formula shape — and returns nil when there are none. Spans from different
// edges may each cover part of the run (one edge per reference, clipped by
// partial dirty sets), so coverage is a union, tracked in the reusable
// scratch. A hole splits a run, it does not spoil it: two formula rewrites on
// neighbouring rows can leave the cell between them on Single edges for good
// (the greedy compressor merges only on insert), and one such cell must not
// cost a 20k-row column its sweep.
func uncovered(sp patternSpanner, span ref.Range, scratch *[]bool) []bool {
	n := span.Rows()
	holes := *scratch
	if cap(holes) < n {
		holes = make([]bool, n)
	}
	holes = holes[:n]
	for i := range holes {
		holes[i] = true
	}
	*scratch = holes
	left := n
	sp.PatternRunSpans(span, func(part ref.Range, _ core.PatternType) bool {
		for row := part.Head.Row; row <= part.Tail.Row; row++ {
			if holes[row-span.Head.Row] {
				holes[row-span.Head.Row] = false
				left--
			}
		}
		return left > 0
	})
	if left == 0 {
		return nil
	}
	return holes
}

// runCursor feeds one compiled cell operand during a sweep: a row-fixed
// operand is a single pre-read value, a relative-row operand an advancing
// slab window — an empty one when its column is unpopulated.
type runCursor struct {
	fixed bool
	v     formula.Value
	cur   foldCursor
}

// number is readOp for the numeric fast path: the operand's AsNumber
// coercion, read in place — no Value is copied to extract a float.
func (cu *runCursor) number(row int) (float64, bool) {
	v := &cu.v
	if !cu.fixed {
		c := cu.cur.probe(row)
		if c == nil {
			return 0, true // Empty coerces to 0
		}
		v = &c.value
	}
	if v.Kind == formula.KindNumber {
		return v.Num, true
	}
	return v.AsNumber()
}

// foldWindow feeds one aggregate of the numeric plan during a sweep. rows and
// cells are the slab window spanning every row's range — the live records,
// so a span over its own column folds what the rows above just wrote — and
// acc holds the fold of cells[lo:hi], the current row's range.
type foldWindow struct {
	rows   []int
	cells  []*cell
	lo, hi int
	acc    foldAcc
}

// restart empties the window at slab index lo.
func (w *foldWindow) restart(lo int) {
	w.acc.f = formula.NumericFold{Min: math.Inf(1), Max: math.Inf(-1)}
	w.lo, w.hi = lo, lo
}

// fold moves the window down to the rows of rng and returns its fold, the
// left-to-right chain from zero foldRange computes. A window whose head stayed
// put (the paper's FR shape, a running total) extends the accumulator by the
// records that entered — the same additions in the same order. One whose head
// moved starts over: sliding it, adding the entering cell and dropping the
// leaving one, is a different float sum.
func (w *foldWindow) fold(rng ref.Range) *formula.NumericFold {
	lo := w.lo
	for lo < len(w.rows) && w.rows[lo] < rng.Head.Row {
		lo++
	}
	if lo != w.lo {
		w.restart(lo)
	}
	for ; w.hi < len(w.rows) && w.rows[w.hi] <= rng.Tail.Row; w.hi++ {
		w.acc.add(ref.Ref{}, w.cells[w.hi])
	}
	return &w.acc.f
}

// runScratch is the sweep's per-schedule scratch: operand cursors, aggregate
// windows, the numeric fast path's operand buffer (cells, then aggregates),
// and read — readOp bound once, so handing it to the VM allocates nothing.
type runScratch struct {
	cursors []runCursor
	windows []foldWindow
	vals    []float64
	read    func(op int, target ref.Ref) formula.Value
}

// readOp serves one cell-operand read from its cursor. A missing cell reads
// as Empty, exactly as valueResolver.CellValue would return it.
func (rs *runScratch) readOp(op int, target ref.Ref) formula.Value {
	cu := &rs.cursors[op]
	if cu.fixed {
		return cu.v
	}
	if c := cu.cur.probe(target.Row); c != nil {
		return c.value
	}
	return formula.Empty()
}

// planWindows plans one window per aggregate for the m rows from anchor, or
// reports that the sweep cannot fold them: each range must be one column wide
// and, first row to last (it is linear in between), stay upright and not rise.
func (rs *runScratch) planWindows(s *colStore, folds []formula.FoldOp, anchor ref.Ref, m int) bool {
	rs.windows = rs.windows[:0]
	for _, fo := range folds {
		a, z := fo.At(anchor), fo.At(ref.Ref{Col: anchor.Col, Row: anchor.Row + m - 1})
		if a.Head.Col != a.Tail.Col || a.Head.Row > a.Tail.Row || z.Head.Row > z.Tail.Row ||
			z.Head.Row < a.Head.Row || z.Tail.Row < a.Tail.Row {
			return false
		}
		var w foldWindow
		if col := s.cols[a.Head.Col]; col != nil {
			lo, hi := col.window(a.Head.Row, z.Tail.Row)
			w.rows, w.cells = col.rows[lo:hi], col.cells[lo:hi]
		}
		w.restart(0)
		rs.windows = append(rs.windows, w)
	}
	return true
}

// executeRun sweeps the next m cells of a span node, from its cursor:
// operand cursors and aggregate windows are planned once against the first
// row swept, then each row is one evaluation with cell reads served straight
// off the slabs. Rows ascend, so every slab cursor advances monotonically,
// and a cursor over the span's own column reads what the rows above just
// wrote. Each cell's value and clean flag are written exactly once, same as
// evalLevelCell.
func (e *Engine) executeRun(rs *runScratch, nd *schedNode, m int) {
	p := nd.prog
	res := valueResolver{e}
	anchor := ref.Ref{Col: nd.at.Col, Row: nd.at.Row + nd.done}
	ops, folds := p.CellOps(), p.FoldOps()
	rs.cursors = rs.cursors[:0]
	for _, op := range ops {
		t0 := op.At(anchor)
		var cu runCursor
		if op.RowFixed {
			// The anchor column is constant across the run, so a row-fixed
			// operand resolves to one position: read it once.
			cu.fixed, cu.v = true, res.CellValue(t0)
		} else if col := e.store.cols[t0.Col]; col != nil {
			lo, hi := col.window(t0.Row, t0.Row+m-1)
			cu.cur = foldCursor{col: t0.Col, rows: col.rows[lo:hi], cells: col.cells[lo:hi]}
		}
		rs.cursors = append(rs.cursors, cu)
	}
	if n := len(ops) + len(folds); cap(rs.vals) < n {
		rs.vals = make([]float64, n)
	}
	vals := rs.vals[:len(ops)+len(folds)]
	numeric := p.HasNumericSweep() && rs.planWindows(&e.store, folds, anchor, m)
	at := anchor
	for _, c := range nd.cells[nd.done : nd.done+m] {
		// Straight-line arithmetic sweeps on the float fast path: all cell
		// operands read and coerced per row, every aggregate folded off its
		// window, the program run on a bare float64 stack. Any row the fast
		// path cannot reproduce exactly — an error operand, a failed coercion,
		// an aggregate that is not a number, a zero divisor — re-runs on the
		// generic interpreter (probe is idempotent for its row, and ranges it
		// resolves itself, so a half-advanced window is harmless), which keeps
		// every error and coercion outcome bit-identical.
		fast := numeric
		for i := 0; fast && i < len(ops); i++ {
			vals[i], fast = rs.cursors[i].number(ops[i].At(at).Row)
		}
		for i := 0; fast && i < len(folds); i++ {
			vals[len(ops)+i], fast = folds[i].Result(rs.windows[i].fold(folds[i].At(at)))
		}
		var f float64
		if fast {
			f, fast = p.NumericSweep(vals)
		}
		if fast {
			c.value = formula.Num(f)
		} else {
			c.value = p.EvalCells(res, at, rs.read)
		}
		c.dirty = false
		at.Row++
	}
	clear(rs.windows) // the pooled scratch must not pin the slabs (poolSchedule clears the cursors)
}
