package engine

import (
	"slices"

	"taco/internal/core"
	"taco/internal/formula"
	"taco/internal/ref"
)

// This file implements the vectorized pattern-run drain: inside one
// wavefront level, contiguous rows of a column whose cells share one
// compiled program (modulo relative offsets) are evaluated as a single
// batched sweep instead of per-cell dispatch. The sharing is exactly what
// the TACO graph's pattern/RR-Chain edges record — a compressed dependent
// run is a set of cells with one formula shape — so run detection is keyed
// on the canonical compile cache (shifted copies of a formula intern to one
// *Program; membership is pointer equality) and, when the graph supports it,
// pre-filtered by the compressed edges' dependent spans (patternSpanner).
//
// The sweep itself plans one cursor per compiled cell operand: a row-fixed
// operand ($-anchored row) resolves to one position for the whole run and is
// read once; a relative-row operand advances down a columnar slab window one
// row per evaluated cell, foldRange-style, so the inner loop touches no maps
// and re-resolves nothing. Range operands and call dispatch still go through
// the ordinary resolver — folds keep their own batched paths. Every value a
// run reads was settled by an earlier level (that is what a level is), so
// the sweep reads exactly what per-cell evaluation against the read-only
// valueResolver would read, and results — including error values and
// #CYCLE! propagated from earlier levels — are bit-identical to the serial
// AST path.

// minPatternRun is the run length below which the batched sweep is not
// attempted: planning cursors for a handful of cells costs more than
// evaluating them, and levels narrower than this skip detection entirely.
const minPatternRun = 8

// levelRun is one detected pattern run: node indices of a single column's
// contiguous rows (ascending), all sharing prog.
type levelRun struct {
	prog  *formula.Program
	nodes []int32
}

// levelPlan is one level's cached pattern-run partition. A schedule's level
// sequence is a pure function of its nodes and links, so when a warm-reused
// schedule replays the same frontier sequence, the partitions computed on
// the first drain replay too — run detection (the sort filter, program
// interning probes, span coverage) runs once per schedule, not once per
// drain. Validity is checked by exact level equality, so a drain whose
// budget splits levels differently simply recomputes from the first
// mismatch (see replayPlan).
type levelPlan struct {
	level   []int32
	runs    []levelRun
	singles []int32
}

// replayPlan returns the cached partition for the next drained level, if it
// was recorded for exactly this level. On mismatch the stale tail of the
// plan list is dropped — everything after this point was recorded for a
// level sequence this drain is no longer following.
func (sch *schedule) replayPlan(level []int32) (runs []levelRun, singles []int32, ok bool) {
	if sch.planIdx < len(sch.plans) && slices.Equal(sch.plans[sch.planIdx].level, level) {
		p := &sch.plans[sch.planIdx]
		sch.planIdx++
		return p.runs, p.singles, true
	}
	for i := sch.planIdx; i < len(sch.plans); i++ {
		sch.plans[i] = levelPlan{}
	}
	sch.plans = sch.plans[:sch.planIdx]
	return nil, nil, false
}

// recordPlan caches one level's freshly computed partition. Copies
// throughout: level is the schedule's reused frontier buffer and the run
// node slices alias planLevel's sort scratch, neither of which survives the
// next level.
func (sch *schedule) recordPlan(level []int32, runs []levelRun, singles []int32) {
	p := levelPlan{
		level:   slices.Clone(level),
		singles: slices.Clone(singles),
		runs:    make([]levelRun, len(runs)),
	}
	for i, r := range runs {
		p.runs[i] = levelRun{prog: r.prog, nodes: slices.Clone(r.nodes)}
	}
	sch.plans = append(sch.plans, p)
	sch.planIdx = len(sch.plans)
}

// planLevel partitions one wavefront level into pattern runs and leftover
// singles. Cells are sorted by (column, row); a maximal chain of contiguous
// rows whose cells intern to the same compiled program becomes a run if it
// is long enough and — when the graph tracks pattern compression — its whole
// extent is covered by compressed dependent spans. Everything else (value
// cells, uncompilable formulas, broken/short chains) stays per-cell. The
// returned slices index into nodes; the level itself is not reordered, so
// the caller's publish loop is unaffected.
func (e *Engine) planLevel(nodes []schedNode, level []int32) (runs []levelRun, singles []int32) {
	var sorted []int32
	if sch := e.sched; sch != nil && len(sch.order) == len(nodes) {
		// The batched linker already position-sorted the whole node set;
		// filtering its order by level membership yields this level sorted
		// in O(nodes) instead of another comparison sort. The scratch
		// buffers live on the schedule; runs alias sorted, which stays
		// untouched until the next level plans (after this level drains).
		mark := sch.mark
		if cap(mark) < len(nodes) {
			mark = make([]bool, len(nodes))
		} else {
			mark = mark[:len(nodes)]
			clear(mark)
		}
		sch.mark = mark
		for _, i := range level {
			mark[i] = true
		}
		sorted = sch.lvl[:0]
		for _, i := range sch.order {
			if mark[i] {
				sorted = append(sorted, i)
			}
		}
		sch.lvl = sorted
	} else {
		sorted = make([]int32, len(level))
		copy(sorted, level)
		slices.SortFunc(sorted, func(a, b int32) int {
			na, nb := nodes[a].at, nodes[b].at
			if na.Col != nb.Col {
				return na.Col - nb.Col
			}
			return na.Row - nb.Row
		})
	}
	sp, hasSp := e.graph.(patternSpanner)
	var cover []bool
	i := 0
	for i < len(sorted) {
		n := &nodes[sorted[i]]
		var p *formula.Program
		if n.c.ast != nil {
			p = e.prog(n.at, n.c)
		}
		if p == nil {
			singles = append(singles, sorted[i])
			i++
			continue
		}
		j := i + 1
		for j < len(sorted) {
			m := &nodes[sorted[j]]
			if m.at.Col != n.at.Col || m.at.Row != nodes[sorted[j-1]].at.Row+1 ||
				m.c.ast == nil || e.prog(m.at, m.c) != p {
				break
			}
			j++
		}
		lastRow := nodes[sorted[j-1]].at.Row
		if j-i >= minPatternRun &&
			(!hasSp || e.spanCovered(sp, n.at.Col, n.at.Row, lastRow, &cover)) {
			runs = append(runs, levelRun{prog: p, nodes: sorted[i:j]})
		} else {
			singles = append(singles, sorted[i:j]...)
		}
		i = j
	}
	return runs, singles
}

// spanCovered reports whether every row of col[rowLo..rowHi] lies inside
// some compressed (non-Single) dependent span — the graph's own evidence
// that these cells share a formula shape. Spans from different edges may
// each cover part of the run (one edge per reference, clipped by partial
// dirty sets), so coverage is a union, tracked in the reusable scratch.
func (e *Engine) spanCovered(sp patternSpanner, col, rowLo, rowHi int, scratch *[]bool) bool {
	n := rowHi - rowLo + 1
	buf := *scratch
	if cap(buf) < n {
		buf = make([]bool, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	*scratch = buf
	covered := 0
	r := ref.Range{Head: ref.Ref{Col: col, Row: rowLo}, Tail: ref.Ref{Col: col, Row: rowHi}}
	sp.PatternRunSpans(r, func(span ref.Range, _ core.PatternType) bool {
		for row := span.Head.Row; row <= span.Tail.Row; row++ {
			if !buf[row-rowLo] {
				buf[row-rowLo] = true
				covered++
			}
		}
		return covered < n
	})
	return covered == n
}

// runCursor feeds one compiled cell operand during a sweep: a row-fixed
// operand is a single pre-read value, an operand over an unpopulated column
// is always Empty, and a relative-row operand is an advancing slab window.
type runCursor struct {
	kind uint8 // curFixed, curEmpty, curSlab
	v    formula.Value
	cur  foldCursor
}

const (
	curFixed = iota
	curEmpty
	curSlab
)

// executeRun evaluates one pattern run as a batched sweep: cursors are
// planned once against the run's first anchor, then each row is one VM
// evaluation with cell reads served straight off the slabs. Rows ascend, so
// every slab cursor advances monotonically; a missing cell reads as Empty,
// exactly as valueResolver.CellValue would return it. Each cell's value and
// clean flag are written exactly once, same as evalLevelCell.
func (e *Engine) executeRun(nodes []schedNode, r *levelRun) {
	p := r.prog
	res := valueResolver{e}
	anchor0 := nodes[r.nodes[0]].at
	n := len(r.nodes)
	ops := p.CellOps()
	cursors := make([]runCursor, len(ops))
	for i, op := range ops {
		t0 := op.At(anchor0)
		if op.RowFixed {
			// The anchor column is constant across the run, so a row-fixed
			// operand resolves to one position: read it once.
			cursors[i] = runCursor{kind: curFixed, v: res.CellValue(t0)}
			continue
		}
		col := e.store.cols[t0.Col]
		if col == nil {
			cursors[i] = runCursor{kind: curEmpty}
			continue
		}
		lo, hi := col.window(t0.Row, t0.Row+n-1)
		cursors[i] = runCursor{kind: curSlab,
			cur: foldCursor{col: t0.Col, rows: col.rows[lo:hi], cells: col.cells[lo:hi]}}
	}
	read := func(op int, target ref.Ref) formula.Value {
		cu := &cursors[op]
		switch cu.kind {
		case curFixed:
			return cu.v
		case curEmpty:
			return formula.Empty()
		}
		if c := cu.cur.probe(target.Row); c != nil {
			return c.value
		}
		return formula.Empty()
	}
	if p.HasNumericSweep() {
		// Straight-line arithmetic sweeps on the float fast path: all cell
		// operands pre-read and coerced per row, the program run on a bare
		// float64 stack. Any row the fast path cannot reproduce exactly —
		// an error operand, a failed coercion, a zero divisor — re-runs on
		// the generic interpreter (probe is idempotent for its row), which
		// keeps every error and coercion outcome bit-identical.
		vals := make([]float64, len(ops))
		for _, ni := range r.nodes {
			nd := &nodes[ni]
			fast := true
			for i := range ops {
				f, numeric := read(i, ops[i].At(nd.at)).AsNumber()
				if !numeric {
					fast = false
					break
				}
				vals[i] = f
			}
			if fast {
				if f, ok := p.NumericSweep(vals); ok {
					nd.c.value = formula.Num(f)
					nd.c.dirty = false
					continue
				}
			}
			nd.c.value = p.EvalCells(res, nd.at, read)
			nd.c.dirty = false
		}
		return
	}
	for _, ni := range r.nodes {
		nd := &nodes[ni]
		nd.c.value = p.EvalCells(res, nd.at, read)
		nd.c.dirty = false
	}
}
