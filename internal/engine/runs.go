package engine

import (
	"math"
	"slices"
	"sync"

	"taco/internal/formula"
	"taco/internal/ref"
)

// This file implements pattern runs, the span nodes of the levelled schedule
// (schedule.go): contiguous dirty rows of a column whose cells share one
// compiled program (modulo relative offsets) are carved into one node and
// evaluated as a single batched sweep instead of per-cell dispatch. The
// sharing is what the TACO graph's pattern/RR-Chain edges record too — a
// compressed dependent run is a set of cells with one formula shape — but run
// detection does not read it off the edges: it is keyed on the interned
// *Program (shifted copies and respellings of a formula share one; membership
// is pointer equality, never *Shape identity), which every backend shares and
// no edit history fragments. Like the graph's edges, the runs outlive an edit: each
// column's run table (colstore.go) lists its stretches of one program, built
// once and repaired where a write lands, and a carve intersects the dirty
// spans with it — a dense span (one the marking pass flagged whole) without
// reading a record.
//
// A sweep plans one cursor per compiled cell operand — a row-fixed operand is
// one position for the whole run, read once; a relative-row one a slab window
// that only moves down — and one foldWindow per range the numeric plan folds
// (SUM, AVERAGE, COUNT, COUNTA, MIN, MAX of one single-column range), whose
// ends only move down too: a sliding window costs its width per row, a running
// total what entered; a window over numbers adds the slab's floats as they
// lie, and one whose ends both move a row a row over numbers on gapless rows
// is re-summed from zero off the slab, a chunk of rows at a time, with no kind
// check per record (foldWindow.slide). A numeric-plan span then runs on lanes
// (sweepLanes), sweepChunk rows at a time. Lanes: a relative operand in
// another column is a subslice of its column's floats where the chunk's rows
// are all populated with numbers, and otherwise its AsNumber coercions
// gathered into a buffer (fixed operands are broadcast once); an aggregate
// over another column is its per-row Result in a lane of its own. Run: a span
// that reads nothing in its own column runs formula.NumericSweepRows, the plan
// one instruction at a time over whole lanes — per row NumericSweepRow's float
// operations in NumericSweepRow's order, so the same bits. Bad rows: one whose
// operand does not coerce, whose aggregate is not a number or whose divisor is
// zero is flagged by the step that met it and evaluated by the generic
// interpreter, which owns every error and coercion outcome.
//
// A span that reads its own column (a running balance, a cumulative fold) must
// see what the row above just wrote, so those reads are not gathered. A
// recurrence, prev ⊕ X with prev the row above and X reading nothing of its
// own column (formula.NumericChain: the running balance), runs X on lanes and
// carries prev down the chunk in a register (NumericChainRows) — per row the
// row loop's operation in its operand order — until a flagged row, a zero
// divisor or a row above that is not a number. From there, and in every other
// such span, the row loop takes the own reads a row at a time into the row's
// lane slots — an operand k rows up carried from the record the sweep wrote k
// rows before (a span's rows are contiguous), or off the slab above the span;
// a fold off its live window — and runs the plan on that row
// (NumericSweepRow). Chunks of one row on the lane path, the other way to one
// loop, cost a tenth of the ledger's rate edit. A program without a numeric
// plan runs on the interpreter, row by row, off the same cursors. Every value a run reads was settled by an earlier
// level or an earlier row of the same sweep — a span that reads itself is only
// carved when it reads strictly upwards — and no float expression is
// reassociated (no sliding, pairwise or blocked sum: a re-summed window adds
// each row's floats from zero in order), so results, errors and #CYCLE! from
// earlier levels included, are bit-identical to the walk.

// minPatternRun is the run length below which a span is not carved: planning
// cursors for a handful of cells costs more than evaluating them.
const minPatternRun = 8

// carve appends the schedule's nodes, one column-major pass over the dirty
// spans. With pattern runs on (SetPatternRuns), each span is intersected with
// its column's run table (colstore.go): a maximal run of flagged rows inside
// one stretch — the whole clipped stretch in a dense span, whose records are
// all flagged — becomes one span node when it is at least minPatternRun long
// and an ascending sweep can order it: its cells read, inside the run, only
// rows above their own. Every other flagged cell is a node of its own: value
// cells, short or unsweepable runs, every cell when pattern runs are off. A dense span costs its nodes and stretches, not its
// records; another reads each record's flag, never its program.
//
// A column with no table — a restored one, or one the walk drained — gets one
// from a dense span over all of its records, so building it reads no record
// the carve would not: every one is flagged. Any other span there is cut against the
// stretches of its own flagged records, found by reading them and kept for
// this build alone, so a few dirty rows never cost a tall column's height.
//
// The sweep test resolves the run's operand windows and linkSchedule resolves
// them again — linking needs the finished node index, and a few additions per
// operand are cheaper than retaining the windows per node.
func (e *Engine) carve(sch *schedule) {
	// One closure per build, re-aimed per run through span.
	var span ref.Range
	var sweepable bool
	check := func(_, first ref.Range) bool {
		// Windows are linear in the row, so if the first cell reads nothing
		// inside the run, no later cell reads at or below itself there.
		sweepable = !first.Overlaps(span)
		return sweepable
	}
	e.store.dirtyWindows(func(ci int, col *column, lo, hi int, dense bool) bool {
		rows, meta := col.rows, col.meta
		at := func(i int) ref.Ref { return ref.Ref{Col: ci, Row: rows[i]} }
		singles := func(i, j int) {
			for ; i < j; i++ {
				if dense || meta[i].dirty {
					sch.addNode(at(i), col, i, 1, nil)
				}
			}
		}
		if !e.patternRuns {
			singles(lo, hi)
			return true
		}
		runs := col.runs
		if dense && lo == 0 && hi == len(rows) {
			runs = col.runTable()
		} else if !col.runsOK {
			sch.stretches = col.appendStretches(sch.stretches[:0], lo, hi, !dense)
			runs = sch.stretches
		}
		k, _ := slices.BinarySearchFunc(runs, lo, func(st colRun, i int) int { return st.i + st.n - 1 - i })
		for ; k < len(runs) && runs[k].i < hi; k++ {
			a, z := max(runs[k].i, lo), min(runs[k].i+runs[k].n, hi)
			singles(lo, a)
			for a < z {
				b := z
				if !dense { // the next run of flagged records in the stretch
					for a < z && !meta[a].dirty {
						a++
					}
					for b = a; b < z && meta[b].dirty; b++ {
					}
				}
				sweepable = b-a >= minPatternRun
				if sweepable {
					span = ref.Range{Head: at(a), Tail: at(b - 1)}
					e.spanPrecedents(sch, at(a), b-a, runs[k].p, check)
				}
				if sweepable {
					sch.addNode(at(a), col, a, b-a, runs[k].p)
				} else {
					singles(a, b)
				}
				a = b
			}
			lo = z
		}
		singles(lo, hi)
		return true
	})
}

// runCursor feeds one compiled cell operand during a sweep: a row-fixed
// operand is a single pre-read value, a relative-row operand an advancing
// slab window — an empty one when its column is unpopulated. A gather leaves it
// at the chunk's first row, for a flagged row to probe, and its end in end.
// own marks a relative-row operand in the span's own column, d rows from the
// row reading it, which the row loop reads row by row instead (see selfAt).
type runCursor struct {
	fixed, own bool
	d          int
	v          formula.Value
	cur        foldCursor
	end        int
}

// at is the operand's value at row; a missing cell reads as Empty, as
// valueResolver.CellValue would return it.
func (cu *runCursor) at(row int) formula.Value {
	if cu.fixed {
		return cu.v
	}
	if i, ok := cu.cur.probe(row); ok {
		return cu.cur.col.value(i)
	}
	return formula.Value{}
}

// selfAt is an own-column operand's number at the span nd's row index j: a
// row of the span itself is its record — the rows are contiguous, and an
// ascending sweep has computed every one it reads (see carve) — and a row
// outside it comes off the slab.
func (cu *runCursor) selfAt(nd *schedNode, j int) (float64, bool) {
	if j >= 0 && j < nd.n {
		return nd.col.number(nd.i + j)
	}
	return cu.at(nd.at.Row + j).AsNumber()
}

// gather returns a relative operand's AsNumber coercions at the len(buf) rows
// from row, read on a copy of the cursor: where those rows are all populated
// with numbers, the slab's floats as they lie; else buf, filled, with bad
// flagging a failed coercion.
func (cu *runCursor) gather(row int, buf []float64, bad []bool) []float64 {
	cur, n := cu.cur, len(buf)
	i, _ := cur.probe(row)
	// Rows ascend without repeats: if the n-th from here is row+n-1, none is missing.
	if i+n <= len(cur.rows) && cur.rows[i+n-1] == row+n-1 && cur.col.numbers(i, i+n) {
		cu.end = i + n
		return cur.col.num[i : i+n]
	}
	for k := range buf {
		buf[k] = 0
		if j, found := cur.probe(row + k); found {
			var ok bool
			if buf[k], ok = cur.col.number(j); !ok {
				bad[k] = true
			}
		}
	}
	cu.end = cur.i
	return buf
}

// foldWindow feeds one aggregate of the numeric plan during a sweep. col's
// records whose rows are in rows (the column's, up to the window's end) are
// the slab window spanning every row's range — the live records, so a span
// over its own column (own) folds what the rows above just wrote — and acc
// holds the fold of the records [lo, hi), the current row's range. A range
// over a column with no cells has neither: col and rows are nil.
type foldWindow struct {
	col    *column
	rows   []int
	lo, hi int
	acc    foldAcc
	own    bool
}

// restart empties the window at slab index lo.
func (w *foldWindow) restart(lo int) {
	w.acc.f = formula.NumericFold{Min: math.Inf(1), Max: math.Inf(-1)}
	w.lo, w.hi = lo, lo
}

// seek moves the window's head down to row.
func (w *foldWindow) seek(row int) {
	lo := w.lo
	for lo < len(w.rows) && w.rows[lo] < row {
		lo++
	}
	if lo != w.lo {
		w.restart(lo)
	}
}

// fold moves the window down to rows head..tail and returns its fold, the
// left-to-right chain from zero foldRange computes. A window whose head stayed
// put (the paper's FR shape, a running total) extends the accumulator by the
// records that entered — the same additions in the same order, the slab's
// floats as they lie when the records are numbers. One whose head moved starts
// over: sliding it, adding the entering cell and dropping the leaving one, is
// another sum.
func (w *foldWindow) fold(head, tail int) *formula.NumericFold {
	w.seek(head)
	hi := w.hi
	for hi < len(w.rows) && w.rows[hi] <= tail {
		hi++
	}
	// Over no column, no record enters; with no dirtyVal, no record's position is read.
	w.acc.addRecords(0, w.col, w.hi, hi)
	w.hi = hi
	return &w.acc.f
}

// lane is fold for the len(out) rows from at — each row's Result, one the
// interpreter answers with an error flagged in bad — and reports whether the
// rows slid (slide).
func (w *foldWindow) lane(fo formula.FoldOp, at ref.Ref, out []float64, bad []bool) bool {
	a, z := fo.At(at), fo.At(ref.Ref{Col: at.Col, Row: at.Row + len(out) - 1})
	head, tail := a.Head.Row, a.Tail.Row
	dh, dt := min(1, z.Head.Row-head), min(1, z.Tail.Row-tail) // an end stays or moves a row a row
	if dh == 1 && dt == 1 && w.slide(fo, head, tail-head+1, out) {
		return true
	}
	for k := range out {
		var ok bool
		if out[k], ok = fo.Result(w.fold(head, tail)); !ok {
			bad[k] = true
		}
		head, tail = head+dh, tail+dt
	}
	return false
}

// slide is lane for a window of width rows from head whose ends both move down
// a row a row, when the records under all len(out) rows' windows are numbers
// on gapless rows; it reports false, having folded nothing, when they are not.
// Each row's fold is its window's floats added from zero in order — addRecords'
// additions, so the same bits — four rows at a time, whose sums are
// independent; Count and NonEmpty are the width, and the extrema are taken
// only when Result reads them. The window then restarts after the chunk.
func (w *foldWindow) slide(fo formula.FoldOp, head, width int, out []float64) bool {
	if w.col == nil {
		return false
	}
	w.seek(head)
	i, span := w.lo, width+len(out)-1
	// Rows ascend without repeats: if the span-th from here is head+span-1, none is missing.
	if i+span > len(w.rows) || w.rows[i+span-1] != head+span-1 || !w.col.numbers(i, i+span) {
		return false
	}
	num := w.col.num[i : i+span]
	f := formula.NumericFold{Count: width, NonEmpty: width}
	k := 0
	if fo.WantsExtrema() {
		for ; k < len(out); k++ {
			f.Sum, f.Min, f.Max = 0, math.Inf(1), math.Inf(-1)
			for _, v := range num[k : k+width] {
				f.Sum += v
				if v < f.Min {
					f.Min = v
				}
				if v > f.Max {
					f.Max = v
				}
			}
			out[k], _ = fo.Result(&f)
		}
	}
	for ; k+4 <= len(out); k += 4 {
		v0 := num[k : k+width]
		v1, v2, v3 := num[k+1:][:len(v0)], num[k+2:][:len(v0)], num[k+3:][:len(v0)]
		var s0, s1, s2, s3 float64
		for j, v := range v0 {
			s0 += v
			s1 += v1[j]
			s2 += v2[j]
			s3 += v3[j]
		}
		for x, sum := range [4]float64{s0, s1, s2, s3} {
			f.Sum = sum
			out[k+x], _ = fo.Result(&f)
		}
	}
	for ; k < len(out); k++ {
		f.Sum = 0
		for _, v := range num[k : k+width] {
			f.Sum += v
		}
		out[k], _ = fo.Result(&f)
	}
	w.restart(i + len(out))
	return true
}

// runScratch is the sweep's per-schedule scratch: operand cursors, aggregate
// windows, and read — readOp bound once, so handing it to the VM allocates
// nothing.
type runScratch struct {
	cursors []runCursor
	windows []foldWindow
	read    func(op int, target ref.Ref) formula.Value
}

// readOp serves one cell-operand read from its cursor.
func (rs *runScratch) readOp(op int, target ref.Ref) formula.Value {
	return rs.cursors[op].at(target.Row)
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
		cu := s.cursor(a.Head.Col, a.Head.Row, z.Tail.Row)
		w := foldWindow{col: cu.col, rows: cu.rows, own: a.Head.Col == anchor.Col}
		w.acc.sumOnly = !fo.WantsExtrema()
		w.restart(cu.i)
		rs.windows = append(rs.windows, w)
	}
	return true
}

// sweepChunk is how many rows a lane sweep runs at a time: enough to amortise
// the per-instruction dispatch, few enough that the lanes stay in the L1 cache
// (a variable for the tests, which put a chunk's edge on every row).
var sweepChunk = 256

// laneBuf is a lane sweep's memory — a buffer per operand, buffer i at
// floats[i*chunk], the work lanes after them, a recurrence's results and the
// row loop's stack, the flags, and the lanes, each its operand's buffer or a
// subslice of a slab — pooled process-wide and held for one sweep, its lanes
// cleared before it goes back: no schedule, live or pooled, ever reaches a
// lane.
type laneBuf struct {
	floats []float64
	bad    []bool
	lanes  [][]float64
}

var lanePool = sync.Pool{New: func() any { return new(laneBuf) }}

// sweepCounts counts executeRun's rows by path, for the tests: lane, loop and
// interp are a partition — a span that reads nothing in its own column, one
// that does, and the rows the interpreter re-ran — and chain and slide count
// again the rows of the first two that ran on a recurrence (NumericChainRows)
// and whose folds slid (foldWindow.slide).
type sweepCounts struct{ lane, loop, interp, chain, slide uint64 }

// executeRun sweeps the next m cells of a span node, from its cursor. Cursors
// and windows are planned once against the first row swept and only move
// down; each cell's value and clean flag are written exactly once, same as
// evalLevelCell. A numeric plan sweeps lanes (sweepLanes); a program without
// one runs on the interpreter, row by row, its cell operands off the cursors.
func (e *Engine) executeRun(rs *runScratch, nd *schedNode, m int) {
	p, res := nd.prog, valueResolver{e}
	anchor := ref.Ref{Col: nd.at.Col, Row: nd.at.Row + nd.done}
	numeric := p.HasNumericSweep()
	rs.cursors = rs.cursors[:0]
	for _, op := range p.CellOps() {
		t0 := op.At(anchor)
		var cu runCursor
		if op.RowFixed {
			// The anchor column is constant across the run, so a row-fixed
			// operand resolves to one position: read it once. One that does
			// not coerce sends every row to the interpreter.
			cu.fixed, cu.v = true, res.CellValue(t0)
			if _, ok := cu.v.AsNumber(); !ok {
				numeric = false
			}
		} else {
			cu.cur = e.store.cursor(t0.Col, t0.Row, t0.Row+m-1)
			cu.own, cu.d = t0.Col == anchor.Col, t0.Row-anchor.Row
		}
		rs.cursors = append(rs.cursors, cu)
	}
	numeric = numeric && rs.planWindows(&e.store, p.FoldOps(), anchor, m)
	defer clear(rs.windows) // the pooled scratch must not pin the slabs (poolSchedule clears the cursors)
	if numeric {
		e.sweepLanes(rs, nd, m, anchor)
		return
	}
	at, col := anchor, nd.col
	for i := nd.i + nd.done; i < nd.i+nd.done+m; i++ {
		col.put(i, p.EvalCells(res, at, rs.read))
		col.meta[i].dirty = false
		at.Row++
	}
	e.swept.interp += uint64(m)
}

// sweepLanes is executeRun over float lanes, a chunk of rows at a time. What
// the span reads in other columns is a lane: a slab's floats as they lie, or
// their coercions gathered. What it reads in its own column — a running
// balance, a cumulative fold — is what the rows above just wrote. A recurrence
// (formula.NumericChain) that reads its own column only through prev carries
// prev down the chunk in a register (NumericChainRows); past the row it stops
// at, and in every other span that reads its own column, the plan runs row by
// row (NumericSweepRow, the lane sweep's operations in its order) over the
// lanes and its own column's records and live windows.
func (e *Engine) sweepLanes(rs *runScratch, nd *schedNode, m int, anchor ref.Ref) {
	p, res := nd.prog, valueResolver{e}
	ops, folds := p.CellOps(), p.FoldOps()
	prevOp, chain := p.NumericChain()
	own := false
	for i := range rs.cursors {
		if rs.cursors[i].own {
			own, chain = true, chain && i == prevOp
		}
	}
	for i := range rs.windows {
		if rs.windows[i].own {
			own, chain = true, false
		}
	}
	nin, depth, chunk := len(ops)+len(folds), p.NumericWork(), min(m, sweepChunk)
	lb := lanePool.Get().(*laneBuf)
	if per := nin + depth + 1; cap(lb.floats) < per*chunk+depth {
		lb.floats = make([]float64, per*sweepChunk+depth) // a full chunk's: a budget cuts sweeps of every length
	}
	if cap(lb.bad) < chunk {
		lb.bad = make([]bool, sweepChunk)
	}
	if cap(lb.lanes) < nin {
		lb.lanes = make([][]float64, nin)
	}
	bufs, work := lb.floats[:nin*chunk], lb.floats[nin*chunk:][:depth*chunk]
	rec, stack := lb.floats[(nin+depth)*chunk:][:chunk], lb.floats[(nin+depth+1)*chunk:][:depth]
	bad, lanes := lb.bad[:chunk], lb.lanes[:nin]
	buf := func(i, n int) []float64 { return bufs[i*chunk:][:n] }
	for i := range ops {
		if cu := &rs.cursors[i]; cu.fixed {
			f, _ := cu.v.AsNumber()
			lane := buf(i, chunk)
			for k := range lane {
				lane[k] = f
			}
		}
	}
	col, at, flagged := nd.col, anchor, 0
	for lo, end := nd.i+nd.done, nd.i+nd.done+m; lo < end; lo += chunk {
		n, slid := min(chunk, end-lo), false
		clear(bad[:n])
		for i, op := range ops {
			if cu := &rs.cursors[i]; cu.fixed || cu.own {
				lanes[i] = buf(i, n)
			} else {
				lanes[i] = cu.gather(op.At(at).Row, buf(i, n), bad)
			}
		}
		for i, fo := range folds {
			lanes[len(ops)+i] = buf(len(ops)+i, n)
			if w := &rs.windows[i]; !w.own && w.lane(fo, at, lanes[len(ops)+i], bad) {
				slid = true
			}
		}
		// out holds the rows' values, those of the first carried ones on a recurrence.
		var out []float64
		carried := 0
		switch {
		case !own:
			out = p.NumericSweepRows(lanes, work, n, bad)
		case chain:
			if prev, ok := rs.cursors[prevOp].selfAt(nd, at.Row-nd.at.Row-1); ok {
				carried, out = p.NumericChainRows(lanes, work, n, bad, prev, rec), rec
			}
		}
		chunkFlagged := flagged
		meta, num := col.meta[lo:lo+n], col.num[lo:lo+n]
		for k := range n {
			fast := !bad[k]
			var f float64
			if k < carried || !own && fast {
				f = out[k]
			} else if fast {
				// The row loop: what the span reads of its own column goes
				// into the row's lane slots, and the plan runs on the row.
				j := at.Row - nd.at.Row
				for x := 0; fast && x < len(ops); x++ {
					if cu := &rs.cursors[x]; cu.own {
						lanes[x][k], fast = cu.selfAt(nd, j+cu.d)
					}
				}
				for x := 0; fast && x < len(folds); x++ {
					if w := &rs.windows[x]; w.own {
						rng := folds[x].At(at)
						lanes[len(ops)+x][k], fast = folds[x].Result(w.fold(rng.Head.Row, rng.Tail.Row))
					}
				}
				if fast {
					f, fast = p.NumericSweepRow(lanes, k, stack)
				}
			}
			switch m := &meta[k]; {
			case fast && m.kind == formula.KindNumber:
				num[k] = f // over a number, the float alone changes
			case fast:
				col.put(lo+k, formula.Num(f))
			default:
				// Operands through the cursors, ranges through the resolver:
				// probe is idempotent for its row, and a half-advanced window
				// is harmless.
				col.put(lo+k, p.EvalCells(res, at, rs.read))
				flagged++
			}
			meta[k].dirty = false
			at.Row++
		}
		e.swept.chain += uint64(carried)
		if slid {
			e.swept.slide += uint64(n - (flagged - chunkFlagged))
		}
		for i := range rs.cursors {
			if cu := &rs.cursors[i]; !cu.fixed && !cu.own {
				cu.cur.i = cu.end
			}
		}
	}
	clear(lanes)
	lanePool.Put(lb)
	if own {
		e.swept.loop += uint64(m - flagged)
	} else {
		e.swept.lane += uint64(m - flagged)
	}
	e.swept.interp += uint64(flagged)
}
