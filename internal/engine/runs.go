package engine

import (
	"math"
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
// detection does not read it off the edges: it is keyed on the canonical
// compile cache (shifted copies of a formula intern to one *Program;
// membership is pointer equality), which every backend shares and no edit
// history fragments. It happens once per schedule build, during the
// column-major walk of the dirty spans that enumerates the set anyway.
//
// A sweep plans one cursor per compiled cell operand — a row-fixed operand is
// one position for the whole run, read once; a relative-row one a slab window
// that only moves down — and one foldWindow per range the numeric plan folds
// (SUM, AVERAGE, COUNT, COUNTA, MIN, MAX of one single-column range), whose
// ends only move down too: a sliding window costs its width per row, a running
// total what entered. A numeric-plan span that reads nothing in its own column
// then runs lanes, not rows (sweepLanes), sweepChunk rows at a time. Gather:
// each relative operand's AsNumber coercions go straight off its slab window
// into a []float64 lane (fixed operands are broadcast once), each aggregate's
// per-row Result into a lane of its own. Run: formula.NumericSweepRows executes
// the plan one instruction at a time over whole lanes — per row NumericSweep's
// float operations in NumericSweep's order, so the same bits. Bad rows: one
// whose operand does not coerce, whose aggregate is not a number or whose
// divisor is zero is flagged by the step that met it and evaluated by the
// generic interpreter, which owns every error and coercion outcome.
//
// A span that reads its own column (a running balance, a cumulative fold) must
// see what the row above just wrote, and a program without a numeric plan has
// no lanes to run on: those stay on executeRun's row loop, one evaluation per
// row off the same cursors and windows (as chunks of one row they cost a tenth
// of the ledger's rate edit). Every value a run reads was settled by an earlier
// level or an earlier row of the same sweep — a span that reads itself is only
// carved when it reads strictly upwards — and no float expression is
// reassociated (no sliding, pairwise or blocked sum), so results, errors and
// #CYCLE! from earlier levels included, are bit-identical to the serial AST path.

// minPatternRun is the run length below which a span is not carved: planning
// cursors for a handful of cells costs more than evaluating them.
const minPatternRun = 8

// carve walks the dirty spans column-major and appends the schedule's nodes.
// A maximal run of contiguous flagged rows whose cells intern to one compiled
// program becomes one span node when pattern runs are on (SetPatternRuns), it
// is at least minPatternRun long and an ascending sweep can order it — its
// cells read, inside the run, only rows above their own. Every other dirty
// cell is a node of its own: value cells, uncompilable formulas, short or
// unsweepable runs, every cell when pattern runs are off.
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
	e.store.dirtyWindows(func(ci int, rows []int, cells []cell) bool {
		at := func(k int) ref.Ref { return ref.Ref{Col: ci, Row: rows[k]} }
		for i := 0; i < len(cells); {
			c := &cells[i]
			if !c.dirty {
				i++
				continue
			}
			j := i + 1
			var p *formula.Program
			if e.patternRuns && c.ast != nil {
				p = e.prog(at(i), c) // nil when the compiler declines the formula
			}
			for p != nil && j < len(cells) && cells[j].dirty && rows[j] == rows[j-1]+1 &&
				cells[j].ast != nil && e.prog(at(j), &cells[j]) == p {
				j++
			}
			sweepable = j-i >= minPatternRun
			if sweepable {
				span = ref.Range{Head: at(i), Tail: at(j - 1)}
				e.spanPrecedents(sch, at(i), cells[i:j], p, check)
			}
			if sweepable {
				sch.addNode(at(i), cells[i:j], p)
				i = j
				continue
			}
			for ; i < j; i++ {
				sch.addNode(at(i), cells[i:i+1], nil)
			}
		}
		return true
	})
}

// runCursor feeds one compiled cell operand during a sweep: a row-fixed
// operand is a single pre-read value, a relative-row operand an advancing
// slab window — an empty one when its column is unpopulated. A gather leaves it
// at the chunk's first row, for a flagged row to probe, and its end in end.
type runCursor struct {
	fixed bool
	v     formula.Value
	cur   foldCursor
	end   int
}

// asNumber is v.AsNumber() without copying a number's Value to read its float.
func asNumber(v *formula.Value) (float64, bool) {
	if v.Kind == formula.KindNumber {
		return v.Num, true
	}
	return v.AsNumber()
}

// setNum is *v = formula.Num(f), in eight bytes and no write barrier over a number.
func setNum(v *formula.Value, f float64) {
	if v.Kind == formula.KindNumber {
		v.Num = f
	} else {
		*v = formula.Num(f)
	}
}

// blank is what a missing cell reads as: Empty, as valueResolver.CellValue
// would return it.
var blank formula.Value

// at is the operand's value at row, in place.
func (cu *runCursor) at(row int) *formula.Value {
	if cu.fixed {
		return &cu.v
	}
	if c := cu.cur.probe(row); c != nil {
		return &c.value
	}
	return &blank
}

// gather reads a relative operand's AsNumber coercions at the len(lane) rows
// from row, on a copy of the cursor; bad flags a failed one.
func (cu *runCursor) gather(row int, lane []float64, bad []bool) {
	cur, n := cu.cur, len(lane)
	cur.probe(row)
	// Rows ascend without repeats: if the n-th from here is row+n-1, none is missing.
	gapless := cur.i+n <= len(cur.rows) && cur.rows[cur.i+n-1] == row+n-1
	for k := range lane {
		v := &blank
		if gapless {
			v = &cur.cells[cur.i+k].value
		} else if c := cur.probe(row + k); c != nil {
			v = &c.value
		}
		var ok bool
		if lane[k], ok = asNumber(v); !ok {
			bad[k] = true
		}
	}
	if cu.end = cur.i; gapless {
		cu.end += n
	}
}

// foldWindow feeds one aggregate of the numeric plan during a sweep. rows and
// cells are the slab window spanning every row's range — the live records,
// so a span over its own column folds what the rows above just wrote — and
// acc holds the fold of cells[lo:hi], the current row's range. While a lane
// sweep has its chunk's records gathered, nums[i-base] is cells[i]'s float.
type foldWindow struct {
	rows   []int
	cells  []cell
	lo, hi int
	acc    foldAcc
	nums   []float64
	base   int
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
// records that entered — the same additions in the same order, floats for
// records when they were gathered. One whose head moved starts over: sliding
// it, adding the entering cell and dropping the leaving one, is another sum.
func (w *foldWindow) fold(head, tail int) *formula.NumericFold {
	w.seek(head)
	hi, f := w.hi, &w.acc.f
	for hi < len(w.rows) && w.rows[hi] <= tail {
		hi++
	}
	if w.nums == nil {
		for i := w.hi; i < hi; i++ {
			w.acc.add(ref.Ref{}, &w.cells[i])
		}
	} else {
		in, sum := w.nums[w.hi-w.base:hi-w.base], f.Sum
		for _, v := range in {
			sum += v
		}
		f.Sum, f.Count, f.NonEmpty = sum, f.Count+len(in), f.NonEmpty+len(in)
		if !w.acc.sumOnly {
			for _, v := range in {
				if v < f.Min {
					f.Min = v
				}
				if v > f.Max {
					f.Max = v
				}
			}
		}
	}
	w.hi = hi
	return f
}

// lane is fold for the len(out) rows from at — each row's Result, one the
// interpreter answers with an error flagged in bad. The records those rows can
// add — from the first head on, or from where the window stands if its head
// stays — are gathered into buf first when they fit and are all numbers.
func (w *foldWindow) lane(fo formula.FoldOp, at ref.Ref, out []float64, bad []bool, buf []float64) {
	a, z := fo.At(at), fo.At(ref.Ref{Col: at.Col, Row: at.Row + len(out) - 1})
	head, tail := a.Head.Row, a.Tail.Row
	dh, dt := min(1, z.Head.Row-head), min(1, z.Tail.Row-tail) // an end stays or moves a row a row
	w.seek(head)
	w.base, w.nums = w.lo, buf[:0]
	if dh == 0 {
		w.base = w.hi // the head stays: only what enters
	}
	for i := w.base; i < len(w.rows) && w.rows[i] <= z.Tail.Row; i++ {
		v := &w.cells[i].value
		if v.Kind != formula.KindNumber || len(w.nums) == cap(buf) {
			w.nums = nil // this chunk folds its records
			break
		}
		w.nums = append(w.nums, v.Num)
	}
	for k := range out {
		var ok bool
		if out[k], ok = fo.Result(w.fold(head, tail)); !ok {
			bad[k] = true
		}
		head, tail = head+dh, tail+dt
	}
}

// runScratch is the sweep's per-schedule scratch: operand cursors, aggregate
// windows, the row loop's operand buffer (cells, then aggregates), and read —
// readOp bound once, so handing it to the VM allocates nothing.
type runScratch struct {
	cursors []runCursor
	windows []foldWindow
	vals    []float64
	read    func(op int, target ref.Ref) formula.Value
}

// readOp serves one cell-operand read from its cursor.
func (rs *runScratch) readOp(op int, target ref.Ref) formula.Value {
	return *rs.cursors[op].at(target.Row)
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
			w.rows, w.cells = col.view(a.Head.Row, z.Tail.Row)
		}
		w.acc.sumOnly = !fo.WantsExtrema()
		w.restart(0)
		rs.windows = append(rs.windows, w)
	}
	return true
}

// sweepChunk is how many rows a lane sweep gathers and runs at a time: enough
// to amortise the per-instruction dispatch, few enough that the lanes stay in
// the L1 cache (a variable for the tests, which put a chunk's edge on every
// row). foldGatherChunks caps, in chunks, the floats a window gathers: a
// running total adds a chunk, a sliding window a chunk plus its width — one
// wider than the rest of the cap folds its records.
var sweepChunk = 256

const foldGatherChunks = 8

// laneBuf is a lane sweep's memory — the lanes, lane i at floats[i*chunk], one
// gather buffer per aggregate after them, the flags — pooled process-wide and
// held for one sweep: no schedule, live, warm or pooled, ever reaches a lane.
type laneBuf struct {
	floats []float64
	bad    []bool
}

var lanePool = sync.Pool{New: func() any { return new(laneBuf) }}

// sweepCounts counts executeRun's rows by path, for the tests.
type sweepCounts struct{ lane, loop, interp uint64 }

// executeRun sweeps the next m cells of a span node, from its cursor. Cursors
// and windows are planned once against the first row swept and only move
// down; each cell's value and clean flag are written exactly once, same as
// evalLevelCell. Lanes or rows: see the head of this file.
func (e *Engine) executeRun(rs *runScratch, nd *schedNode, m int) {
	p, res := nd.prog, valueResolver{e}
	anchor := ref.Ref{Col: nd.at.Col, Row: nd.at.Row + nd.done}
	ops, folds := p.CellOps(), p.FoldOps()
	own, numeric := false, p.HasNumericSweep()
	rs.cursors = rs.cursors[:0]
	for _, op := range ops {
		t0 := op.At(anchor)
		own = own || t0.Col == anchor.Col
		var cu runCursor
		if op.RowFixed {
			// The anchor column is constant across the run, so a row-fixed
			// operand resolves to one position: read it once. One that does
			// not coerce sends every row to the interpreter.
			cu.fixed, cu.v = true, res.CellValue(t0)
			if _, ok := asNumber(&cu.v); !ok {
				numeric = false
			}
		} else if col := e.store.cols[t0.Col]; col != nil {
			cu.cur.rows, cu.cur.cells = col.view(t0.Row, t0.Row+m-1)
		}
		rs.cursors = append(rs.cursors, cu)
	}
	for _, fo := range folds {
		own = own || fo.At(anchor).Head.Col == anchor.Col
	}
	numeric = numeric && rs.planWindows(&e.store, folds, anchor, m)
	defer clear(rs.windows) // the pooled scratch must not pin the slabs (poolSchedule clears the cursors)
	if numeric && !own {
		e.sweepLanes(rs, nd, m, anchor)
		return
	}
	// The row loop. With numeric set each row tries the float fast path —
	// operands coerced, aggregates folded off their windows, the plan on a
	// bare float64 stack — and one the lane sweep would flag re-runs on the
	// interpreter: probe is idempotent for its row, and ranges it resolves
	// itself, so a half-advanced window is harmless.
	if n := len(ops) + len(folds); cap(rs.vals) < n {
		rs.vals = make([]float64, n)
	}
	vals := rs.vals[:len(ops)+len(folds)]
	at, slow := anchor, 0
	cells := nd.cells[nd.done : nd.done+m]
	for k := range cells {
		c, fast := &cells[k], numeric
		for i := 0; fast && i < len(ops); i++ {
			vals[i], fast = asNumber(rs.cursors[i].at(ops[i].At(at).Row))
		}
		for i := 0; fast && i < len(folds); i++ {
			rng := folds[i].At(at)
			vals[len(ops)+i], fast = folds[i].Result(rs.windows[i].fold(rng.Head.Row, rng.Tail.Row))
		}
		var f float64
		if fast {
			f, fast = p.NumericSweep(vals)
		}
		if fast {
			setNum(&c.value, f)
		} else {
			c.value = p.EvalCells(res, at, rs.read)
			slow++
		}
		c.dirty = false
		at.Row++
	}
	e.swept.loop += uint64(m - slow)
	e.swept.interp += uint64(slow)
}

// sweepLanes is executeRun over gathered float lanes, a chunk of rows at a time.
func (e *Engine) sweepLanes(rs *runScratch, nd *schedNode, m int, anchor ref.Ref) {
	p, res := nd.prog, valueResolver{e}
	ops, folds := p.CellOps(), p.FoldOps()
	chunk, nlanes := min(m, sweepChunk), len(ops)+len(folds)+p.NumericWork()
	lb := lanePool.Get().(*laneBuf)
	if need := (nlanes + len(folds)*foldGatherChunks) * chunk; cap(lb.floats) < need {
		lb.floats = make([]float64, need)
	}
	if cap(lb.bad) < chunk {
		lb.bad = make([]bool, chunk)
	}
	lanes, gathers, bad := lb.floats[:nlanes*chunk], lb.floats[nlanes*chunk:], lb.bad[:chunk]
	for i := range ops {
		if cu := &rs.cursors[i]; cu.fixed {
			f, _ := asNumber(&cu.v)
			lane := lanes[i*chunk:][:chunk]
			for k := range lane {
				lane[k] = f
			}
		}
	}
	at, flagged := anchor, 0
	for cells := nd.cells[nd.done : nd.done+m]; len(cells) > 0; cells = cells[min(chunk, len(cells)):] {
		n := min(chunk, len(cells))
		clear(bad[:n])
		for i, op := range ops {
			if !op.RowFixed {
				rs.cursors[i].gather(op.At(at).Row, lanes[i*chunk:][:n], bad)
			}
		}
		for i, fo := range folds {
			buf := gathers[i*foldGatherChunks*chunk:][: 0 : foldGatherChunks*chunk]
			rs.windows[i].lane(fo, at, lanes[(len(ops)+i)*chunk:][:n], bad, buf)
		}
		out := p.NumericSweepRows(lanes, chunk, n, bad)
		for k := range n {
			c := &cells[k]
			if bad[k] {
				// Operands through the cursors, ranges through the resolver.
				c.value = p.EvalCells(res, at, rs.read)
				flagged++
			} else {
				setNum(&c.value, out[k])
			}
			c.dirty = false
			at.Row++
		}
		for i := range rs.cursors {
			rs.cursors[i].cur.i = rs.cursors[i].end
		}
	}
	lanePool.Put(lb)
	e.swept.lane += uint64(m - flagged)
	e.swept.interp += uint64(flagged)
}
