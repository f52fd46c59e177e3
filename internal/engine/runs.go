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
// total what entered. A numeric-plan span then runs on lanes (sweepLanes),
// sweepChunk rows at a time. Gather: each relative operand in another column
// has its AsNumber coercions read straight off its slab window into a
// []float64 lane (fixed operands are broadcast once), each aggregate over
// another column its per-row Result into a lane of its own. Run: a span that
// reads nothing in its own column runs formula.NumericSweepRows, the plan one
// instruction at a time over whole lanes — per row NumericSweepRow's float
// operations in NumericSweepRow's order, so the same bits. Bad rows: one whose
// operand does not coerce, whose aggregate is not a number or whose divisor is
// zero is flagged by the step that met it and evaluated by the generic
// interpreter, which owns every error and coercion outcome.
//
// A span that reads its own column (a running balance, a cumulative fold) must
// see what the row above just wrote, so those reads are not gathered: the row
// loop takes them a row at a time into the row's lane slots — an operand k
// rows up carried from the record the sweep wrote k rows before (a span's rows
// are contiguous), or off the slab above the span; a fold off its live window
// — and runs the plan on that row (NumericSweepRow). Chunks of one row on the
// lane path, the other way to one loop, cost a tenth of the ledger's rate
// edit. A program without a numeric plan runs on the interpreter, row by row,
// off the same cursors. Every value a run reads was settled by an earlier
// level or an earlier row of the same sweep — a span that reads itself is only
// carved when it reads strictly upwards — and no float expression is
// reassociated (no sliding, pairwise or blocked sum), so results, errors and
// #CYCLE! from earlier levels included, are bit-identical to the walk.

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
		rows, cells := col.rows, col.cells
		at := func(i int) ref.Ref { return ref.Ref{Col: ci, Row: rows[i]} }
		singles := func(i, j int) {
			for ; i < j; i++ {
				if dense || cells[i].dirty {
					sch.addNode(at(i), cells[i:i+1], nil)
				}
			}
		}
		if !e.patternRuns {
			singles(lo, hi)
			return true
		}
		runs := col.runs
		if dense && lo == 0 && hi == len(cells) {
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
					for a < z && !cells[a].dirty {
						a++
					}
					for b = a; b < z && cells[b].dirty; b++ {
					}
				}
				sweepable = b-a >= minPatternRun
				if sweepable {
					span = ref.Range{Head: at(a), Tail: at(b - 1)}
					e.spanPrecedents(sch, at(a), cells[a:b], runs[k].p, check)
				}
				if sweepable {
					sch.addNode(at(a), cells[a:b], runs[k].p)
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

// selfAt is an own-column operand's value at the span nd's row index j: a row
// of the span itself is its record — the rows are contiguous, and an ascending
// sweep has computed every one it reads (see carve) — and a row outside it
// comes off the slab.
func (cu *runCursor) selfAt(nd *schedNode, j int) *formula.Value {
	if j >= 0 && j < len(nd.cells) {
		return &nd.cells[j].value
	}
	return cu.at(nd.at.Row + j)
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
// so a span over its own column (own) folds what the rows above just wrote —
// and acc holds the fold of cells[lo:hi], the current row's range. While a lane
// sweep has its chunk's records gathered, nums[i-base] is cells[i]'s float.
type foldWindow struct {
	rows   []int
	cells  []cell
	lo, hi int
	acc    foldAcc
	nums   []float64
	base   int
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
// windows, and read — readOp bound once, so handing it to the VM allocates
// nothing.
type runScratch struct {
	cursors []runCursor
	windows []foldWindow
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
		w := foldWindow{own: a.Head.Col == anchor.Col}
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
// held for one sweep: no schedule, live or pooled, ever reaches a lane.
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
			if _, ok := asNumber(&cu.v); !ok {
				numeric = false
			}
		} else if col := e.store.cols[t0.Col]; col != nil {
			cu.cur.rows, cu.cur.cells = col.view(t0.Row, t0.Row+m-1)
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
	at := anchor
	for k := range m {
		c := &nd.cells[nd.done+k]
		c.value = p.EvalCells(res, at, rs.read)
		c.dirty = false
		at.Row++
	}
	e.swept.interp += uint64(m)
}

// sweepLanes is executeRun over gathered float lanes, a chunk of rows at a
// time. What the span reads in other columns is gathered; what it reads in its
// own column — a running balance, a cumulative fold — is what the rows above
// just wrote, so a span that reads it runs the plan row by row (NumericSweepRow,
// the lane sweep's operations in its order) over the gathered floats and its
// own column's records and live windows.
func (e *Engine) sweepLanes(rs *runScratch, nd *schedNode, m int, anchor ref.Ref) {
	p, res := nd.prog, valueResolver{e}
	ops, folds := p.CellOps(), p.FoldOps()
	own := false
	for i := range rs.cursors {
		own = own || rs.cursors[i].own
	}
	for i := range rs.windows {
		own = own || rs.windows[i].own
	}
	chunk, nlanes := min(m, sweepChunk), len(ops)+len(folds)+p.NumericWork()
	lb := lanePool.Get().(*laneBuf)
	if per := nlanes + len(folds)*foldGatherChunks; cap(lb.floats) < per*chunk {
		lb.floats = make([]float64, per*sweepChunk) // a full chunk's: a budget cuts sweeps of every length
	}
	if cap(lb.bad) < chunk {
		lb.bad = make([]bool, sweepChunk)
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
			if cu := &rs.cursors[i]; !cu.fixed && !cu.own {
				cu.gather(op.At(at).Row, lanes[i*chunk:][:n], bad)
			}
		}
		for i, fo := range folds {
			if w := &rs.windows[i]; !w.own {
				buf := gathers[i*foldGatherChunks*chunk:][: 0 : foldGatherChunks*chunk]
				w.lane(fo, at, lanes[(len(ops)+i)*chunk:][:n], bad, buf)
			}
		}
		var out []float64
		if !own {
			out = p.NumericSweepRows(lanes, chunk, n, bad)
		}
		for k := range n {
			c, fast := &cells[k], !bad[k]
			var f float64
			if own && fast {
				// The row loop: what the span reads of its own column goes
				// into the row's lane slots, and the plan runs on the row.
				j := at.Row - nd.at.Row
				for i := 0; fast && i < len(ops); i++ {
					if cu := &rs.cursors[i]; cu.own {
						lanes[i*chunk+k], fast = asNumber(cu.selfAt(nd, j+cu.d))
					}
				}
				for i := 0; fast && i < len(folds); i++ {
					if w := &rs.windows[i]; w.own {
						rng := folds[i].At(at)
						lanes[(len(ops)+i)*chunk+k], fast = folds[i].Result(w.fold(rng.Head.Row, rng.Tail.Row))
					}
				}
				if fast {
					f, fast = p.NumericSweepRow(lanes, chunk, k)
				}
			} else if fast {
				f = out[k]
			}
			if fast {
				setNum(&c.value, f)
			} else {
				// Operands through the cursors, ranges through the resolver:
				// probe is idempotent for its row, and a half-advanced window
				// is harmless.
				c.value = p.EvalCells(res, at, rs.read)
				flagged++
			}
			c.dirty = false
			at.Row++
		}
		for i := range rs.cursors {
			if cu := &rs.cursors[i]; !cu.own {
				cu.cur.i = cu.end
			}
		}
	}
	lanePool.Put(lb)
	if own {
		e.swept.loop += uint64(m - flagged)
	} else {
		e.swept.lane += uint64(m - flagged)
	}
	e.swept.interp += uint64(flagged)
}
