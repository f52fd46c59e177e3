package engine

import (
	"slices"
	"sync"

	"taco/internal/formula"
	"taco/internal/ref"
)

// This file implements levelled (wavefront) recalculation. The unit of the
// schedule is the column span, not the cell: the dirty set is carved, in one
// column-major pass over the dirty spans on the slabs, into nodes that are
// each a run of contiguous dirty rows of one column — a whole pattern run when
// the cells share one compiled program (runs.go), a single cell otherwise. The
// carve rediscovers nothing an edit did not change: each column keeps its run
// table across epochs, repaired where a write lands (colstore.go), and a span
// the marking pass flagged whole — a dense one — is cut against it in time
// proportional to the nodes it yields, not to its records. The nodes are
// partitioned into topological levels — a node's level is one past its
// deepest dirty precedent node — and the levels are evaluated in order.
// Nodes within a level have no unsettled precedents outside themselves, so
// the evaluator runs against the read-only value resolver, never waits on a
// dirty cell, and the results are exactly the walk's. What levelling buys is
// not concurrency but shape: a node is a flat batch, so it can run compiled
// programs on the bytecode VM as one vectorised sweep and stop at any budget.
//
// Links are per span too, and come from the formulas, not from the graph: what
// a cell reads is written in it, so the graph is asked only what cannot be
// answered without an index — the dependents of an edit, which set the dirty
// flags. A node's operands, resolved at its first row and at its last, give
// per operand the union precedent window of the span (spanPrecedents), and
// intersecting that window with a per-column row-sorted index of the nodes
// gives the in-edges. The schedule is therefore a function of the sheet's
// formulas and dirty flags alone: the same under TACO, NoComp or any other
// Graph, however fragmented the compressed edges are. Coarse windows
// only add ordering, which costs nothing on one goroutine — with two
// exceptions, both about spans depending on themselves:
//
//   - A span whose precedent window overlaps the span stays whole only if an
//     ascending sweep is a valid order: every cell reads, inside the span,
//     only rows strictly above its own (a running balance, a cumulative
//     SUM(D$1:D4)). Per-cell windows are linear in the row, so the first cell
//     decides it. Anything else — look-down, straddling, a fixed window
//     inside the span — is carved as single cells.
//   - Coarse windows can close loops the cells do not (X reads Y's previous
//     row, Y reads X's current row: two spans each waiting on the other, the
//     cells a zig-zag chain). Kahn stalls on such a loop exactly as on a
//     reference cycle, and the stall is handled the same way (below).
//
// The schedule is a first-class resumable object. It is built once per dirty
// generation and then drained level by level under a budget (DrainLevels). A
// budget that runs out mid-schedule — even inside a span, whose node keeps a
// cursor — leaves the schedule cached on the engine with its remaining
// frontier intact, so the next RecalculateN call resumes where the last one
// stopped instead of re-levelling the remainder: a serving layer can drain a
// giant dirty set in many short lock holds and pay for levelling exactly
// once. Any dirty-set mutation from outside a drain (an edit, a clear)
// bumps the engine's dirty generation and invalidates the cached schedule;
// the next drain simply rebuilds over whatever is still flagged then. The
// generation stamp is also checked at resume time, so a schedule can never
// be drained against a dirty set it does not describe. A finished schedule
// goes back to the pool, not into a cache: what one epoch shares with the
// next — which rows form runs — lives in the run tables, so the next build
// costs what re-arming a kept schedule would.
//
// Reference cycles have one semantics, the walk's (evalResolver): a read of a
// cell under evaluation is #CYCLE!. The schedule never evaluates one. When
// Kahn stalls — on a cycle or a coarse loop — the schedule is released and the
// walk drains the rest of the dirty generation, entering each cycle where a
// pinned-serial drain of the whole dirty set would (DrainLevels): a value
// never depends on how many other cells an edit dirtied.
//
// A drain runs on one goroutine — the one that called it. Evaluation never
// inserts or removes cells, so the columnar slabs — the only cell index
// there is — are stable for its duration, and the engine is as
// single-threaded as every other write path: the caller's exclusive hold
// (a session write lock, in the server) is the only synchronisation.
// Concurrency lives a layer up, across sessions, in bounded lock holds.

const (
	// minLevelledDirty is the dirty-set size below which RecalculateAll/N
	// use the walk — levelling a handful of cells costs more than evaluating
	// them. A cached schedule overrides the threshold: resuming it is cheaper
	// than switching paths.
	minLevelledDirty = 64
)

// schedNode is one span of the wavefront DAG: contiguous dirty rows of one
// column, evaluated top to bottom as a unit. A span of more than one cell is
// a pattern run — every cell interns to prog — and drains as one sweep.
type schedNode struct {
	// at is the span's first cell; cells is its slab window, cells[i] being
	// row at.Row+i. The window aliases the column slab — it is the records,
	// not a list of them — which is stable for as long as the schedule is
	// valid: an insert or delete drops it.
	at    ref.Ref
	cells []cell
	prog  *formula.Program // the shared program; nil for a single cell
	// done is the budget cursor: cells[:done] are published.
	done int
	// outs indexes the dirty dependents of this span; completing the span
	// decrements each one's nprec.
	outs []int32
	// nprec counts dirty precedent nodes not yet published.
	nprec int32
}

// schedule is the resumable wavefront schedule: the dirty set carved into a
// levelled DAG of spans at one dirty generation, with the current ready
// frontier. It lives on the engine between budgeted drains and is released
// back to the package pool on exhaustion or invalidation. Pooled instances
// keep their node array's per-slot out-edge capacity, the frontier buffers,
// the column index's per-column slices and the sweep scratch, so a server
// draining sessions at a steady rate stops allocating once the pool warms up.
type schedule struct {
	nodes []schedNode
	// frontier holds the ready level: nodes whose dirty precedents have all
	// been published. next is its double buffer.
	frontier []int32
	next     []int32
	// gen is the engine's dirty generation the schedule was built at; a
	// mismatch at resume time means an edit slipped in and the schedule no
	// longer describes the dirty set.
	gen uint64
	// total is the cell count at build time (stats).
	total int
	// cols is the per-column index of the nodes, (first row<<32 | node index)
	// packed; the column-major carve appends it row-sorted.
	cols map[int][]uint64
	// reads and run are spanPrecedents' operand-window scratch and the
	// sweep's cursor scratch, stretches the carve's for a column with no run
	// table (runs.go).
	reads     []ref.Range
	run       runScratch
	stretches []colRun
}

var schedPool = sync.Pool{New: func() any {
	sch := &schedule{cols: make(map[int][]uint64)}
	sch.run.read = sch.run.readOp
	return sch
}}

// noteDirtyMutation records a dirty-set mutation from outside a drain — every
// write path that flags or cleans a cell calls it before touching a slab. It
// starts a new dirty generation, drops the walk's stack and invalidates the
// cached schedule.
func (e *Engine) noteDirtyMutation() {
	e.dirtyGen++
	e.truncate(0)
	e.walking = false
	if e.sched != nil {
		mSchedInvalidations.Inc()
		e.releaseSchedule()
	}
}

// releaseSchedule returns the cached schedule to the package pool, dropping
// its slab windows so pooling does not pin the slabs.
func (e *Engine) releaseSchedule() {
	if sch := e.sched; sch != nil {
		e.sched = nil
		poolSchedule(sch)
	}
}

// poolSchedule empties a schedule into the package pool, dropping the slab
// windows and programs its nodes reference but keeping every slice's capacity.
func poolSchedule(sch *schedule) {
	for i := range sch.nodes {
		sch.nodes[i].cells, sch.nodes[i].prog = nil, nil
	}
	sch.nodes = sch.nodes[:0]
	for c, list := range sch.cols {
		sch.cols[c] = list[:0]
	}
	sch.frontier, sch.next = sch.frontier[:0], sch.next[:0]
	clear(sch.run.cursors)
	clear(sch.stretches)
	schedPool.Put(sch)
}

// armFrontier computes the initial frontier from the linker's precedent
// counts.
func (sch *schedule) armFrontier() {
	sch.frontier = sch.frontier[:0]
	for i := range sch.nodes {
		if sch.nodes[i].nprec == 0 {
			sch.frontier = append(sch.frontier, int32(i))
		}
	}
}

// ensureSchedule returns the live schedule for the current dirty generation,
// building one if none is cached. The generation stamp check is the
// schedule-validity contract: a cached schedule is resumed only when no
// external mutation has touched the dirty set since it was built (mutations
// release the schedule eagerly, so the stamp is belt and braces — but it is
// the invariant callers may rely on).
func (e *Engine) ensureSchedule() *schedule {
	if e.sched != nil {
		if e.sched.gen == e.dirtyGen {
			mSchedResumes.Inc()
			return e.sched
		}
		e.releaseSchedule()
	}
	sch := schedPool.Get().(*schedule)
	sch.gen = e.dirtyGen
	sch.total = e.store.ndirty
	e.carve(sch)
	e.linkSchedule(sch)
	sch.armFrontier()
	e.schedBuilds++
	mSchedBuilds.Inc()
	e.sched = sch
	return sch
}

// addNode appends a node for the slab window cells starting at at, reusing
// the slot's out-edge capacity, and indexes it.
func (sch *schedule) addNode(at ref.Ref, cells []cell, p *formula.Program) {
	i := len(sch.nodes)
	if i < cap(sch.nodes) {
		sch.nodes = sch.nodes[:i+1]
	} else {
		sch.nodes = append(sch.nodes, schedNode{})
	}
	nd := &sch.nodes[i]
	*nd = schedNode{at: at, cells: cells, prog: p, outs: nd.outs[:0]}
	sch.cols[at.Col] = append(sch.cols[at.Col], uint64(at.Row)<<32|uint64(i))
}

// spanPrecedents reports what a node reads, one call per operand of its
// formula: the window the node's cells read between them, and the window the
// first cell reads alone. A span's cells share one program, which each
// compiled from its own normalised formula at its own position, so an operand
// resolves upright at the first row and at the last and moves linearly in
// between — the box around the two is the span's union window. These are the
// ranges every constructor registers with the graph as the cell's
// dependencies, the invariant dirty-marking rests on too.
func (e *Engine) spanPrecedents(sch *schedule, at ref.Ref, cells []cell, p *formula.Program, fn func(prec, first ref.Range) bool) {
	if p == nil { // a single cell
		c := &cells[0]
		if p = c.program(); p == nil {
			return // dirty value cell: no precedents, levels at 0
		}
	}
	reads := p.AppendReads(sch.reads[:0], at)
	n := len(reads)
	reads = p.AppendReads(reads, ref.Ref{Col: at.Col, Row: at.Row + len(cells) - 1})
	sch.reads = reads
	for i, first := range reads[:n] {
		if !fn(first.Bound(reads[n+i]), first) {
			return
		}
	}
}

// linkSchedule wires the dirty-restricted dependency edges: each node's
// precedent windows are intersected with the column index of the nodes.
// Duplicate edges — overlapping precedent windows are legal — are kept, with
// nprec counted per occurrence, so release stays consistent. A span's reads
// of itself were checked sweepable when it was carved and add no edge; a
// single cell reading itself gets an ordinary self-edge, so it never becomes
// ready and is left to the walk (DrainLevels).
func (e *Engine) linkSchedule(sch *schedule) {
	nodes := sch.nodes
	// One closure pair per build, re-aimed per node through cur — a closure
	// per node would be the dominant allocation of the whole build.
	var cur int32
	hit := func(j int32) {
		if j == cur && len(nodes[cur].cells) > 1 {
			return
		}
		nodes[j].outs = append(nodes[j].outs, cur)
		nodes[cur].nprec++
	}
	link := func(prec, _ ref.Range) bool {
		sch.search(prec, hit)
		return true
	}
	for i := range nodes {
		cur = int32(i)
		e.spanPrecedents(sch, nodes[i].at, nodes[i].cells, nodes[i].prog, link)
	}
}

// search reports the nodes holding a cell inside p: per indexed column, one
// binary search for the first node starting inside the window — the node
// before it may straddle the window's head — plus a walk of the rest.
func (sch *schedule) search(p ref.Range, hit func(int32)) {
	scan := func(list []uint64) {
		lo, _ := slices.BinarySearch(list, uint64(p.Head.Row)<<32)
		if lo > 0 {
			j := int32(uint32(list[lo-1]))
			if nd := &sch.nodes[j]; nd.at.Row+len(nd.cells) > p.Head.Row {
				hit(j)
			}
		}
		for _, packed := range list[lo:] {
			if int(packed>>32) > p.Tail.Row {
				return
			}
			hit(int32(uint32(packed)))
		}
	}
	if p.Cols() > len(sch.cols) {
		// Wider than the indexed column set: walk the index instead.
		for c, list := range sch.cols {
			if c >= p.Head.Col && c <= p.Tail.Col {
				scan(list)
			}
		}
		return
	}
	for c := p.Head.Col; c <= p.Tail.Col; c++ {
		if list := sch.cols[c]; len(list) > 0 {
			scan(list)
		}
	}
}

// DrainLevels drains up to budget dirty cells through the resumable
// wavefront schedule, one level after another on the calling goroutine. The
// budget truncates the final level — and the final span, whose cursor
// advances — rather than splitting the schedule's invariants: the cut span
// and the rest of its level stay ready at the head of the frontier, the
// schedule stays cached on the engine, and the next call resumes the sweep
// at that row without re-levelling — Kahn runs once per dirty generation,
// not once per chunk. When Kahn stalls — on a reference cycle, or on a loop
// only coarse span windows close — the walk drains the rest of the dirty
// generation, starting with the rest of this call's budget. Returns the cells
// drained on the levels plus the evaluations the walk ran.
func (e *Engine) DrainLevels(budget int) int {
	if budget <= 0 || e.store.ndirty == 0 {
		return 0
	}
	sch := e.ensureSchedule()
	drained := 0
	var levels, runs, runCells uint64
	// Telemetry lands in one batch per call, not per cell or per level —
	// the drain loop itself never touches the shared counters.
	defer func() {
		mCellsEvaluated.Add(uint64(drained))
		mLevelsDrained.Add(levels)
		mPatternRuns.Add(runs)
		mPatternRunCells.Add(runCells)
	}()
	for len(sch.frontier) > 0 && drained < budget {
		level, next := sch.frontier, sch.next[:0]
		start, k := drained, 0
		for k < len(level) && drained < budget {
			nd := &sch.nodes[level[k]]
			m := min(len(nd.cells)-nd.done, budget-drained)
			if len(nd.cells) == 1 {
				e.evalLevelCell(nd)
			} else {
				e.executeRun(&sch.run, nd, m)
				runs++
				runCells += uint64(m)
			}
			nd.done += m
			drained += m
			if nd.done < len(nd.cells) {
				break // the budget ended inside the span
			}
			k++
			// Publish: release the span's dependents.
			for _, j := range nd.outs {
				dep := &sch.nodes[j]
				if dep.nprec--; dep.nprec == 0 {
					next = append(next, j)
				}
			}
		}
		e.store.cleaned(drained - start)
		if k == len(level) {
			e.levelsDrained++
			levels++
		}
		// What the budget cut off is still ready (its precedents are
		// settled) and leads the next frontier; its level counts when the
		// chunk that finishes it runs.
		sch.frontier = append(append(level[:0], level[k:]...), next...)
		sch.next = next[:0]
	}
	switch {
	case len(sch.frontier) > 0:
		return drained // budget exhausted mid-schedule: stays cached
	case e.store.ndirty == 0:
		e.releaseSchedule()
		return drained
	case drained >= budget:
		// Budget exhausted with only stalled cells left: the next call
		// resumes the cached schedule straight into the stall.
		return drained
	}
	// Stalled: every unpublished cell sits on a loop of nodes or downstream of
	// one, and no published cell reads any of them. So the walk, rooted at the
	// dirty cells in column-major order, enters each reference cycle at the
	// cell a pinned-serial drain of the whole dirty set would, and the values
	// are the serial reference's, cycles included.
	e.releaseSchedule()
	return drained + e.drainSerial(budget-drained)
}

// evalLevelCell evaluates a single-cell node against the engine's read-only
// value resolver. Every precedent is settled by construction (it sits in an
// earlier level, already drained), so unlike the walk's evalResolver this
// never meets a dirty read or a cycle flag — the writes are to the cell
// itself (value, dirty, and the program, compiled on first use), run on the
// bytecode VM as the walk runs it.
func (e *Engine) evalLevelCell(n *schedNode) {
	c := &n.cells[0]
	if p := c.program(); p != nil {
		c.value = p.EvalAt(valueResolver{e}, n.at)
	}
	c.dirty = false
}
