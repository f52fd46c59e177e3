package engine

import (
	"slices"
	"sync"

	"taco/internal/formula"
	"taco/internal/ref"
)

// This file implements levelled (wavefront) recalculation: the dirty set is
// partitioned into topological levels — a cell's level is one past its
// deepest dirty precedent — and the levels are evaluated in order. Cells
// within a level have no dirty precedents, so every value a level's
// evaluations read is already settled: the formula evaluator runs against
// the read-only value resolver, never recurses, and the results are exactly
// the serial resolver's. What levelling buys is not concurrency but shape: a
// level is a flat batch, so it can run compiled programs on the bytecode VM,
// sweep pattern runs as vectorised loops (runs.go), and stop at any budget.
//
// The schedule is a first-class resumable object. It is built once per dirty
// generation — Kahn's algorithm over the dirty-restricted dependency
// relation, direct precedents from the graph's one-hop query intersected
// with the dirty set — and then drained level by level under a budget
// (DrainLevels). A budget that runs out mid-schedule leaves the schedule
// cached on the engine with its remaining frontier intact, so the next
// RecalculateN call resumes where the last one stopped instead of
// re-levelling the remainder: a serving layer can drain a giant dirty set in
// many short lock holds and pay for levelling exactly once. Any dirty-set
// mutation from outside a drain (an edit, a clear, a serial evaluation)
// bumps the engine's dirty generation and invalidates the cached schedule;
// the next drain simply rebuilds over whatever is dirty then. The generation
// stamp is also checked at resume time, so a schedule can never be drained
// against a dirty set it does not describe.
//
// Reference cycles are detected during levelling, not mid-evaluation: when
// Kahn stalls, the strongly connected components of the stalled subgraph are
// the cycles; their members are published as #CYCLE! and the downstream
// cells (which are stuck behind, not on, a cycle) then evaluate normally
// against those error values, propagating or rescuing them exactly as the
// serial path does.
//
// A drain runs on one goroutine — the one that called it. Evaluation never
// inserts or removes cells, so the columnar slabs, the cell map and the
// formula index are stable for its duration, and the engine is as
// single-threaded as every other write path: the caller's exclusive hold
// (a session write lock, in the server) is the only synchronisation.
// Concurrency lives a layer up, across sessions, in bounded lock holds.

const (
	// minLevelledDirty is the dirty-set size below which RecalculateAll/N
	// use the serial recursive resolver — levelling a handful of cells costs
	// more than evaluating them. A cached schedule overrides the threshold:
	// resuming it is cheaper than switching paths.
	minLevelledDirty = 64
	// smallPrecProbe is the precedent-range size up to which the linker
	// probes the dirty map per cell instead of querying the per-column
	// index. Single-cell references — all of a chain, most of a scalar
	// sheet — then never touch (or build) the index at all.
	smallPrecProbe = 8
	// maxWarmRoots bounds the edit-root list the warm-schedule cache
	// compares epochs by; epochs with more distinct roots rebuild.
	maxWarmRoots = 8
)

// schedNode is one dirty cell in the wavefront DAG.
type schedNode struct {
	at ref.Ref
	c  *cell
	// outs indexes the dirty dependents of this cell; completing the cell
	// decrements each one's nprec.
	outs []int32
	// nprec counts dirty direct precedents not yet published. nprec0 keeps
	// the linker's initial count so a warm-cached schedule can re-arm
	// without re-linking.
	nprec  int32
	nprec0 int32
	// self marks a direct self-reference: an immediate cycle, never
	// evaluated, resolved to #CYCLE! with the other cycle members.
	self bool
	// cyclic marks a cell resolved as a cycle member during levelling.
	cyclic bool
}

// schedule is the resumable wavefront schedule: the dirty set snapshotted as
// a levelled DAG at one dirty generation, with the current ready frontier.
// It lives on the engine between budgeted drains and is released back to the
// package pool on exhaustion or invalidation. Pooled instances keep their
// node array's per-slot out-edge capacity, the frontier buffers, and the
// column index's per-column slices, so a server draining sessions at a
// steady rate stops allocating once the pool warms up.
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
	// total is the node count at build time (stats).
	total int
	// cols is the lazy dirty-position index for large precedent ranges:
	// per column, (row<<32 | node index) packed and row-sorted. Rebuilt
	// per build, but only when some precedent range is too large to probe
	// cell-by-cell.
	cols     map[int][]uint64
	colsomeN int // nodes indexed so far (0 = index not built this drain)
	// order is the linker's position-sorted node permutation (batched
	// backends only; empty otherwise). planLevel reuses it to avoid
	// re-sorting each level. mark and lvl are its filter scratch buffers.
	order []int32
	mark  []bool
	lvl   []int32
	// plans caches each drained level's pattern-run partition in order;
	// planIdx is the replay cursor, reset when a warm schedule re-arms.
	// See levelPlan in runs.go.
	plans   []levelPlan
	planIdx int
}

var schedPool = sync.Pool{New: func() any {
	return &schedule{cols: make(map[int][]uint64)}
}}

// noteDirtyMutation records a dirty-set mutation from outside a wavefront
// drain: every such mutation starts a new dirty generation and invalidates
// the cached schedule (the drain's own publications do not — the schedule
// tracks those itself). Called from every write path that touches e.dirty.
// Interrupting a live (unfinished) schedule also poisons the epoch's root
// tracking: the dirty set now mixes a partial drain's remainder with new
// marks, which no root list describes.
func (e *Engine) noteDirtyMutation() {
	e.dirtyGen++
	if e.sched != nil {
		mSchedInvalidations.Inc()
		e.rootsOK = false
		e.releaseSchedule()
	}
}

// noteStructMutation records a change to the formula set or dependency
// graph: the warm-cached schedule describes a structure that no longer
// exists, so it is released (and its retained cell records unpinned).
func (e *Engine) noteStructMutation() {
	e.structGen++
	if e.warm != nil {
		e.releaseWarm()
	}
}

// releaseSchedule returns the cached schedule to the package pool, dropping
// its cell-record references so pooling does not pin them.
func (e *Engine) releaseSchedule() {
	if sch := e.sched; sch != nil {
		e.sched = nil
		poolSchedule(sch)
	}
}

// releaseWarm returns the warm-cached schedule to the package pool.
func (e *Engine) releaseWarm() {
	if sch := e.warm; sch != nil {
		e.warm = nil
		e.warmRoots = e.warmRoots[:0]
		poolSchedule(sch)
	}
}

func poolSchedule(sch *schedule) {
	sch.colsomeN = 0
	for i := range sch.nodes {
		sch.nodes[i].c = nil
	}
	sch.frontier = sch.frontier[:0]
	sch.next = sch.next[:0]
	sch.order = sch.order[:0]
	for i := range sch.plans {
		sch.plans[i] = levelPlan{} // unpin interned programs
	}
	sch.plans = sch.plans[:0]
	sch.planIdx = 0
	schedPool.Put(sch)
}

// retireSchedule moves a cleanly completed schedule into the warm cache,
// stamped with the structure generation and edit roots it is valid for. The
// retired schedule keeps its nodes, links, sort order, and column index —
// everything but the consumed nprec counters, which nprec0 restores at
// re-arm time. Unlike pooling, retirement intentionally pins the node set's
// cell records: they stay live unless a structural mutation (which releases
// the warm cache) replaces them.
func (e *Engine) retireSchedule() {
	sch := e.sched
	if sch == nil {
		return
	}
	e.sched = nil
	e.releaseWarm()
	e.warm = sch
	e.warmStruct = e.structGen
	e.warmRoots = append(e.warmRoots[:0], e.roots...)
}

// takeWarm re-arms the warm-cached schedule when the current dirty epoch is
// provably identical to the one it was built for: same formula/graph
// structure, same edit roots, cleanly tracked (rootsOK), and a matching
// dirty count. The dirty set is then exactly the cached node set — the
// graph's dependent closure is deterministic — so resetting the precedent
// counters and rebuilding the initial frontier is the whole cost: O(nodes),
// no precedent queries, no sort, no linking. This is the interactive steady
// state: the same input cell edited repeatedly re-levels nothing.
func (e *Engine) takeWarm() *schedule {
	sch := e.warm
	if sch == nil || !e.rootsOK || e.warmStruct != e.structGen ||
		len(e.dirty) != len(sch.nodes) || !slices.Equal(e.roots, e.warmRoots) {
		return nil
	}
	e.warm = nil
	sch.gen = e.dirtyGen
	sch.planIdx = 0
	sch.frontier = sch.frontier[:0]
	for i := range sch.nodes {
		nd := &sch.nodes[i]
		nd.nprec = nd.nprec0
		nd.cyclic = false
		if nd.nprec0 == 0 && !nd.self {
			sch.frontier = append(sch.frontier, int32(i))
		}
	}
	sch.total = len(sch.nodes)
	e.sched = sch
	mSchedWarmReuses.Inc()
	return sch
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
	if sch := e.takeWarm(); sch != nil {
		return sch
	}
	sch := schedPool.Get().(*schedule)
	sch.gen = e.dirtyGen
	e.buildSchedule(sch)
	e.linkSchedule(sch)
	sch.frontier = sch.frontier[:0]
	for i := range sch.nodes {
		nd := &sch.nodes[i]
		nd.nprec0 = nd.nprec
		if nd.nprec == 0 && !nd.self {
			sch.frontier = append(sch.frontier, int32(i))
		}
	}
	sch.total = len(sch.nodes)
	e.schedBuilds++
	mSchedBuilds.Inc()
	e.sched = sch
	return sch
}

// DrainLevels drains up to budget dirty cells through the resumable
// wavefront schedule, one level after another on the calling goroutine. The
// budget truncates the final level rather than splitting the schedule's
// invariants: the remainder of a truncated level stays ready in the
// frontier, the schedule stays cached on the engine, and the next call
// resumes it without re-levelling — Kahn runs once per dirty generation, not
// once per chunk. Returns the number of cells drained (evaluated or
// published as #CYCLE!).
func (e *Engine) DrainLevels(budget int) int {
	if budget <= 0 || len(e.dirty) == 0 {
		return 0
	}
	sch := e.ensureSchedule()
	drained := 0
	levels := uint64(0)
	// Whole-schedule drains defer the per-cell dirty-map deletes and clear
	// the map wholesale at the end: the live schedule's undrained nodes are
	// exactly the dirty set, so when the budget covers all of it the keyed
	// deletes are pure overhead on a large drain. Budgeted chunks keep the
	// per-cell deletes so Pending() stays exact between calls.
	remaining := len(e.dirty)
	bulk := budget >= remaining
	// Telemetry lands in one batch per call, not per cell or per level —
	// the drain loop itself never touches the shared counters.
	defer func() {
		mCellsEvaluated.Add(uint64(drained))
		mLevelsDrained.Add(levels)
	}()
	for {
		for len(sch.frontier) > 0 && drained < budget {
			level := sch.frontier
			var rest []int32
			if rem := budget - drained; len(level) > rem {
				// Truncate the level to the budget; the rest is still ready
				// (its precedents are settled) and leads the next frontier.
				level, rest = level[:rem], level[rem:]
			}
			e.runLevel(sch, level)
			e.levelsDrained++
			levels++
			drained += len(level)
			// Publish: drop the evaluated cells from the dirty set and
			// release their dependents.
			next := sch.next[:0]
			if bulk {
				for _, i := range level {
					for _, j := range sch.nodes[i].outs {
						sch.nodes[j].nprec--
						if sch.nodes[j].nprec == 0 && !sch.nodes[j].self {
							next = append(next, j)
						}
					}
				}
			} else {
				for _, i := range level {
					delete(e.dirty, sch.nodes[i].at)
					for _, j := range sch.nodes[i].outs {
						sch.nodes[j].nprec--
						if sch.nodes[j].nprec == 0 && !sch.nodes[j].self {
							next = append(next, j)
						}
					}
				}
			}
			next = append(next, rest...)
			sch.frontier, sch.next = next, sch.frontier[:0]
		}
		if len(sch.frontier) > 0 {
			// Budget exhausted mid-schedule: keep it cached for the next
			// call. Unreachable in bulk mode — the budget covers every node,
			// so the frontier cannot outlive it and no deferred deletes leak.
			return drained
		}
		if drained == remaining {
			if bulk {
				clear(e.dirty)
			}
			break
		}
		if !bulk && len(e.dirty) == 0 {
			break
		}
		if drained >= budget {
			// Budget exhausted with only cycle-bound cells left; they resolve
			// on the next call against the same cached schedule.
			return drained
		}
		// Kahn stalled with budget left: every remaining dirty cell either
		// sits on a reference cycle or depends on one. Resolve the cycles
		// and resume — the survivors form a DAG and level normally.
		freed := e.resolveCycles(sch, &drained, bulk)
		if len(freed) == 0 {
			break
		}
		sch.frontier = append(sch.frontier[:0], freed...)
	}
	if bulk && len(e.dirty) != 0 {
		// Stall exit with cells left undrained (nothing freed past a cycle):
		// reconcile the deletes the wholesale clear would have covered.
		for at, c := range e.dirty {
			if !c.dirty {
				delete(e.dirty, at)
			}
		}
	}
	if len(e.dirty) == 0 && e.rootsOK {
		e.retireSchedule()
	} else {
		e.rootsOK = false
		e.releaseSchedule()
	}
	return drained
}

// buildSchedule snapshots the dirty set into the schedule's node array,
// reusing each slot's out-edge capacity, and stamps every dirty cell record
// with its node index — the position "map" is the cell store itself, so
// linking costs dirty-map probes, not a second hash table built per drain.
func (e *Engine) buildSchedule(sch *schedule) {
	n := len(e.dirty)
	if cap(sch.nodes) < n {
		sch.nodes = append(sch.nodes[:cap(sch.nodes)], make([]schedNode, n-cap(sch.nodes))...)
	}
	nodes := sch.nodes[:n]
	i := int32(0)
	for at, c := range e.dirty {
		nd := &nodes[i]
		nd.at, nd.c = at, c
		nd.outs = nd.outs[:0]
		nd.nprec, nd.self, nd.cyclic = 0, false, false
		c.sched = i
		i++
	}
	sch.nodes = nodes
}

// linkSchedule wires the dirty-restricted dependency edges: for each node,
// its direct precedent ranges (from the graph's one-hop query, or the
// formula's own reference list for backends without one) are intersected
// with the dirty set — small ranges by probing the dirty map per cell,
// large ranges through a per-column sorted index over the dirty positions,
// built lazily on the first one (a sheet of scalar references never pays
// for the index). Duplicate edges — overlapping precedent ranges are legal
// — are kept, with nprec counted per occurrence, so release stays
// consistent.
func (e *Engine) linkSchedule(sch *schedule) {
	nodes := sch.nodes
	dp, hasDP := e.graph.(directPrecedenter)
	// One closure set per drain, re-aimed per node through cur — a closure
	// per node would be the dominant allocation of the whole drain.
	var cur int32
	addEdge := func(j int32) {
		if j == cur {
			nodes[cur].self = true
			return
		}
		nodes[j].outs = append(nodes[j].outs, cur)
		nodes[cur].nprec++
	}
	probe := func(at ref.Ref) bool {
		if c, ok := e.dirty[at]; ok {
			addEdge(c.sched)
		}
		return true
	}
	link := func(p ref.Range) bool {
		if p.Size() <= smallPrecProbe {
			p.Cells(probe)
			return true
		}
		sch.searchLarge(p, addEdge)
		return true
	}
	if bp, ok := e.graph.(batchPrecedenter); ok {
		// Batched linking: sort the nodes by position, carve the dirty set
		// into maximal contiguous column segments, and answer each segment
		// with one compressed-index search. The graph enumerates (dependent
		// cell, precedent window) pairs per covering edge — identical pairs,
		// in a different order, to the per-cell queries below — and segment
		// contiguity turns the dependent-cell-to-node lookup into row
		// arithmetic on the sorted order, no map probe. The edge pre-filter
		// discards edges whose union precedent window holds no dirty cell
		// (data-fed edges, the bulk of a sheet) before any per-cell work;
		// windows that survive link exactly as the per-cell path would.
		// Dirty value cells ride along harmlessly: no edge claims them.
		order := sch.order[:0]
		for i := range nodes {
			order = append(order, int32(i))
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := nodes[a].at.Col - nodes[b].at.Col; c != 0 {
				return c
			}
			return nodes[a].at.Row - nodes[b].at.Row
		})
		sch.order = order
		sch.buildColsFromOrder()
		skipClean := func(_, prec ref.Range) bool { return sch.dirtyOverlaps(prec) }
		for s := 0; s < len(order); {
			head := nodes[order[s]].at
			t := s + 1
			for t < len(order) {
				at := nodes[order[t]].at
				if at.Col != head.Col || at.Row != head.Row+(t-s) {
					break
				}
				t++
			}
			seg := ref.Range{Head: head, Tail: ref.Ref{Col: head.Col, Row: head.Row + (t - s - 1)}}
			base := s
			bp.DirectPrecedentsEach(seg, skipClean, func(dep ref.Ref, prec ref.Range) bool {
				cur = order[base+(dep.Row-head.Row)]
				link(prec)
				return true
			})
			s = t
		}
		return
	}
	for i := range nodes {
		n := &nodes[i]
		if n.c.ast == nil {
			continue // dirty value cell: no precedents, levels at 0
		}
		cur = int32(i)
		if hasDP {
			dp.DirectPrecedents(ref.CellRange(n.at), link)
		} else {
			for _, r := range formula.Refs(n.c.ast) {
				link(r.At)
			}
		}
	}
}

// buildColsFromOrder populates the per-column dirty-position index straight
// from the linker's position-sorted order: one pass, and every per-column
// list comes out row-sorted for free — the batched linker pays for the sort
// once and both consumers (dirtyOverlaps here, searchLarge for big windows)
// reuse it.
func (sch *schedule) buildColsFromOrder() {
	if sch.colsomeN != 0 {
		return
	}
	for c, list := range sch.cols {
		sch.cols[c] = list[:0]
	}
	for _, i := range sch.order {
		at := sch.nodes[i].at
		sch.cols[at.Col] = append(sch.cols[at.Col], uint64(at.Row)<<32|uint64(uint32(i)))
	}
	sch.colsomeN = len(sch.nodes)
}

// dirtyOverlaps reports whether any dirty cell lies inside p — the linker's
// edge pre-filter. One binary search per overlapping populated column.
func (sch *schedule) dirtyOverlaps(p ref.Range) bool {
	overlap := func(list []uint64) bool {
		lo, _ := slices.BinarySearch(list, uint64(p.Head.Row)<<32)
		return lo < len(list) && int(list[lo]>>32) <= p.Tail.Row
	}
	if p.Cols() > len(sch.cols) {
		for c, list := range sch.cols {
			if c >= p.Head.Col && c <= p.Tail.Col && overlap(list) {
				return true
			}
		}
		return false
	}
	for c := p.Head.Col; c <= p.Tail.Col; c++ {
		if list, ok := sch.cols[c]; ok && overlap(list) {
			return true
		}
	}
	return false
}

// searchLarge finds the dirty cells inside a large precedent range through
// the per-column index, building it on first use. Per populated column the
// query is one binary search plus a walk of the overlapping rows.
func (sch *schedule) searchLarge(p ref.Range, hit func(int32)) {
	if sch.colsomeN == 0 {
		for c, list := range sch.cols {
			sch.cols[c] = list[:0]
		}
		for i := range sch.nodes {
			at := sch.nodes[i].at
			sch.cols[at.Col] = append(sch.cols[at.Col], uint64(at.Row)<<32|uint64(uint32(i)))
		}
		for _, list := range sch.cols {
			slices.Sort(list) // row-major: row is the high word
		}
		sch.colsomeN = len(sch.nodes)
	}
	scan := func(list []uint64) {
		lo, _ := slices.BinarySearch(list, uint64(p.Head.Row)<<32)
		for _, packed := range list[lo:] {
			if int(packed>>32) > p.Tail.Row {
				return
			}
			hit(int32(uint32(packed)))
		}
	}
	if p.Cols() > len(sch.cols) {
		// Wider than the populated column set: walk the index instead.
		for c, list := range sch.cols {
			if c >= p.Head.Col && c <= p.Tail.Col {
				scan(list)
			}
		}
		return
	}
	for c := p.Head.Col; c <= p.Tail.Col; c++ {
		if list, ok := sch.cols[c]; ok {
			scan(list)
		}
	}
}

// runLevel evaluates one level's cells. Levels wide enough to hold a
// pattern run are first partitioned by planLevel (runs.go): detected runs
// drain as vectorized sweeps and only the leftover singles go through
// per-cell evaluation.
func (e *Engine) runLevel(sch *schedule, level []int32) {
	nodes := sch.nodes
	if e.patternRuns && len(level) >= minPatternRun {
		runs, singles, cached := sch.replayPlan(level)
		if !cached {
			runs, singles = e.planLevel(nodes, level)
			sch.recordPlan(level, runs, singles)
		}
		if len(runs) > 0 {
			mPatternRuns.Add(uint64(len(runs)))
			mPatternRunCells.Add(uint64(len(level) - len(singles)))
			for i := range runs {
				e.executeRun(nodes, &runs[i])
			}
			level = singles
		}
	}
	for _, i := range level {
		e.evalLevelCell(&nodes[i])
	}
}

// evalLevelCell evaluates one levelled cell against the engine's read-only
// value resolver. Every precedent is settled by construction (it sits in an
// earlier level, already drained), so unlike the serial evalResolver this
// never recurses and never consults cycle flags — the writes are to the
// cell itself (value, dirty, and the lazily compiled program, cached on
// first drain). Compiled formulas run on the bytecode VM — bit-identical to
// the walker by the VM's equivalence contract (see formula/compile.go); the
// walker remains the fallback for uncompilable expressions.
func (e *Engine) evalLevelCell(n *schedNode) {
	if n.c.ast != nil {
		if p := e.prog(n.at, n.c); p != nil {
			n.c.value = p.EvalAt(valueResolver{e}, n.at)
		} else {
			n.c.value = formula.Eval(n.c.ast, valueResolver{e})
		}
	}
	n.c.dirty = false
}

// resolveCycles handles a stalled schedule: the strongly connected
// components of the still-dirty subgraph that contain a cycle (size > 1, or
// a direct self-reference) are exactly the cells the serial resolver would
// poison, and every one of their members is published as #CYCLE! without
// evaluation. Dependents released by the poisoned cells are returned as the
// next frontier; they evaluate normally and see the error values, so
// propagation (and IFERROR-style rescue) downstream of a cycle matches the
// serial path. drained is advanced by the number of cells resolved.
// deferDirty skips the per-cell dirty-map deletes for bulk drains, which
// reconcile the map wholesale on exit (see DrainLevels).
func (e *Engine) resolveCycles(sch *schedule, drained *int, deferDirty bool) []int32 {
	nodes := sch.nodes
	stalled := func(i int32) bool { return nodes[i].c.dirty && !nodes[i].cyclic }

	// Tarjan over the stalled subgraph. Iterative: a chain stuck behind a
	// cycle can be as deep as the dirty set itself.
	const unvisited = -1
	idx := make([]int32, len(nodes))
	low := make([]int32, len(nodes))
	onStack := make([]bool, len(nodes))
	for i := range idx {
		idx[i] = unvisited
	}
	var clock int32
	var stack, members []int32
	type frame struct {
		node int32
		edge int
	}
	var cyclic []int32
	var frames []frame
	for root := range nodes {
		if idx[root] != unvisited || !stalled(int32(root)) {
			continue
		}
		frames = append(frames[:0], frame{node: int32(root)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.node
			if f.edge == 0 {
				idx[v], low[v] = clock, clock
				clock++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.edge < len(nodes[v].outs) {
				w := nodes[v].outs[f.edge]
				f.edge++
				if !stalled(w) {
					continue
				}
				if idx[w] == unvisited {
					frames = append(frames, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] {
					low[v] = min(low[v], idx[w])
				}
			}
			if advanced {
				continue
			}
			if low[v] == idx[v] {
				members = members[:0]
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					members = append(members, w)
					if w == v {
						break
					}
				}
				if len(members) > 1 || nodes[v].self {
					for _, w := range members {
						nodes[w].cyclic = true
						cyclic = append(cyclic, w)
					}
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				low[p] = min(low[p], low[v])
			}
		}
	}

	// Publish the poisoned cells and release their dependents.
	mCycleCells.Add(uint64(len(cyclic)))
	var freed []int32
	for _, i := range cyclic {
		n := &nodes[i]
		if n.c.ast != nil {
			n.c.value = formula.Errorf("#CYCLE!")
		}
		n.c.dirty = false
		if !deferDirty {
			delete(e.dirty, n.at)
		}
		*drained++
	}
	for _, i := range cyclic {
		for _, j := range nodes[i].outs {
			nodes[j].nprec--
			if nodes[j].nprec == 0 && !nodes[j].self && !nodes[j].cyclic {
				freed = append(freed, j)
			}
		}
	}
	return freed
}
