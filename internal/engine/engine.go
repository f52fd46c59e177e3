// Package engine is a minimal spreadsheet execution host in the style of
// DATASPREAD, the system the paper integrates TACO into. It keeps a sparse
// cell store, parses and evaluates formulae, and drives recalculation
// through a pluggable formula graph — so TACO is a drop-in replacement for
// the uncompressed graph, exactly as in the paper's prototype.
//
// The engine implements the asynchronous interaction model of Sec. VI-A:
// when a cell is updated, the engine first identifies every transitive
// dependent (the step whose latency decides when control returns to the
// user) and marks those cells dirty; evaluation then proceeds separately.
package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"taco/internal/core"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/workload"
)

// Graph is the dependency-graph interface the engine drives, and all of it:
// registering and clearing a formula cell's dependencies — always exactly
// formula.Refs of its formula — and the two transitive queries. Dependents is
// the one on an edit's critical path: it decides the dirty set, and cannot be
// answered without an index. What a formula cell reads is never asked — it is
// written in the formula — so the recalculation schedule (schedule.go) is the
// same whichever Graph an engine drives. Both the TACO compressed graph and
// the NoComp baseline satisfy it via the adapters below.
type Graph interface {
	// Add registers one dependency.
	Add(d core.Dependency)
	// Clear removes the dependencies of every formula cell in s.
	Clear(s ref.Range)
	// Dependents returns the transitive dependents of r as disjoint ranges.
	Dependents(r ref.Range) []ref.Range
	// Precedents returns the transitive precedents of r as disjoint ranges.
	Precedents(r ref.Range) []ref.Range
}

// TACO adapts *core.Graph to the engine's Graph interface.
type TACO struct{ G *core.Graph }

// Add implements Graph.
func (t TACO) Add(d core.Dependency) { t.G.AddDependency(d) }

// Clear implements Graph.
func (t TACO) Clear(s ref.Range) { t.G.Clear(s) }

// Dependents implements Graph.
func (t TACO) Dependents(r ref.Range) []ref.Range { return t.G.FindDependents(r) }

// Precedents implements Graph.
func (t TACO) Precedents(r ref.Range) []ref.Range { return t.G.FindPrecedents(r) }

// NoComp adapts *nocomp.Graph to the engine's Graph interface.
type NoComp struct{ G *nocomp.Graph }

// Add implements Graph.
func (n NoComp) Add(d core.Dependency) { n.G.AddDependency(d) }

// Clear implements Graph.
func (n NoComp) Clear(s ref.Range) { n.G.Clear(s) }

// Dependents implements Graph.
func (n NoComp) Dependents(r ref.Range) []ref.Range { return n.G.FindDependents(r) }

// Precedents implements Graph.
func (n NoComp) Precedents(r ref.Range) []ref.Range { return n.G.FindPrecedents(r) }

// cellMeta is what a cell record holds beside its float (see column): 16
// bytes, the four small fields sharing the word after shape — a field added
// anywhere costs every record a word (TestRecordLayout).
type cellMeta struct {
	// shape is the cell's formula, interned by its relative structure
	// (formula.ParseShape): every row of a filled-down column holds the same
	// *Shape. At the cell's position it renders the source, lists the
	// references and gives the program every evaluation runs — interned too,
	// so shifted copies of one formula share a *Program, and pointer equality
	// is how the scheduler detects pattern runs (runs.go). nil for a value.
	shape *formula.Shape
	// slot is a string value's index in the column's strs.
	slot uint32
	// kind is the value's kind; aux its bool (0 or 1) or its ErrCode. A
	// number's float is the column's num at the record's slab index.
	kind  formula.Kind
	aux   uint8
	dirty bool
	// evaluating marks a cell the walk has started and not finished, reading
	// which is #CYCLE!: exact or speculative (see evalResolver). A flag on the
	// record, not a side map, so the hot resolver path reads it off the record
	// it already holds.
	evaluating uint8
}

// program returns the record's interned bytecode program; nil for a value.
func (m *cellMeta) program() *formula.Program {
	if m.shape == nil {
		return nil
	}
	return m.shape.Program()
}

// cell is a handle on one record: its column and its slab index, good until
// that column's next insert or delete. Handles are comparable: two name the
// same record when they are equal.
type cell struct {
	col *column
	i   int
}

// meta returns the record's meta, in place.
func (c cell) meta() *cellMeta { return &c.col.meta[c.i] }

// value builds the record's value.
func (c cell) value() formula.Value { return c.col.value(c.i) }

// record is one cell's record whole, by value — what a write installs and
// a replace or a delete hands back.
type record struct {
	value formula.Value
	shape *formula.Shape
	dirty bool
}

// Engine is a single-sheet spreadsheet host.
//
// Reads (Value, Peek, Dirty, stats) are side-effect-free: they return the
// last computed value without evaluating anything, so a serving layer can run
// them concurrently under a shared read lock. Evaluation happens only inside
// RecalculateAll / RecalculateN (and the write paths that call them) — the
// background phase of the asynchronous interaction model.
type Engine struct {
	graph Graph
	// store is the cell storage and the only cell index: column-sliced,
	// row-ordered slabs, so range reads are contiguous per-column scans and a
	// point read is a column probe plus a binary search (see colstore.go).
	store colStore
	// nformulas counts the formula cells in store (NumFormulas).
	nformulas int
	// serial is the serial-reference pin (SetSerial): true keeps every drain
	// on the walk; false, the default, lets wavefrontReady choose.
	serial bool
	// walk is the serial resolver's stack (see evalResolver), walk[:exact] its
	// exact entries, top its height when the evaluation in progress started,
	// cycled the most it read under evaluation, kids the tentative evaluations
	// it read; reader is the exact evaluation last started, tent the tentative
	// evaluations, fold says a fold's reads are exact (FoldRange), walking that
	// the walk owns the dirty generation.
	walk          []walkSlot
	exact, top    int
	cycled        uint8
	kids          []*tentative
	reader        cell
	tent          map[cell]*tentative
	fold, walking bool
	// dirtyGen counts dirty-set mutations from outside a wavefront drain.
	// The cached schedule carries the generation it was built at; a mismatch
	// means an edit intervened and the schedule no longer describes the
	// dirty set (see noteDirtyMutation / ensureSchedule).
	dirtyGen uint64
	// sched is the cached resumable wavefront schedule for the current dirty
	// generation, nil when none is live. Built by ensureSchedule, drained by
	// DrainLevels, invalidated by noteDirtyMutation.
	sched *schedule
	// levelsDrained and schedBuilds count executed wavefront levels and
	// schedule constructions — the re-levelling amortisation the resumable
	// schedule exists for is their ratio (see RecalcStats).
	levelsDrained uint64
	schedBuilds   uint64
	// patternRuns gates span nodes (runs.go): when true (the default), the
	// schedule build carves contiguous dirty rows sharing one compiled program
	// into single nodes drained as batched sweeps. SetPatternRuns(false) makes
	// every node one cell — the oracle path the sweeps must match.
	patternRuns bool
	swept       sweepCounts // rows the span sweeps evaluated, by path (runs.go)

}

// New returns an empty engine driving the given dependency graph. A nil
// graph defaults to TACO with the paper's full options.
func New(g Graph) *Engine {
	if g == nil {
		g = TACO{G: core.NewGraph(core.DefaultOptions())}
	}
	return &Engine{
		graph:       g,
		store:       newColStore(),
		patternRuns: true,
	}
}

// SetPatternRuns toggles the vectorized pattern-run drain (on by default).
// Off forces every wavefront cell through per-cell evaluation — useful as
// the equivalence oracle in tests and benchmarks. A schedule carved under
// the other setting is dropped.
func (e *Engine) SetPatternRuns(on bool) {
	if on != e.patternRuns {
		e.patternRuns = on
		e.releaseSchedule()
	}
}

// setCell installs a cell record, maintaining the formula count and the
// dirty set. A replaced formula's dependencies leave the graph with it; the
// caller registers the new record's.
func (e *Engine) setCell(at ref.Ref, c record) {
	e.noteDirtyMutation()
	old, had := e.store.set(at, c)
	if had {
		e.dropped(at, old)
	}
	if c.shape != nil {
		e.nformulas++
	}
	if c.dirty {
		e.store.noteDirty(at.Col, at.Row, at.Row, 1, true)
	}
}

// Load builds an engine from a workload sheet and evaluates everything. Its
// dependencies are registered in column-major order: with a nil g, by Alg. 2
// (core.Build) into a TACO graph; otherwise one g.Add each.
func Load(s *workload.Sheet, g Graph) (*Engine, error) {
	pcells, err := parseSheet(s)
	if err != nil {
		return nil, err
	}
	return load(pcells, func(deps []core.Dependency) Graph {
		if g == nil {
			return TACO{G: core.Build(deps, core.DefaultOptions())}
		}
		for _, d := range deps {
			g.Add(d)
		}
		return g
	}), nil
}

// LoadBulk is Load through the streaming compressor (LoadBulkParsed). Use it
// when materialising a whole sheet at once — fresh server sessions, file
// opens — and SetFormula for interactive edits.
func LoadBulk(s *workload.Sheet) (*Engine, error) {
	pcells, err := parseSheet(s)
	if err != nil {
		return nil, err
	}
	return LoadBulkParsed(pcells), nil
}

// parseSheet parses each formula of s once, at its own position: a shifted
// copy of a formula parsed before is looked up by its shape.
func parseSheet(s *workload.Sheet) ([]ParsedCell, error) {
	pcells := make([]ParsedCell, 0, len(s.Cells))
	for at, c := range s.Cells {
		if c.IsFormula() {
			shape, err := formula.ParseShape(c.Formula, at)
			if err != nil {
				return nil, fmt.Errorf("engine: cell %v: %w", at, err)
			}
			pcells = append(pcells, ParsedCell{At: at, Shape: shape})
		} else {
			pcells = append(pcells, ParsedCell{At: at, Value: c.Value})
		}
	}
	return pcells, nil
}

// ParsedCell is a pre-parsed cell for LoadBulkParsed: a formula (its shape,
// parsed at At) or a pure value. Callers that already parsed their input —
// batch validation, file loaders — hand the shapes over instead of paying a
// second lookup.
type ParsedCell struct {
	At    ref.Ref
	Shape *formula.Shape // formula.ParseShape of the source at At; nil for value cells
	Value formula.Value
}

// LoadBulkParsed builds an engine from pre-parsed cells, compressing their
// dependencies with the streaming bulk path (core.BuildBulk), which extends
// column runs without a candidate search per dependency. Cells may arrive in
// any order, with the later of duplicate refs winning (as if applied
// sequentially).
func LoadBulkParsed(pcells []ParsedCell) *Engine {
	return load(pcells, func(deps []core.Dependency) Graph {
		return TACO{G: core.BuildBulk(deps, core.DefaultOptions())}
	})
}

// load is every whole-cell load: the cells deduplicated (the later wins) and
// sorted column-major, their dependencies derived in that order from the
// interned shapes and handed to graph, the slabs filled a column at a time.
// The load drains like any other dirty set: levelled from minLevelledDirty
// cells on, on the walk below.
func load(pcells []ParsedCell, graph func([]core.Dependency) Graph) *Engine {
	ordered := make([]placed, 0, len(pcells))
	seen := make(map[ref.Ref]int, len(pcells))
	for _, c := range pcells {
		p := placed{at: c.At, rec: record{value: c.Value}}
		if c.Shape != nil {
			p.rec = record{shape: c.Shape, dirty: true}
		}
		if i, dup := seen[c.At]; dup {
			ordered[i] = p
			continue
		}
		seen[c.At] = len(ordered)
		ordered = append(ordered, p)
	}
	slices.SortFunc(ordered, func(a, b placed) int { return ref.ColumnMajorCompare(a.at, b.at) })
	var deps []core.Dependency
	var refs []formula.RefInfo
	for _, p := range ordered {
		if p.rec.shape == nil {
			continue
		}
		refs = p.rec.shape.AppendRefs(refs[:0], p.at)
		for _, r := range refs {
			deps = append(deps, core.Dependency{
				Prec: r.At, Dep: p.at, HeadFixed: r.HeadFixed, TailFixed: r.TailFixed,
			})
		}
	}
	e := New(graph(deps))
	e.nformulas = e.store.fill(ordered)
	e.RecalculateAll()
	return e
}

// Value returns the last computed value of a cell. It is side-effect-free:
// a dirty cell returns its stale value (use Dirty or Peek to detect that, and
// RecalculateAll/RecalculateN to drain), so concurrent readers are safe under
// a shared read lock.
func (e *Engine) Value(at ref.Ref) formula.Value {
	if c, ok := e.store.get(at); ok {
		return c.value()
	}
	return formula.Empty()
}

// Peek returns the last computed value and whether it is clean. A pending
// (dirty) cell returns its stale value with clean=false — the greyed-out
// state an asynchronous UI shows.
func (e *Engine) Peek(at ref.Ref) (v formula.Value, clean bool) {
	c, ok := e.store.get(at)
	if !ok {
		return formula.Empty(), true
	}
	return c.value(), !c.meta().dirty
}

// evalResolver is the formula.Resolver of the walk, the serial resolver that
// drains small dirty sets, a pinned engine and the rest of a stalled levelled
// drain; never the public read path, which must stay side-effect-free.
// The walk evaluates the top of its stack through the cell's program, which
// reads every operand of the formula, left to right. A read of a cell
// under evaluation is #CYCLE!; any other dirty cell is pushed and reads a blank
// placeholder, and the reader is evaluated again once what it pushed is
// finished. An exact evaluation's first dirty read is pushed exact, with the
// rest of its fold (FoldRange): evaluation is a pure function of its reads, so
// the retry replays a recursion's reads up to its next dirty one, and #CYCLE!
// lands where the recursion (walk_test.go) puts it. Other dirty reads are
// pushed speculative, above every exact entry, so a scan over n dirty formulas
// is retried once, not n times. A speculative evaluation that reads no cell
// under evaluation but itself has its value on any path and commits; one that
// reads a speculative one drops every speculative entry; one that reads exact
// ones is tentative (commit). The stack stays on the engine between budgeted
// calls, every evaluation started counts against the budget, and the walk owns
// the dirty generation until an edit starts the next (noteDirtyMutation),
// which empties the stack.
type evalResolver struct{ e *Engine }

var _ formula.RangeFolder = evalResolver{}

// CellValue implements formula.Resolver: a clean cell costs one point read.
func (r evalResolver) CellValue(at ref.Ref) formula.Value {
	c, ok := r.e.store.get(at)
	if !ok {
		return formula.Empty()
	}
	if c.meta().dirty {
		return r.await(at, c)
	}
	return c.value()
}

// RangeValues implements formula.RangeResolver straight off the slabs.
func (r evalResolver) RangeValues(rng ref.Range, fn func(at ref.Ref, v formula.Value) bool) {
	r.e.store.scanRange(rng, func(at ref.Ref, c cell) bool { return fn(at, cellVal(at, c, r.await)) })
}

// FoldRange implements formula.RangeFolder straight off the slabs. A fold reads
// every cell of its range whatever their values, so when it makes an exact
// evaluation's first dirty read, its every dirty read is exact, in read order.
func (r evalResolver) FoldRange(rng ref.Range) formula.NumericFold {
	e, h := r.e, len(r.e.walk)
	e.fold = h == e.top && e.top == e.exact
	f := e.store.foldRange(rng, r.await)
	e.fold = false
	slices.Reverse(e.walk[h:])
	return f
}

// FoldSumIf implements formula.RangeFolder for the recalculation path.
func (r evalResolver) FoldSumIf(critRng ref.Range, crit formula.Criterion, sumRng ref.Range) float64 {
	return r.e.store.foldSumIf(critRng, crit, sumRng, r.await)
}

// FoldSumProduct implements formula.RangeFolder for the recalculation path.
func (r evalResolver) FoldSumProduct(a, b ref.Range) float64 {
	return r.e.store.foldSumProduct(a, b, r.await)
}

// await is the hook for a dirty read (see evalResolver).
func (r evalResolver) await(at ref.Ref, c cell) formula.Value {
	e := r.e
	exact := e.fold || len(e.walk) == e.top && e.top == e.exact // the first dirty read
	if m := c.meta(); m.evaluating != 0 {
		if c != e.walk[e.top-1].c { // a read of itself is #CYCLE! on any path
			e.cycled = max(e.cycled, m.evaluating)
		}
		return formula.Error(formula.ErrCycle)
	}
	if t := e.tent[c]; t != nil && t.on.meta().evaluating != 0 {
		if exact {
			e.commit(t)
		} else {
			e.cycled, e.kids = max(e.cycled, exactEval), append(e.kids, t)
		}
		return t.v
	}
	if exact {
		e.exact++
	}
	e.walk = append(e.walk, walkSlot{c, at})
	return formula.Empty() // a placeholder, discarded with the evaluation
}

// walkSlot is an entry of the walk's stack: a cell and its position, the
// anchor its program runs at.
type walkSlot struct {
	c  cell
	at ref.Ref
}

// exactEval and specEval are the walk's evaluations, as cellMeta.evaluating says.
const exactEval, specEval uint8 = 1, 2

// tentative is a speculative evaluation of c to v that read cells under exact
// evaluation, or the tentative evaluations kids; on is the exact evaluation
// then in progress, which they all started no later than. Its value is the
// recursion's wherever the recursion evaluates c while on is under evaluation.
type tentative struct {
	c, on cell
	v     formula.Value
	kids  []*tentative
}

// commit settles t and the tentative evaluations under it, at an exact read of
// it while on is under evaluation: where the recursion evaluates them.
func (e *Engine) commit(t *tentative) {
	for work := []*tentative{t}; len(work) > 0; {
		k := work[len(work)-1]
		if work = work[:len(work)-1]; e.tent[k.c] == k { // else settled already
			delete(e.tent, k.c)
			e.settle(k.c, k.v)
			work = append(work, k.kids...)
		}
	}
}

// settle makes v the value of c, which leaves the dirty set.
func (e *Engine) settle(c cell, v formula.Value) {
	c.col.put(c.i, v)
	c.meta().dirty = false
	e.store.cleaned(1)
	if v.Err == formula.ErrCycle {
		mCycleCells.Inc()
	}
}

// drainSerial runs up to max evaluations on the walk, the stack a budget left
// first, then one root per dirty cell in column-major order.
func (e *Engine) drainSerial(max int) int {
	if e.sched != nil {
		e.noteDirtyMutation() // pinned serial mid-drain: the schedule is stale
	}
	e.walking = true
	left := e.store.ndirty
	n := e.unwind(max)
	e.store.dirtyWindows(func(ci int, col *column, lo, hi int, _ bool) bool {
		for i := lo; i < hi; i++ {
			if col.meta[i].dirty {
				if len(e.walk) > 0 || n >= max {
					return false
				}
				e.walk, e.exact = append(e.walk, walkSlot{cell{col, i}, ref.Ref{Col: ci, Row: col.rows[i]}}), 1
				n += e.unwind(max - n)
			}
		}
		return true
	})
	mCellsEvaluated.Add(uint64(left - e.store.ndirty))
	return n
}

// unwind evaluates the top of the stack until the stack is empty or max
// evaluations ran, and returns how many did. An entry needs none if its cell
// was cleaned since it was pushed, or has a tentative evaluation that holds —
// which an exact entry commits.
func (e *Engine) unwind(max int) int {
	n := 0
	for len(e.walk) > 0 && n < max {
		top := len(e.walk) - 1
		s := e.walk[top]
		c, m := s.c, s.c.meta()
		if t := e.tent[c]; m.dirty && t != nil && t.on.meta().evaluating != 0 {
			if top < e.exact {
				e.commit(t)
			}
		} else if m.dirty {
			n++
			var v formula.Value
			if m.shape == nil {
				v = c.value()
			} else {
				m.evaluating, e.top, e.cycled, e.kids = specEval, len(e.walk), 0, e.kids[:0]
				if top < e.exact {
					m.evaluating, e.reader = exactEval, c
				}
				v = m.program().EvalAt(evalResolver{e}, s.at)
				if e.cycled == specEval && top >= e.exact {
					e.truncate(e.exact) // a cycle among speculations
					continue
				}
				if len(e.walk) > e.top {
					continue // finish what it read, then retry
				}
				if m.evaluating = 0; e.cycled != 0 && top >= e.exact {
					if e.tent == nil {
						e.tent = make(map[cell]*tentative)
					}
					e.tent[c] = &tentative{c, e.reader, v, slices.Clone(e.kids)}
					e.truncate(top)
					continue
				}
			}
			e.settle(c, v)
		}
		e.truncate(top)
	}
	return n
}

// truncate pops the stack to height h, clearing the flags of what it pops and
// the slots, which must not pin a slab. It runs before any slab is reshaped.
// Popped empty, it drops the tentative evaluations, whose exact ones finished.
func (e *Engine) truncate(h int) {
	for _, s := range e.walk[h:] {
		s.c.meta().evaluating = 0
	}
	clear(e.walk[h:])
	e.walk, e.exact = e.walk[:h], min(e.exact, h)
	if h == 0 {
		e.reader, e.kids, e.tent = cell{}, nil, nil
	}
}

// Formula returns the formula source of a cell ("" for value cells),
// rendered from its shape: the text it was written with, byte for byte.
func (e *Engine) Formula(at ref.Ref) string {
	if c, ok := e.store.get(at); ok && c.meta().shape != nil {
		return c.meta().shape.Source(at)
	}
	return ""
}

// SetValue writes a pure value, returning the dirty set — the transitive
// dependents the asynchronous model hides before returning control.
func (e *Engine) SetValue(at ref.Ref, v formula.Value) []ref.Range {
	e.setCell(at, record{value: v})
	return e.invalidate(at)
}

// SetFormula writes a formula, registering its dependencies and returning
// the dirty set.
func (e *Engine) SetFormula(at ref.Ref, src string) ([]ref.Range, error) {
	shape, err := formula.ParseShape(src, at)
	if err != nil {
		return nil, err
	}
	return e.SetFormulaShape(at, shape), nil
}

// SetFormulaShape is SetFormula for a formula the caller already parsed
// (formula.ParseShape at the same position) — batch endpoints validate whole
// batches up front and must not pay for a second lookup per edit.
func (e *Engine) SetFormulaShape(at ref.Ref, shape *formula.Shape) []ref.Range {
	e.setCell(at, record{shape: shape, dirty: true})
	var refs [8]formula.RefInfo
	for _, r := range shape.AppendRefs(refs[:0], at) {
		e.graph.Add(core.Dependency{
			Prec: r.At, Dep: at, HeadFixed: r.HeadFixed, TailFixed: r.TailFixed,
		})
	}
	return e.invalidate(at)
}

// ClearCell removes a cell entirely.
func (e *Engine) ClearCell(at ref.Ref) []ref.Range {
	e.noteDirtyMutation()
	if old, had := e.store.delete(at); had {
		e.dropped(at, old)
	}
	return e.invalidate(at)
}

// dropped settles the books for a record that just left the store, replaced
// or removed: a formula takes its dependencies out of the graph and its unit
// off the formula count, a dirty record leaves the dirty set with its flag.
func (e *Engine) dropped(at ref.Ref, old record) {
	if old.shape != nil {
		e.graph.Clear(ref.CellRange(at))
		e.nformulas--
	}
	if old.dirty {
		e.store.cleaned(1)
	}
}

// invalidate marks the transitive dependents of at dirty and returns them.
// This is the critical-path step of the asynchronous model: its cost is
// dominated by the dependency-graph traversal. Marking walks the populated
// slab windows of each dirty range, never the range's area.
func (e *Engine) invalidate(at ref.Ref) []ref.Range {
	e.noteDirtyMutation()
	dirty := e.graph.Dependents(ref.CellRange(at))
	for _, rng := range dirty {
		e.markRange(rng)
	}
	return dirty
}

// markRange marks the formula cells of one dirty range, one populated column
// at a time; a range wider than the set of populated columns iterates that
// set instead of the span (a whole-row dependent range costs O(populated
// columns), not O(width)). Both shipped graphs answer Dependents with
// sub-runs of formula spans, so the windows walked hold nothing but the
// cells to flag. A third-party Graph returning coarser ranges than it must is
// still marked exactly — markCol filters on the record — just in time
// proportional to the populated cells of the window rather than to the
// formulae among them.
func (e *Engine) markRange(rng ref.Range) {
	if rng.Cols() > len(e.store.cols) {
		for ci, col := range e.store.cols {
			if ci >= rng.Head.Col && ci <= rng.Tail.Col {
				e.markCol(ci, col, rng.Head.Row, rng.Tail.Row)
			}
		}
		return
	}
	for ci := rng.Head.Col; ci <= rng.Tail.Col; ci++ {
		if col := e.store.cols[ci]; col != nil {
			e.markCol(ci, col, rng.Head.Row, rng.Tail.Row)
		}
	}
}

// markCol flags the clean formula cells of one column's row window and notes
// one dirty span from the first row it flagged to the last. Where the column's
// run table shows the window all formulas — stretches end to end across it —
// it sets the flags without reading a shape or a row; elsewhere it scans the
// window's metas for shape != nil. A window of formulas only is noted whole
// and dense (see colStore), even when it flagged none: every record in it is
// flagged now.
func (e *Engine) markCol(ci int, col *column, r1, r2 int) {
	lo, hi := col.window(r1, r2)
	if lo == hi {
		return
	}
	meta, n := col.meta[lo:hi], 0
	if col.formulas(lo, hi) {
		for i := range meta {
			if !meta[i].dirty {
				meta[i].dirty = true
				n++
			}
		}
		e.store.noteDirty(ci, col.rows[lo], col.rows[hi-1], n, true)
		return
	}
	first, last, all := 0, 0, true
	for i := range meta {
		if m := &meta[i]; m.shape == nil {
			all = false
		} else if !m.dirty {
			m.dirty = true
			if n == 0 {
				first = col.rows[lo+i]
			}
			last = col.rows[lo+i]
			n++
		}
	}
	if all {
		first, last = col.rows[lo], col.rows[hi-1]
	}
	if n > 0 || all {
		e.store.noteDirty(ci, first, last, n, all)
	}
}

// ScanRange streams the populated cells of rng in row-major order with
// their last computed values, formula sources, and clean flags. Like Value
// and Peek it is side-effect-free — dirty cells report their stale value
// with clean=false — so a serving layer can run it under a shared read
// lock. Unpopulated cells are skipped: a range read costs contiguous
// per-column slab scans, not rows×cols map probes. The sources are rendered
// from the cells' shapes into one buffer per scan, which the strings share.
func (e *Engine) ScanRange(rng ref.Range, fn func(at ref.Ref, v formula.Value, src string, clean bool) bool) {
	var sources strings.Builder
	var scratch []byte
	e.store.scanRange(rng, func(at ref.Ref, c cell) bool {
		src, m := "", c.meta()
		if m.shape != nil {
			scratch = m.shape.AppendSource(scratch[:0], at)
			n := sources.Len()
			sources.Write(scratch)
			src = sources.String()[n:]
		}
		return fn(at, c.value(), src, !m.dirty)
	})
}

// valueResolver adapts the engine's side-effect-free read path to
// formula.Resolver + formula.RangeFolder: last computed values only,
// never evaluating. It is what external consumers (benchmarks, ad-hoc
// expression evaluation over a quiesced engine) should evaluate against.
type valueResolver struct{ e *Engine }

var _ formula.RangeFolder = valueResolver{}

// CellValue implements formula.Resolver.
func (r valueResolver) CellValue(at ref.Ref) formula.Value { return r.e.Value(at) }

// RangeValues implements formula.RangeResolver.
func (r valueResolver) RangeValues(rng ref.Range, fn func(at ref.Ref, v formula.Value) bool) {
	r.e.store.scanRange(rng, func(at ref.Ref, c cell) bool {
		return fn(at, c.value())
	})
}

// FoldRange implements formula.RangeFolder: the side-effect-free variant
// folds last computed values (a dirty cell contributes its stale value,
// exactly as RangeValues streams it).
func (r valueResolver) FoldRange(rng ref.Range) formula.NumericFold {
	return r.e.store.foldRange(rng, nil)
}

// FoldSumIf implements formula.RangeFolder over last computed values.
func (r valueResolver) FoldSumIf(critRng ref.Range, crit formula.Criterion, sumRng ref.Range) float64 {
	return r.e.store.foldSumIf(critRng, crit, sumRng, nil)
}

// FoldSumProduct implements formula.RangeFolder over last computed values.
func (r valueResolver) FoldSumProduct(a, b ref.Range) float64 {
	return r.e.store.foldSumProduct(a, b, nil)
}

// ValueResolver returns a side-effect-free formula resolver over the
// engine's last computed values. It implements formula.RangeFolder, so
// range-consuming builtins evaluated against it take the columnar scans and
// folds.
func (e *Engine) ValueResolver() formula.Resolver { return valueResolver{e} }

// CellStats returns the columnar cell store's shape summary.
func (e *Engine) CellStats() CellStoreStats { return e.store.stats() }

// Dirty reports whether the cell awaits recalculation.
func (e *Engine) Dirty(at ref.Ref) bool {
	c, ok := e.store.get(at)
	return ok && c.meta().dirty
}

// SetSerial(true) pins recalculation to the walk (see evalResolver), the
// reference the equivalence oracles compare the levelled drain against;
// SetSerial(false), the default, leaves the choice to wavefrontReady.
func (e *Engine) SetSerial(serial bool) { e.serial = serial }

// wavefrontReady reports whether recalculation should route through the
// levelled drain (schedule.go) rather than the walk: not pinned serial, the
// walk not already draining this dirty generation, and either a dirty set
// large enough to be worth levelling or a cached schedule mid-drain
// (resuming it is always cheaper than switching paths). The choice depends
// only on what the engine can observe, so it is the same on every host.
func (e *Engine) wavefrontReady() bool {
	return !e.serial && !e.walking && (e.sched != nil || e.store.ndirty >= minLevelledDirty)
}

// RecalculateAll evaluates every dirty formula cell (the background phase of
// the asynchronous model) and returns the evaluations it ran: on the levels
// one per cell, on the walk one per cell plus one per retry (see evalResolver).
func (e *Engine) RecalculateAll() int { return e.RecalculateN(math.MaxInt) }

// RecalculateN runs up to max evaluations and returns how many it ran, at
// least one while anything is pending, so a worker draining in chunks never
// holds a session lock for a whole recalculation. Each path keeps its state
// between calls: the levelled drain its schedule, whose levels and spans the
// budget cuts, and the walk its stack, so a chain deeper than max drains over
// several calls.
func (e *Engine) RecalculateN(max int) int {
	if e.wavefrontReady() {
		return e.DrainLevels(max)
	}
	return e.drainSerial(max)
}

// RecalcStats describes the recalculation scheduler's state: the dirty
// backlog, the live resumable schedule (if a budgeted drain is mid-flight),
// and the cumulative level/build counters whose ratio shows how much
// re-levelling the schedule cache is amortising.
type RecalcStats struct {
	// Pending is the number of cells awaiting recalculation.
	Pending int `json:"pending"`
	// Scheduled is the cell count of the live resumable schedule at build
	// time (0 when no schedule is cached — the dirty set has not been
	// levelled, or the last drain ran to exhaustion).
	Scheduled int `json:"scheduled,omitempty"`
	// FrontierWidth is the ready width of the live schedule: cells whose
	// precedents are all settled, i.e. the size of the next level.
	FrontierWidth int `json:"frontier_width,omitempty"`
	// LevelsDrained counts wavefront levels completed over the engine's life
	// (a level a budget cuts counts once, when its last node finishes).
	LevelsDrained uint64 `json:"levels_drained"`
	// ScheduleBuilds counts schedule constructions (Kahn runs). Budgeted
	// drains resuming a cached schedule do not rebuild, so this stays at one
	// per dirty generation however many chunks the drain takes.
	ScheduleBuilds uint64 `json:"schedule_builds"`
}

// RecalcStats returns the recalculation scheduler's state snapshot.
func (e *Engine) RecalcStats() RecalcStats {
	st := RecalcStats{
		Pending:        e.store.ndirty,
		LevelsDrained:  e.levelsDrained,
		ScheduleBuilds: e.schedBuilds,
	}
	if sch := e.sched; sch != nil {
		st.Scheduled = sch.total
		for _, i := range sch.frontier {
			st.FrontierWidth += sch.nodes[i].n - sch.nodes[i].done
		}
	}
	return st
}

// Pending returns the number of cells awaiting recalculation.
func (e *Engine) Pending() int { return e.store.ndirty }

// Dependents exposes the graph's dependents query (used by tracing tools).
func (e *Engine) Dependents(r ref.Range) []ref.Range { return e.graph.Dependents(r) }

// Precedents exposes the graph's precedents query.
func (e *Engine) Precedents(r ref.Range) []ref.Range { return e.graph.Precedents(r) }

// NumCells returns the number of populated cells.
func (e *Engine) NumCells() int { return e.store.ncells }

// NumFormulas returns the number of formula cells.
func (e *Engine) NumFormulas() int { return e.nformulas }

// GraphStats returns the compressed graph's size statistics. ok is false
// when the engine drives a non-TACO backend.
func (e *Engine) GraphStats() (core.Stats, bool) {
	if tg, ok := e.graph.(TACO); ok {
		return tg.G.Stats(), true
	}
	return core.Stats{}, false
}

// TACOGraph returns the underlying compressed graph, or nil for non-TACO
// backends. A serving layer pins it across spills: the compressed graph is
// the compact part of a session (the paper's point), so queries against a
// spilled session can traverse it in memory while only the cell store pays
// the spill round-trip.
func (e *Engine) TACOGraph() *core.Graph {
	if tg, ok := e.graph.(TACO); ok {
		return tg.G
	}
	return nil
}

// Recycle returns the engine's recyclable containers (column slabs, with the
// record capacity they hold, and dirty spans) to package pools. Only for
// owners discarding the engine — the serving layer's spill path, which holds
// the session exclusively and drops its last reference right after. The graph
// is untouched (it may be pinned and outlive the engine). Using the engine
// after Recycle is a bug.
func (e *Engine) Recycle() {
	e.truncate(0)
	e.releaseSchedule()
	e.store.recycle()
}
