package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"taco/internal/core"
	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/workload"
)

// engineRecalc drives one in-process engine holding the ledger sheet: no
// HTTP, no disk. Schedule building and reuse, run planning, the evaluators
// and the cell store do the work here and the server does none.
type engineRecalc struct {
	seed  int64
	hash  opHash
	sheet *workload.Sheet // nil once released; regenerated for the oracle
	ops   []engineOp
	next  int

	eng   *engine.Engine
	loadS float64
	// Last value written to each data cell, for the oracle.
	written map[ref.Ref]float64

	shadow *core.Graph // traced runs: the engine's graph, rebuilt from the same dependencies
}

const (
	eopPoint   = iota // SetValue on one A cell, then recalculate
	eopRate           // SetValue on $H$1, then recalculate
	eopFormula        // SetFormula of one C cell to another shape and back
)

// One unit of the op list; the list is engineUnits units long.
var engineUnit = []struct{ kind, count int }{
	{eopPoint, 16}, {eopRate, 1}, {eopFormula, 2},
}

const engineUnits = 64

// engineSample is, per op kind, the 1-in-k replayed in a traced run. Rate
// edits are few and carry most of the work, so every second one is replayed.
var engineSample = [...]int{eopPoint: 8, eopRate: 2, eopFormula: 2}

type engineOp struct {
	kind  int
	row   int
	value float64
}

func (w *engineRecalc) inputs() {
	if w.sheet == nil {
		w.sheet = ledgerSheet(sz.ledgerRows, rand.New(rand.NewSource(w.seed)))
	}
}

func (w *engineRecalc) generate(seed int64) error {
	w.seed, w.hash = seed, newOpHash()
	w.inputs()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for u := 0; u < engineUnits; u++ {
		for _, part := range engineUnit {
			for i := 0; i < part.count; i++ {
				op := engineOp{kind: part.kind, row: 1 + rng.Intn(sz.ledgerRows), value: float64(rng.Intn(100000)) / 100}
				if part.kind == eopRate {
					op.value = 1 + float64(1+rng.Intn(999))/10000
				}
				w.ops = append(w.ops, op)
				w.hash.add("%d %d %v", op.kind, op.row, op.value)
			}
		}
	}
	return nil
}

func (w *engineRecalc) opHash() string { return w.hash.String() }
func (w *engineRecalc) clients() int   { return 1 }

// drainWorkers is the closed-loop client count of the serve workloads and
// the recalculation parallelism of this one: at most two, and never more
// than the host has processors.
func drainWorkers() int { return min(runtime.NumCPU(), 2) }

func (w *engineRecalc) setup(string) (int, float64, error) {
	w.inputs()
	t0 := time.Now()
	eng, err := engine.LoadBulk(w.sheet)
	if err != nil {
		return 0, 0, err
	}
	w.loadS = time.Since(t0).Seconds()
	eng.SetRecalcParallelism(drainWorkers())
	eng.RecalculateAll()
	w.eng, w.next, w.written = eng, 0, map[ref.Ref]float64{}
	// Warm-up: the first unit of the op list.
	var st clientStats
	unit := len(w.ops) / engineUnits
	for i := 0; i < unit; i++ {
		w.runOp(i, &st, nil, false)
	}
	return eng.NumCells(), w.loadS, nil
}

func (w *engineRecalc) release()  { w.sheet = nil }
func (w *engineRecalc) teardown() { w.eng = nil }

func (w *engineRecalc) runClient(_ int, ep *epochCtl, st *clientStats, tr *tracer) {
	for n := 0; !ep.done(n, len(w.ops)); n++ {
		i := w.next
		w.next = (w.next + 1) % len(w.ops)
		w.runOp(i, st, tr, ep.sampled(i, engineSample[w.ops[i].kind]))
	}
}

func (w *engineRecalc) runOp(i int, st *clientStats, tr *tracer, replay bool) {
	op := w.ops[i]
	e := w.eng
	id := int64(i)
	st.attempted++
	switch op.kind {
	case eopPoint, eopRate:
		at := ref.Ref{Col: colA, Row: op.row}
		if op.kind == eopRate {
			at = rateCell
		}
		t0 := time.Now()
		dirty := e.SetValue(at, formula.Num(op.value))
		t1 := time.Now()
		e.RecalculateAll()
		t2 := time.Now()
		w.written[at] = op.value
		st.edits++
		if op.kind == eopPoint {
			st.lat[kEdit] = append(st.lat[kEdit], t1.Sub(t0).Seconds())
			st.lat[kSettle] = append(st.lat[kSettle], t2.Sub(t0).Seconds())
		} else {
			st.drainCells += core.CountCells(dirty)
			st.drainWall += t2.Sub(t1).Seconds()
		}
		if e.Pending() != 0 {
			st.failed++
		}
		if replay {
			w.replayEdit(id, at, op.value, dirty, tr, t0, t1, t2)
		}
	case eopFormula:
		at := ref.Ref{Col: colC, Row: op.row}
		for _, src := range []string{ledgerAltC(op.row), ledgerFormulaC(op.row)} {
			t0 := time.Now()
			_, err := e.SetFormula(at, src)
			t1 := time.Now()
			e.RecalculateAll()
			st.edits++
			st.lat[kEdit] = append(st.lat[kEdit], t1.Sub(t0).Seconds())
			if err != nil {
				st.failed++
			}
			if replay {
				w.replayFormula(id, at, src, tr, t0, t1)
			}
		}
	}
}

// replayEdit attributes a value edit: the part of SetValue that is the
// graph's FindDependents. The drain is a root span of its own with nothing
// beneath it, because nothing the engine does inside a drain can be called
// from outside; as references, the dirty formulas are evaluated once by the
// bytecode VM and once by the AST walker, and the same drain is repeated with
// one worker.
func (w *engineRecalc) replayEdit(id int64, at ref.Ref, v float64, dirty []ref.Range, tr *tracer, t0, t1, t2 time.Time) {
	set := tr.record(-1, id, "engine", "set_value", t0, t1)
	tr.child(set, id, "core", "find_dependents", func() { w.shadow.FindDependents(ref.CellRange(at)) })
	tr.record(-1, id, "engine", "drain", t1, t2)

	type dirtyCell struct {
		at   ref.Ref
		ast  formula.Node
		prog *formula.Program
	}
	var cells []dirtyCell
	compiled := 0
	for _, r := range dirty {
		r.Cells(func(c ref.Ref) bool {
			src := w.eng.Formula(c)
			if src == "" {
				return true
			}
			if ast, err := formula.ParseCached(src); err == nil {
				prog := formula.CompileCached(ast, c)
				if prog != nil {
					compiled++
				}
				cells = append(cells, dirtyCell{c, ast, prog})
			}
			return true
		})
	}
	res := w.eng.ValueResolver()
	s := time.Now()
	for _, c := range cells {
		if c.prog != nil {
			c.prog.EvalAt(res, c.at)
		}
	}
	tr.add("formula", "eval_vm", time.Since(s), compiled)
	s = time.Now()
	for _, c := range cells {
		formula.Eval(c.ast, res)
	}
	tr.add("formula", "eval_ast", time.Since(s), len(cells))

	w.eng.SetRecalcParallelism(1)
	w.eng.SetValue(at, formula.Num(v))
	s = time.Now()
	w.eng.RecalculateAll()
	tr.add("engine", "drain_serial", time.Since(s), 1)
	w.eng.SetRecalcParallelism(drainWorkers())
}

// replayFormula attributes a formula rewrite: the parse, and the graph's
// clear, add and FindDependents, on the shadow graph, which thereby stays in
// step with the engine's own.
func (w *engineRecalc) replayFormula(id int64, at ref.Ref, src string, tr *tracer, t0, t1 time.Time) {
	set := tr.record(-1, id, "engine", "set_formula", t0, t1)
	var ast formula.Node
	tr.child(set, id, "formula", "parse", func() { ast, _ = formula.Parse(src) })
	var refs []formula.RefInfo
	tr.child(set, id, "formula", "extract_refs", func() { refs = formula.Refs(ast) })
	cell := ref.CellRange(at)
	tr.child(set, id, "core", "clear", func() { w.shadow.Clear(cell) })
	for _, r := range refs {
		d := core.Dependency{Prec: r.At, Dep: at, HeadFixed: r.HeadFixed, TailFixed: r.TailFixed}
		tr.child(set, id, "core", "add", func() { w.shadow.AddDependency(d) })
	}
	tr.child(set, id, "core", "find_dependents", func() { w.shadow.FindDependents(cell) })
}

func (w *engineRecalc) probe(tr *tracer) error {
	w.inputs()
	defer w.release()
	tr.add("engine", "load_bulk", time.Duration(w.loadS*float64(time.Second)), 1)
	deps, err := w.sheet.Dependencies()
	if err != nil {
		return err
	}
	t0 := time.Now()
	w.shadow = core.BuildBulk(deps, core.DefaultOptions())
	tr.add("core", "build_bulk", time.Since(t0), 1)
	return probeFormulas(tr, w.sheet, w.eng.ValueResolver(), 16)
}

// probeFormulas times, over every step-th formula of a sheet, the uncached
// parse, reference extraction, compilation, and one evaluation by the
// bytecode VM and one by the AST walker against the given values.
func probeFormulas(tr *tracer, s *workload.Sheet, res formula.Resolver, step int) error {
	n := 0
	var parse, refs, compile, vm, walk time.Duration
	calls, compiled := 0, 0
	for at, c := range s.Cells {
		if !c.IsFormula() {
			continue
		}
		if n++; n%step != 0 {
			continue
		}
		calls++
		t0 := time.Now()
		ast, err := formula.Parse(c.Formula)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("cell %v: %w", at, err)
		}
		formula.Refs(ast)
		t2 := time.Now()
		prog := formula.Compile(ast, at)
		t3 := time.Now()
		parse, refs, compile = parse+t1.Sub(t0), refs+t2.Sub(t1), compile+t3.Sub(t2)
		if prog != nil {
			compiled++
			t3 = time.Now()
			prog.EvalAt(res, at)
			vm += time.Since(t3)
		}
		t4 := time.Now()
		formula.Eval(ast, res)
		walk += time.Since(t4)
	}
	tr.add("formula", "parse", parse, calls)
	tr.add("formula", "extract_refs", refs, calls)
	tr.add("formula", "compile", compile, calls)
	tr.add("formula", "eval_vm", vm, compiled)
	tr.add("formula", "eval_ast", walk, calls)
	return nil
}

// verify rebuilds the final sheet on a second engine that shares none of the
// fast paths — the uncompressed graph, no pattern runs, one worker — and
// requires every cell of the two to be bit-identical.
func (w *engineRecalc) verify() (attempted, failed int) {
	w.inputs()
	for at, v := range w.written {
		w.sheet.SetValue(at, v)
	}
	oracle := engine.New(engine.NoComp{G: nocomp.NewGraph()})
	oracle.SetPatternRuns(false)
	oracle.SetRecalcParallelism(1)
	cells := make([]ref.Ref, 0, len(w.sheet.Cells))
	for at := range w.sheet.Cells {
		cells = append(cells, at)
	}
	slices.SortFunc(cells, ref.ColumnMajorCompare)
	for _, at := range cells {
		if c := w.sheet.Cells[at]; c.IsFormula() {
			if _, err := oracle.SetFormula(at, c.Formula); err != nil {
				return 1, 1
			}
		} else {
			oracle.SetValue(at, c.Value)
		}
	}
	oracle.RecalculateAll()
	for _, at := range cells {
		attempted++
		if !sameValue(w.eng.Value(at), oracle.Value(at)) || w.eng.Formula(at) != oracle.Formula(at) {
			failed++
		}
	}
	return attempted, failed
}

// sameValue is bit-identity: 0.1+0.2 and 0.3 differ, NaN equals NaN.
func sameValue(a, b formula.Value) bool {
	return a.Kind == b.Kind && math.Float64bits(a.Num) == math.Float64bits(b.Num) &&
		a.Str == b.Str && a.Bool == b.Bool && a.Err == b.Err
}

func (w *engineRecalc) exact(m map[string]float64) { graphCounts(m, w.eng.TACOGraph()) }
