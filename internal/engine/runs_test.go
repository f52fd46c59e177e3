package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"taco/internal/core"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
)

// runsFixture builds an engine whose dirty set holds the given formula
// sources (installed after the data columns settled, so the formulas alone
// form the wavefront), with enough volume to engage the levelled path.
func runsFixture(t testing.TB, g Graph, rows int, form func(r int) (cell string, src string)) *Engine {
	t.Helper()
	e := New(g)
	for r := 1; r <= rows; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)*1.25))
		e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(rows-r)+0.5))
	}
	e.RecalculateAll()
	for r := 1; r <= rows; r++ {
		at, src := form(r)
		mustFormula(t, e, at, src)
	}
	return e
}

// carveFixture builds the schedule over the engine's dirty set and returns
// its span nodes (more than one cell) and the number of single-cell nodes —
// the unit under test for the detection cases. The TestPlanLevel* names
// predate span carving: the per-level planner they exercised is gone, and
// they now pin the same six cases on the schedule build.
func carveFixture(e *Engine) (runs []*schedNode, singles int) {
	sch := e.ensureSchedule()
	for i := range sch.nodes {
		if nd := &sch.nodes[i]; nd.n > 1 {
			runs = append(runs, nd)
		} else {
			singles++
		}
	}
	return runs, singles
}

func TestPlanLevelDetectsColumnRun(t *testing.T) {
	e := runsFixture(t, nil, 100, func(r int) (string, string) {
		return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*B%d+A%d", r, r, r)
	})
	runs, singles := carveFixture(e)
	if len(runs) != 1 || singles != 0 {
		t.Fatalf("got %d runs, %d singles; want 1 run, 0 singles", len(runs), singles)
	}
	if n := runs[0].n; n != 100 {
		t.Fatalf("run length %d, want 100", n)
	}
}

// TestPlanLevelBrokenRun: a different shape mid-column splits the run; the
// long halves stay spans, the odd cell goes per-cell.
func TestPlanLevelBrokenRun(t *testing.T) {
	e := runsFixture(t, nil, 40, func(r int) (string, string) {
		if r == 20 {
			return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d-B%d", r, r)
		}
		return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d+B%d", r, r)
	})
	runs, singles := carveFixture(e)
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2 (split around the odd row)", len(runs))
	}
	if runs[0].n != 19 || runs[1].n != 20 {
		t.Fatalf("run lengths %d/%d, want 19/20", runs[0].n, runs[1].n)
	}
	if singles != 1 {
		t.Fatalf("got %d singles, want 1", singles)
	}
}

// TestPlanLevelRespelledRowJoinsRun: a row written with redundant
// parentheses or spaces is another shape of the column's program, so it stays
// in the run — run identity is program identity, not shape identity.
func TestPlanLevelRespelledRowJoinsRun(t *testing.T) {
	e := runsFixture(t, nil, 40, func(r int) (string, string) {
		switch r {
		case 20:
			return fmt.Sprintf("C%d", r), fmt.Sprintf("(A%d+B%d)", r, r)
		case 30:
			return fmt.Sprintf("C%d", r), fmt.Sprintf("=A%d + B%d", r, r)
		}
		return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d+B%d", r, r)
	})
	if c := e.store.cols[3].meta; c[19].shape == c[0].shape || c[29].shape == c[0].shape {
		t.Fatal("a respelled row holds the column's shape")
	}
	runs, singles := carveFixture(e)
	if len(runs) != 1 || singles != 0 {
		t.Fatalf("got %d runs, %d singles; want 1 run, 0 singles", len(runs), singles)
	}
	if n := runs[0].n; n != 40 {
		t.Fatalf("run length %d, want 40", n)
	}
}

// TestPlanLevelPartialRun: runs shorter than minPatternRun stay per-cell.
func TestPlanLevelPartialRun(t *testing.T) {
	e := runsFixture(t, nil, minPatternRun-1, func(r int) (string, string) {
		return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d+B%d", r, r)
	})
	// The whole dirty set is below minLevelledDirty, so exercise the carve
	// directly rather than through RecalculateAll.
	runs, singles := carveFixture(e)
	if len(runs) != 0 {
		t.Fatalf("got %d runs from a %d-cell column, want 0", len(runs), minPatternRun-1)
	}
	if singles != minPatternRun-1 {
		t.Fatalf("got %d singles, want %d", singles, minPatternRun-1)
	}
}

// TestPlanLevelPartialDirtySet: only the still-flagged part of a column is
// carved — a drained prefix splits nothing and joins nothing.
func TestPlanLevelPartialDirtySet(t *testing.T) {
	e := runsFixture(t, nil, 100, func(r int) (string, string) {
		return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*B%d", r, r)
	})
	if n := e.RecalculateN(30); n != 30 {
		t.Fatalf("first chunk drained %d cells, want 30", n)
	}
	e.SetValue(ref.MustCell("A60"), formula.Num(1)) // invalidates; C60 is dirty already
	runs, singles := carveFixture(e)
	if len(runs) != 1 || singles != 0 || runs[0].at != ref.MustCell("C31") || runs[0].n != 70 {
		t.Fatalf("rebuild carved %d runs, %d singles (first %+v); want one run C31:C100", len(runs), singles, runs)
	}
}

// TestPlanLevelGapSplitsRun: a missing row breaks contiguity even when every
// present cell shares the program.
func TestPlanLevelGapSplitsRun(t *testing.T) {
	e := New(nil)
	for r := 1; r <= 41; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
	}
	e.RecalculateAll()
	for r := 1; r <= 41; r++ {
		if r == 21 {
			continue
		}
		mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*2", r))
	}
	runs, _ := carveFixture(e)
	if len(runs) != 2 || runs[0].n != 20 || runs[1].n != 20 {
		t.Fatalf("gap not respected: %d runs", len(runs))
	}
}

// TestPlanLevelHoleSplitsRun pins the opposite of its name, which predates
// carving from the formulas: a row that only Single edges claim is no hole.
// Its cell still interns to the column's program, so the re-dirtied column is
// one span, whatever the edges look like. The graph under test compresses
// nothing (every pattern disabled), so C30 keeps only Single edges through the
// rewrites and restores of rows 30 and 31, which a compressing graph bridges
// back into the column's runs.
func TestPlanLevelHoleSplitsRun(t *testing.T) {
	form := func(r int) (string, string) {
		return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*B%d", r, r)
	}
	uncompressed := TACO{G: core.NewGraph(core.Options{Patterns: []core.PatternType{}})}
	serial, e := runsFixture(t, nil, 60, form), runsFixture(t, uncompressed, 60, form)
	serial.SetSerial(true)
	for _, eng := range []*Engine{serial, e} {
		eng.RecalculateAll()
		for _, r := range []int{30, 31} {
			mustFormula(t, eng, fmt.Sprintf("C%d", r), fmt.Sprintf("B%d*2", r))
			mustFormula(t, eng, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*B%d", r, r))
		}
		for r := 1; r <= 60; r++ { // re-dirty the whole column
			eng.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		}
	}
	e.TACOGraph().Edges(func(ed *core.Edge) bool {
		if ed.Dep.Contains(ref.MustCell("C30")) && ed.Pattern != core.Single {
			t.Fatalf("fixture: C30 is still on a compressed edge (%v); the rewrites no longer isolate it", ed.Dep)
		}
		return true
	})
	runs, singles := carveFixture(e)
	if len(runs) != 1 || singles != 0 || runs[0].at != ref.MustCell("C1") || runs[0].n != 60 {
		t.Fatalf("carved %d runs, %d singles; want the one span C1:C60", len(runs), singles)
	}
	serial.RecalculateAll()
	e.RecalculateAll() // resumes the schedule carveFixture built: the span is swept
	enginesEqual(t, serial, e)
}

// carveRecords is the record walk the carve replaced, kept as its reference:
// per dirty span, a maximal run of contiguous flagged rows whose cells intern
// to one compiled program, found by reading every record's flag and program,
// is one span node when it is at least minPatternRun long and sweepable, and
// every other flagged cell a node of its own.
func (e *Engine) carveRecords(sch *schedule) {
	var span ref.Range
	var sweepable bool
	check := func(_, first ref.Range) bool {
		sweepable = !first.Overlaps(span)
		return sweepable
	}
	e.store.dirtyWindows(func(ci int, col *column, lo, hi int, _ bool) bool {
		rows, meta := col.rows, col.meta
		at := func(k int) ref.Ref { return ref.Ref{Col: ci, Row: rows[k]} }
		for i := lo; i < hi; {
			if !meta[i].dirty {
				i++
				continue
			}
			j := i + 1
			var p *formula.Program
			if e.patternRuns {
				p = meta[i].program()
			}
			for p != nil && j < hi && meta[j].dirty && rows[j] == rows[j-1]+1 &&
				meta[j].program() == p {
				j++
			}
			sweepable = j-i >= minPatternRun
			if sweepable {
				span = ref.Range{Head: at(i), Tail: at(j - 1)}
				e.spanPrecedents(sch, at(i), j-i, p, check)
			}
			if sweepable {
				sch.addNode(at(i), col, i, j-i, p)
				i = j
				continue
			}
			for ; i < j; i++ {
				sch.addNode(at(i), col, i, 1, nil)
			}
		}
		return true
	})
}

// carvedNode is one node a carve made: its first cell, length and program.
type carvedNode struct {
	at ref.Ref
	n  int
	p  *formula.Program
}

// carvedNodes is what carve makes of e's dirty set, on a schedule of its own,
// so the engine's live one, and the path its next drain takes, are as they
// were.
func carvedNodes(e *Engine, carve func(*Engine, *schedule)) (list []carvedNode) {
	sch := schedPool.Get().(*schedule)
	carve(e, sch)
	for i := range sch.nodes {
		nd := &sch.nodes[i]
		list = append(list, carvedNode{nd.at, nd.n, nd.prog})
	}
	poolSchedule(sch)
	return list
}

// TestCarveIgnoresEdgeFragmentation: a 2 000-row ledger installed one write at
// a time, row by row, leaves its compressed edges in pieces (the greedy
// compressor's result depends on insertion order), and 200 rewrites and
// restores of column C on top change nothing. The rate edit that follows
// carves the node list, and drains the levels, of a freshly bulk-loaded twin.
func TestCarveIgnoresEdgeFragmentation(t *testing.T) {
	const rows = 2000
	fresh, e := ledgerEngine(t, rows), New(nil)
	for _, c := range ledgerCells(rows) {
		if c.Shape == nil {
			e.SetValue(c.At, c.Value)
		} else {
			e.SetFormulaShape(c.At, c.Shape)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		r := 1 + rng.Intn(rows)
		mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("B%d*2", r))
		mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*B%d*$H$1", r, r))
	}
	e.RecalculateAll()
	if got, want := e.TACOGraph().NumEdges(), fresh.TACOGraph().NumEdges(); got < want+100 {
		t.Fatalf("fixture: %d edges installed row by row, %d bulk-loaded; the install order no longer fragments the graph", got, want)
	}
	for _, eng := range []*Engine{fresh, e} {
		eng.SetValue(ref.MustCell("H1"), formula.Num(1.07))
	}
	if got, want := carvedNodes(e, (*Engine).carve), carvedNodes(fresh, (*Engine).carve); !slices.Equal(got, want) {
		t.Fatalf("the rewritten ledger carves %d nodes, the fresh one %d:\n%v\n%v", len(got), len(want), got, want)
	}
	levels := [2]uint64{fresh.RecalcStats().LevelsDrained, e.RecalcStats().LevelsDrained}
	fresh.RecalculateAll()
	e.RecalculateAll()
	if got, want := e.RecalcStats().LevelsDrained-levels[1], fresh.RecalcStats().LevelsDrained-levels[0]; got != want || want == 0 {
		t.Fatalf("the rewritten ledger drained %d levels, the fresh one %d", got, want)
	}
	enginesEqual(t, fresh, e)
}

// TestPlanLevelReversedLoad: the carve walks the slabs, so the order the
// formulas were installed (and the order their dirty spans were noted) is
// irrelevant — a column loaded bottom-up still forms one ascending run.
func TestPlanLevelReversedLoad(t *testing.T) {
	e := New(nil)
	for r := 1; r <= 50; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
	}
	e.RecalculateAll()
	for r := 50; r >= 1; r-- {
		mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*2", r))
	}
	runs, singles := carveFixture(e)
	if len(runs) != 1 || singles != 0 || runs[0].n != 50 {
		t.Fatalf("reversed load: %d runs, %d singles", len(runs), singles)
	}
	if runs[0].at != ref.MustCell("C1") {
		t.Fatalf("run starts at %v, want C1", runs[0].at)
	}
	for k := range runs[0].n {
		if c, _ := e.store.get(ref.Ref{Col: 3, Row: 1 + k}); (cell{runs[0].col, runs[0].i + k}) != c {
			t.Fatalf("run cell %d is not C%d's record", k, 1+k)
		}
	}
	if spans := e.store.cols[3].dirty; len(spans) != 1 || spans[0].r0 != 1 || spans[0].r1 != 50 {
		t.Fatalf("bottom-up marks left dirty spans %v, want one coalesced [1,50]", spans)
	}
}

// TestPlanLevelNoCompFallback: run detection asks the graph nothing — on the
// uncompressed backend too it is interned-program equality alone.
func TestPlanLevelNoCompFallback(t *testing.T) {
	e := runsFixture(t, NoComp{G: nocomp.NewGraph()}, 30, func(r int) (string, string) {
		return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d+B%d", r, r)
	})
	runs, _ := carveFixture(e)
	if len(runs) != 1 || runs[0].n != 30 {
		t.Fatalf("the NoComp-backed engine carved %d runs", len(runs))
	}
}

// drainEquivalence recalculates the same workload three ways — vectorized
// wavefront, per-cell wavefront (pattern runs off), and the serial AST
// resolver — and requires bit-identical stored values everywhere.
func drainEquivalence(t *testing.T, build func(e *Engine)) {
	t.Helper()
	engines := make([]*Engine, 3)
	for i := range engines {
		e := New(nil)
		switch i {
		case 1:
			e.SetPatternRuns(false)
		case 2: // serial oracle: the pin never enters the wavefront
			e.SetSerial(true)
		}
		build(e)
		e.RecalculateAll()
		engines[i] = e
	}
	all := ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: 30, Row: 2000}}
	count := 0
	engines[0].ScanRange(all, func(at ref.Ref, v formula.Value, _ string, clean bool) bool {
		count++
		if !clean {
			t.Errorf("%v left dirty by vectorized drain", at)
		}
		for i, other := range engines[1:] {
			w := other.Value(at)
			if v != w && !(v.Kind == formula.KindNumber && w.Kind == formula.KindNumber &&
				math.IsNaN(v.Num) && math.IsNaN(w.Num)) {
				t.Errorf("%v: vectorized=%v engine[%d]=%v", at, v, i+1, w)
			}
		}
		return true
	})
	if count == 0 {
		t.Fatal("fixture stored no cells")
	}
}

func TestRunDrainEquivalence(t *testing.T) {
	drainEquivalence(t, func(e *Engine) {
		e.SetValue(ref.MustCell("F1"), formula.Num(3.5))
		for r := 1; r <= 400; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)*1.1))
			e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(400-r)))
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("B%d*$F$1", r))
			mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("A%d*B%d+C%d", r, r, r))
		}
	})
}

// TestRunDrainEquivalenceErrors: runs containing error and blank reads, a
// division that manufactures errors mid-run, and cells rescued by IFERROR.
func TestRunDrainEquivalenceErrors(t *testing.T) {
	drainEquivalence(t, func(e *Engine) {
		for r := 1; r <= 200; r++ {
			if r%17 == 0 {
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Error(formula.ErrNA))
			} else if r%13 != 0 { // every 13th row of A left unpopulated
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r-100)))
			}
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("1/A%d", r))
			mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("IFERROR(C%d,0-1)", r))
		}
	})
}

// TestRunDrainEquivalenceNumericSweep: a straight-line arithmetic run (the
// shape that takes the float fast path) over operand columns salted with
// everything that must kick a row back to the generic interpreter — zero
// divisors, unparsable text, errors — and everything that must coerce
// identically on both paths: numeric text, booleans, blanks.
func TestRunDrainEquivalenceNumericSweep(t *testing.T) {
	drainEquivalence(t, func(e *Engine) {
		for r := 1; r <= 240; r++ {
			switch {
			case r%11 == 0:
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Str("12.5")) // numeric text coerces
			case r%13 == 0:
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Str("n/a")) // unparsable → #VALUE!
			case r%17 == 0:
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Boolean(r%2 == 0))
			case r%19 == 0:
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Error(formula.ErrNA))
			case r%23 != 0: // every 23rd row of A left blank → coerces to 0
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)-120.5))
			}
			if r%7 != 0 { // every 7th divisor row is 0 (blank) → #DIV/0!
				e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r%29)+0.25))
			}
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*B%d-A%d/B%d", r, r, r, r))
			mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("IFERROR(C%d,A%d+1)", r, r))
		}
	})
}

// TestRunDrainEquivalenceCycles: a reference cycle upstream of a pattern
// run must poison the run's cells exactly as it poisons the serial path. The
// load's drain stalls behind the cycle and finishes on the serial resolver;
// the F1 edit then re-dirties the runs alone, so #CYCLE! propagates into the
// vectorized sweep via the settled values.
func TestRunDrainEquivalenceCycles(t *testing.T) {
	drainEquivalence(t, func(e *Engine) {
		e.SetValue(ref.MustCell("F1"), formula.Num(1))
		mustFormula(t, e, "X1", "X2+1")
		mustFormula(t, e, "X2", "X1+1")
		for r := 1; r <= 150; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d+$X$1+$F$1", r))
			mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("IFERROR(C%d,A%d)", r, r))
		}
		e.RecalculateAll()
		e.SetValue(ref.MustCell("F1"), formula.Num(2))
	})
}

// TestRunDrainEquivalenceChained: each run cell reads the previous level's
// run output (C reads B's formulas), exercising run-over-run layering, plus
// folds inside a run (SUM over a fixed range).
func TestRunDrainEquivalenceChained(t *testing.T) {
	drainEquivalence(t, func(e *Engine) {
		for r := 1; r <= 300; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r%37)+0.25))
		}
		for r := 1; r <= 300; r++ {
			mustFormula(t, e, fmt.Sprintf("B%d", r), fmt.Sprintf("A%d*2+SUM($A$1:$A$20)", r))
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("B%d-A%d", r, r))
		}
	})
}

// TestRunDrainAfterEdit: the bench-shaped interaction — settle everything,
// edit one fixed precedent, recalculate — must re-drain the dirtied columns
// as runs and still match the oracle.
func TestRunDrainAfterEdit(t *testing.T) {
	build := func(e *Engine) {
		e.SetValue(ref.MustCell("F1"), formula.Num(2))
		for r := 1; r <= 250; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*$F$1", r))
			mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("C%d+A%d", r, r))
		}
	}
	vec, oracle := New(nil), New(nil)
	oracle.SetSerial(true)
	build(vec)
	build(oracle)
	vec.RecalculateAll()
	oracle.RecalculateAll()
	for i, v := range []float64{7, 11.5} {
		vec.SetValue(ref.MustCell("F1"), formula.Num(v))
		oracle.SetValue(ref.MustCell("F1"), formula.Num(v))
		if n := vec.RecalculateAll(); n != 500 {
			t.Fatalf("edit %d: vectorized drain recalculated %d cells, want 500", i, n)
		}
		oracle.RecalculateAll()
		all := ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: 10, Row: 300}}
		oracle.ScanRange(all, func(at ref.Ref, want formula.Value, _ string, _ bool) bool {
			if got := vec.Value(at); got != want {
				t.Errorf("edit %d, %v: vectorized=%v serial=%v", i, at, got, want)
			}
			return true
		})
	}
}

// TestSetPatternRunsToggle: the knob really is the difference between the
// two wavefront paths, and toggling it mid-life is safe.
func TestSetPatternRunsToggle(t *testing.T) {
	e := runsFixture(t, nil, 120, func(r int) (string, string) {
		return fmt.Sprintf("C%d", r), fmt.Sprintf("A%d+B%d", r, r)
	})
	e.SetPatternRuns(false)
	e.RecalculateAll()
	e.SetPatternRuns(true)
	for r := 1; r <= 120; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)*2))
	}
	e.RecalculateAll()
	for r := 1; r <= 120; r++ {
		want := float64(r)*2 + float64(120-r) + 0.5
		if got := e.Value(ref.Ref{Col: 3, Row: r}).Num; got != want {
			t.Fatalf("C%d = %v, want %v", r, got, want)
		}
	}
}

// TestPlanWindowsRefusals: the sweep folds an aggregate's range itself only
// when it is one column wide and stays the right way up from the first row
// swept to the last; any other program goes row by row to the interpreter.
// A span's cells each normalised their range at parse, so the inside-out case
// takes a program planned past the rows it was compiled for.
func TestPlanWindowsRefusals(t *testing.T) {
	e := New(nil)
	for r := 1; r <= 20; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
	}
	anchor := ref.MustCell("D2")
	for _, tc := range []struct {
		src  string
		m    int
		want bool
	}{
		{"SUM(A1:A2)", 10, true},
		{"SUM(A$1:A2)-MAX(A$3:A$9)+COUNT(C2:C$20)", 10, true}, // C is empty: a window over no slab
		{"SUM(A1:B2)", 10, false},                             // two columns wide
		{"SUM(A2:A$5)", 3, true},                              // the head reaches the fixed tail
		{"SUM(A2:A$5)", 5, false},                             // and would pass it
	} {
		p := formula.Compile(formula.MustParse(tc.src), anchor)
		if p == nil || !p.HasNumericSweep() {
			t.Fatalf("%s: no numeric plan", tc.src)
		}
		var rs runScratch
		if got := rs.planWindows(&e.store, p.FoldOps(), anchor, tc.m); got != tc.want {
			t.Errorf("%s over %d rows: planned=%v, want %v", tc.src, tc.m, got, tc.want)
		}
	}
}
