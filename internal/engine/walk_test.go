package engine

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// recursiveResolver is the serial resolver the walk replaced: reading a dirty
// cell evaluates it first, on the Go stack, so a chain of n cells is n nested
// evaluations. It is the reference the walk is held to — same cells, same
// values, #CYCLE! on the same cells — and it runs only in tests.
type recursiveResolver struct{ e *Engine }

var _ formula.RangeFolder = recursiveResolver{}

func (r recursiveResolver) CellValue(at ref.Ref) formula.Value {
	c, ok := r.e.store.get(at)
	if !ok {
		return formula.Empty()
	}
	if c.meta().dirty {
		return r.dirtyVal(at, c)
	}
	return c.value()
}

func (r recursiveResolver) RangeValues(rng ref.Range, fn func(at ref.Ref, v formula.Value) bool) {
	r.e.store.scanRange(rng, func(at ref.Ref, c cell) bool { return fn(at, cellVal(at, c, r.dirtyVal)) })
}

func (r recursiveResolver) FoldRange(rng ref.Range) formula.NumericFold {
	return r.e.store.foldRange(rng, r.dirtyVal)
}

func (r recursiveResolver) FoldSumIf(critRng ref.Range, crit formula.Criterion, sumRng ref.Range) float64 {
	return r.e.store.foldSumIf(critRng, crit, sumRng, r.dirtyVal)
}

func (r recursiveResolver) FoldSumProduct(a, b ref.Range) float64 {
	return r.e.store.foldSumProduct(a, b, r.dirtyVal)
}

// dirtyVal evaluates a dirty cell before it is read; a cell under evaluation
// reads as #CYCLE!.
func (r recursiveResolver) dirtyVal(at ref.Ref, c cell) formula.Value {
	if c.meta().evaluating != 0 {
		return formula.Error(formula.ErrCycle)
	}
	r.evaluate(at, c)
	return c.value()
}

// evaluate runs the AST walker over the formula the cell's shape renders.
func (r recursiveResolver) evaluate(at ref.Ref, c cell) {
	if m := c.meta(); m.shape != nil {
		m.evaluating = exactEval
		v := formula.Eval(formula.MustParse(m.shape.Source(at)), r)
		c.col.put(c.i, v)
		m.evaluating = 0
	}
	c.meta().dirty = false
	r.e.store.cleaned(1)
}

// drainRecursive drains the whole dirty set on the recursive resolver, from
// each dirty cell in the dirty spans' column-major order — the order the walk
// takes its roots in.
func drainRecursive(e *Engine) {
	e.noteDirtyMutation()
	e.store.dirtyWindows(func(ci int, col *column, lo, hi int, _ bool) bool {
		for i := lo; i < hi; i++ {
			if col.meta[i].dirty {
				recursiveResolver{e}.evaluate(ref.Ref{Col: ci, Row: col.rows[i]}, cell{col, i})
			}
		}
		return true
	})
}

// walkFrom runs the walk from one cell until its stack is empty and returns
// the evaluations it ran.
func walkFrom(e *Engine, at ref.Ref) int {
	e.walking = true
	e.walk, e.exact = append(e.walk, walkSlot{handle(e, at), at}), 1
	return e.unwind(math.MaxInt)
}

// handle is the handle on the record at at, which must be populated.
func handle(e *Engine, at ref.Ref) cell {
	c, ok := e.store.get(at)
	if !ok {
		panic(fmt.Sprintf("no record at %v", at))
	}
	return c
}

// lookDownChain is column A of rows r = 1..n, A[r] = A[r+1]+$B$1, over the
// input B1 = 1; the last row reads last instead of A[n+1].
func lookDownChain(n int, last string) []ParsedCell {
	pcells := []ParsedCell{{At: ref.MustCell("B1"), Value: formula.Num(1)}}
	for r := 1; r <= n; r++ {
		src := fmt.Sprintf("A%d+$B$1", r+1)
		if r == n {
			src = last
		}
		pcells = append(pcells, ParsedCell{At: ref.Ref{Col: 1, Row: r}, Shape: formula.MustParseShape(src, ref.Ref{Col: 1, Row: r})})
	}
	return pcells
}

// withSmallStack runs fn with every goroutine's stack capped at 32 MB, where a
// recursion one Go frame chain per row dies at ~25 000 rows.
func withSmallStack(fn func()) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	fn()
}

// TestLookDownChainLoads: a 50 000-row look-down chain loads through
// LoadBulkParsed, levelled, and drains again on the walk after an edit of B1
// on a pinned engine, with the stack capped at 32 MB.
func TestLookDownChainLoads(t *testing.T) {
	const rows = 50000
	withSmallStack(func() {
		e := LoadBulkParsed(lookDownChain(rows, "$B$1"))
		for _, b1 := range []float64{1, 2} {
			if b1 != 1 {
				e.SetSerial(true)
				e.SetValue(ref.MustCell("B1"), formula.Num(b1))
				e.RecalculateAll()
			}
			if e.Pending() != 0 {
				t.Fatalf("B1=%v: %d pending", b1, e.Pending())
			}
			for _, r := range []int{1, rows / 2, rows} {
				if v, want := e.Value(ref.Ref{Col: 1, Row: r}), b1*float64(rows-r+1); v != formula.Num(want) {
					t.Fatalf("B1=%v: A%d = %v, want %v", b1, r, v, want)
				}
			}
		}
	})
}

// TestLookDownCycleDrainsInBudget: the same chain closed into a reference
// cycle — its last row now reads A1 — drains by RecalculateN(256) with the
// stack capped at 32 MB. The levelled drain stalls at once, and the walk
// follows the chain over many calls: each runs 1..256 evaluations and cleans
// at most 256 cells, and every cell ends #CYCLE!.
func TestLookDownCycleDrainsInBudget(t *testing.T) {
	const rows, budget = 50000, 256
	withSmallStack(func() {
		e := LoadBulkParsed(lookDownChain(rows, "$B$1"))
		cycles := mCycleCells.Value()
		mustFormula(t, e, fmt.Sprintf("A%d", rows), "A1+$B$1")
		if e.Pending() != rows {
			t.Fatalf("closing the cycle dirtied %d cells, want %d", e.Pending(), rows)
		}
		calls := 0
		for e.Pending() > 0 {
			before := e.Pending()
			if n := e.RecalculateN(budget); n < 1 || n > budget || before-e.Pending() > budget {
				t.Fatalf("call %d: RecalculateN(%d) returned %d and cleaned %d of %d pending", calls, budget, n, before-e.Pending(), before)
			}
			calls++
		}
		// Every cell but the last read a dirty cell once, then was retried.
		if want := (2*rows - 1 + budget - 1) / budget; calls != want {
			t.Fatalf("%d calls, want %d: 2n-1 evaluations, %d a call", calls, want, budget)
		}
		if got := mCycleCells.Value() - cycles; got != rows {
			t.Fatalf("%d cells counted as #CYCLE!, want %d", got, rows)
		}
		for _, r := range []int{1, rows} {
			if v := e.Value(ref.Ref{Col: 1, Row: r}); v.Err != formula.ErrCycle {
				t.Fatalf("A%d = %v, want #CYCLE!", r, v)
			}
		}
	})
}

// TestWalkMatchesRecursion: at 2 000 rows, where the recursion fits the
// default stack, the walk — pinned serial, and after a stalled levelled drain
// in chunks — leaves every cell bit-identical to the recursive reference: a
// look-down chain, the chain closed into a cycle, and the cycle rescued by an
// IFERROR at its last row, which only the entry cell decides.
func TestWalkMatchesRecursion(t *testing.T) {
	const rows = 2000
	for _, last := range []string{"$B$1", "A1+$B$1", "IFERROR(A1,7)+$B$1"} {
		t.Run(last, func(t *testing.T) {
			ref0, pinned, chunked := LoadBulkParsed(lookDownChain(rows, last)), LoadBulkParsed(lookDownChain(rows, last)), LoadBulkParsed(lookDownChain(rows, last))
			pinned.SetSerial(true)
			for _, e := range []*Engine{ref0, pinned, chunked} {
				e.SetValue(ref.MustCell("B1"), formula.Num(2))
			}
			drainRecursive(ref0)
			pinned.RecalculateAll()
			for chunked.Pending() > 0 {
				chunked.RecalculateN(1 + chunked.Pending()%97)
			}
			enginesEqual(t, ref0, pinned)
			enginesEqual(t, ref0, chunked)
		})
	}
}

// TestWalkFromEachEntry: sheets whose values depend on the cell a cycle is
// entered by, entered at every cell in turn; the walk agrees with the
// recursive reference each time. In the second, a fold over a pair of cells
// that rescue each other pushes the second speculatively; its evaluation
// meets the cycle, so it must be dropped and the pair entered in read order.
func TestWalkFromEachEntry(t *testing.T) {
	for _, cells := range [][][2]string{
		{{"A1", "IFERROR(B1,1)+$Z$1"}, {"B1", "C1*2"}, {"C1", "IF(ISERROR(A1),5,A1+1)"}},
		{{"A1", "SUM(B1:B2)"}, {"B1", "IFERROR(B2,1)+100"}, {"B2", "IFERROR(B1,2)+200"}},
	} {
		for _, entry := range cells {
			build := func() *Engine {
				e := New(nil)
				e.SetValue(ref.MustCell("Z1"), formula.Num(3))
				for _, c := range cells {
					mustFormula(t, e, c[0], c[1])
				}
				return e
			}
			walked, reference := build(), build()
			walkFrom(walked, ref.MustCell(entry[0]))
			walked.RecalculateAll()
			recursiveResolver{reference}.evaluate(ref.MustCell(entry[0]), handle(reference, ref.MustCell(entry[0])))
			drainRecursive(reference)
			enginesEqual(t, reference, walked)
		}
	}
}

// TestEditMidWalk: a budget cuts the walk deep inside a chain, so the stack
// holds cells flagged as under evaluation; an edit then drops the stack and
// clears the flags, and the next drain computes every cell afresh.
func TestEditMidWalk(t *testing.T) {
	e := LoadBulkParsed(lookDownChain(40, "$B$1"))
	e.SetValue(ref.MustCell("B1"), formula.Num(2))
	e.RecalculateN(10)
	if len(e.walk) != 11 {
		t.Fatalf("stack of %d after 10 evaluations of a look-down chain, want them and the cell the last pushed", len(e.walk))
	}
	e.SetValue(ref.MustCell("B1"), formula.Num(3))
	if len(e.walk) != 0 || e.walking {
		t.Fatalf("the edit left a stack of %d (walking %v)", len(e.walk), e.walking)
	}
	e.RecalculateAll()
	for r := 1; r <= 40; r++ {
		if v := e.Value(ref.Ref{Col: 1, Row: r}); v != formula.Num(float64(3*(41-r))) {
			t.Fatalf("A%d = %v, want %d", r, v, 3*(41-r))
		}
	}
}

// TestTotalAboveColumnDrainsLinear: a total above a column of 20 000 formulas
// drains pinned serial — whole and one evaluation at a time — and after a
// stalled levelled drain, whole and by RecalculateN(256), to the recursion's
// values, in at most two evaluations per dirty cell and three of the total,
// where a walk that retried the total once per dirty row would take seconds. The column
// reads the total back — the share-of-total sheet with the total summed by
// mistake, the same rescued by IFERROR or through a helper column, a cycle in
// every row — or, for the scans that stop at an error, nothing above it.
func TestTotalAboveColumnDrainsLinear(t *testing.T) {
	const rows, budget = 20000, 256
	share, rescued := "B%[1]d/$C$1", "IFERROR(B%[1]d/$C$1,B%[1]d)"
	for _, tc := range []struct {
		name, total, edit string
		cols              map[int]string // column → formula of row %[1]d
	}{
		{"share", "SUM(D1:D%d)", "B1", map[int]string{4: share}},
		{"rescued share", "SUM(D1:D%d)", "B1", map[int]string{4: rescued}},
		{"helper column", "SUM(D1:D%d)", "B1", map[int]string{4: "E%[1]d*2", 5: rescued}},
		{"cycle per row", "SUM(D1:D%d)", "A1", map[int]string{4: "IFERROR(E%[1]d,0)+B%[1]d*$A$1", 5: "D%[1]d+1"}},
		{"COUNTIF share", "COUNTIF(D1:D%d,\">1\")", "B1", map[int]string{4: share}},
		{"COUNTIF helper column", "COUNTIF(D1:D%d,\">1\")", "B1", map[int]string{4: "E%[1]d*2", 5: rescued}},
		{"AND", "AND(D1:D%d)", "A1", map[int]string{4: "B%[1]d*$A$1"}},
		{"SUM of two arguments", "SUM(D1:D%d,1)", "A1", map[int]string{4: "B%[1]d*$A$1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			total := fmt.Sprintf(tc.total, rows)
			build := func() *Engine {
				pcells := []ParsedCell{
					{At: ref.MustCell("A1"), Value: formula.Num(1)},
					{At: ref.MustCell("C1"), Shape: formula.MustParseShape(total, ref.MustCell("C1"))},
				}
				for r := 1; r <= rows; r++ {
					pcells = append(pcells, ParsedCell{At: ref.Ref{Col: 2, Row: r}, Value: formula.Num(float64(r))})
					for col, f := range tc.cols {
						src := fmt.Sprintf(f, r)
						pcells = append(pcells, ParsedCell{At: ref.Ref{Col: col, Row: r}, Shape: formula.MustParseShape(src, ref.Ref{Col: col, Row: r})})
					}
				}
				e := LoadBulkParsed(pcells)
				e.SetValue(ref.MustCell(tc.edit), formula.Num(3))
				return e
			}
			reference := build()
			dirty := reference.Pending()
			if dirty <= rows {
				t.Fatalf("the edit dirtied %d cells", dirty)
			}
			drainRecursive(reference)
			pinned, whole, chunked, stepped := build(), build(), build(), build()
			pinned.SetSerial(true)
			stepped.SetSerial(true)
			evals := map[string]int{"pinned": pinned.RecalculateAll(), "whole": whole.RecalculateAll()}
			for chunked.Pending() > 0 {
				n := chunked.RecalculateN(budget)
				if n < 1 || n > budget {
					t.Fatalf("RecalculateN(%d) = %d with %d pending", budget, n, chunked.Pending())
				}
				evals["chunked"] += n
			}
			// One evaluation a call: the next is of the topmost dirty entry
			// of the stack, or of a root when there is none.
			totalCell, totals := handle(stepped, ref.MustCell("C1")), 1
			for stepped.Pending() > 0 {
				for i := len(stepped.walk) - 1; i >= 0; i-- {
					if c := stepped.walk[i].c; c.meta().dirty {
						if c == totalCell {
							totals++
						}
						break
					}
				}
				evals["stepped"] += stepped.RecalculateN(1)
			}
			for path, n := range evals {
				if n > 2*dirty {
					t.Errorf("%s: %d evaluations for %d dirty cells", path, n, dirty)
				}
			}
			if totals > 3 {
				t.Errorf("the total was evaluated %d times", totals)
			}
			for _, e := range []*Engine{pinned, whole, chunked, stepped} {
				enginesEqual(t, reference, e)
			}
		})
	}
}

// TestWalkMatchesRecursionOnRandomSheets: small sheets of random formulas
// over one another — cycles everywhere, entered through folds, scans,
// conditionals and IFERROR rescues — drain on the walk, pinned and in random
// chunks, to the recursive reference's values, in a bounded number of
// evaluations.
func TestWalkMatchesRecursionOnRandomSheets(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for sheet := 0; sheet < 300; sheet++ {
		walkMatchesRecursion(t, rng, sheet)
	}
}

// FuzzWalkCycles is TestWalkMatchesRecursionOnRandomSheets with the fuzzer
// choosing the seed of one sheet and of its chunk sizes.
func FuzzWalkCycles(f *testing.F) {
	for seed := range uint64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		walkMatchesRecursion(t, rand.New(rand.NewPCG(seed, 11)), 0)
	})
}

// walkMatchesRecursion draws a random 5×6 sheet from rng and drains it, and two
// edits of it, on the recursive reference and on the walk, pinned and in
// chunks of 1–4 evaluations, which must agree everywhere.
func walkMatchesRecursion(t *testing.T, rng *rand.Rand, sheet int) {
	t.Helper()
	const cols, rows = 5, 6
	cellName := func() string { return fmt.Sprintf("%c%d", 'A'+rng.IntN(cols), 1+rng.IntN(rows)) }
	rangeOf := func() string { return cellName() + ":" + cellName() }
	rectOf := func(w, h int) string { // a w×h rectangle inside the sheet
		c, r := rng.IntN(cols-w+1), 1+rng.IntN(rows-h+1)
		return fmt.Sprintf("%c%d:%c%d", 'A'+c, r, 'A'+c+w-1, r+h-1)
	}
	shapes := []func() string{
		func() string { return cellName() + "+1" },
		func() string { return cellName() + "*2-" + cellName() },
		func() string { return "SUM(" + rangeOf() + ")" },
		func() string { return "MAX(" + rangeOf() + "," + rangeOf() + ")" },
		func() string { return "IFERROR(" + cellName() + "," + fmt.Sprint(rng.IntN(9)) + ")" },
		func() string { return "IF(ISERROR(" + cellName() + ")," + cellName() + "," + cellName() + "+3)" },
		func() string { return "IFERROR(" + cellName() + "+" + cellName() + ",SUM(" + rangeOf() + "))" },
		func() string { return "COUNTIF(" + rangeOf() + ",\">2\")" },
		func() string { return "IFERROR(VLOOKUP(3," + rangeOf() + ",1),7)" },
		func() string { return "SUMIF(" + rangeOf() + ",\">2\"," + rangeOf() + ")" },
		func() string {
			w, h := 1+rng.IntN(cols), 1+rng.IntN(rows)
			return "SUMPRODUCT(" + rectOf(w, h) + "," + rectOf(w, h) + ")"
		},
	}
	srcs := map[string]string{}
	for c := 0; c < cols; c++ {
		for r := 1; r <= rows; r++ {
			if rng.IntN(4) > 0 {
				srcs[fmt.Sprintf("%c%d", 'A'+c, r)] = shapes[rng.IntN(len(shapes))]() + "+$Z$1"
			}
		}
	}
	build := func() *Engine {
		e := New(nil)
		e.SetValue(ref.MustCell("Z1"), formula.Num(1))
		for at, src := range srcs {
			mustFormula(t, e, at, src)
		}
		e.SetSerial(true)
		return e
	}
	reference, pinned, chunked := build(), build(), build()
	drain := func(e *Engine, chunk func() int) {
		for n, dirty := 0, e.Pending(); e.Pending() > 0; {
			if n += e.RecalculateN(chunk()); n > 20*dirty {
				t.Fatalf("sheet %d: %d evaluations for %d dirty cells: %v", sheet, n, dirty, srcs)
			}
		}
	}
	for _, z := range []float64{2, 3} {
		drainRecursive(reference)
		drain(pinned, func() int { return math.MaxInt })
		drain(chunked, func() int { return 1 + rng.IntN(4) })
		for _, e := range []*Engine{reference, pinned, chunked} {
			e.SetValue(ref.MustCell("Z1"), formula.Num(z))
		}
	}
	drainRecursive(reference)
	drain(pinned, func() int { return math.MaxInt })
	drain(chunked, func() int { return 1 + rng.IntN(4) })
	enginesEqual(t, reference, pinned)
	enginesEqual(t, reference, chunked)
	if t.Failed() {
		t.Fatalf("sheet %d: %v", sheet, srcs)
	}
}
