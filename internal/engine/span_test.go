package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/workload"
)

// This file is the differential harness for span scheduling: a small sheet
// whose formula columns are each stamped from one template, an edit list and
// a budget list, driven through the engine under test (TACO graph, span
// nodes, budgeted RecalculateN interleaved with the edits) and through the
// reference (NoComp graph, pattern runs off, pinned to the serial resolver),
// which must agree bit for bit — #CYCLE! set included — and, step for step,
// through a twin of the engine under test on the NoComp graph, which must
// carve the same nodes and drain the same levels. The named cases and
// FuzzSpanDrain's seeds are the same inputs.
//
// Every template that can close a reference cycle is additive, so a cell on
// one is #CYCLE! on the serial resolver whichever member it enters the cycle
// by — the error propagates through + and SUM — and the two paths' cycle
// sets are comparable. The templates whose window lies in another column or
// strictly above their row can close none, and those take any aggregate of
// the numeric plan (spanAggs) in SUM's place; with salt set, column B — the
// data they fold — holds every kind of cell a fold has to get right.

// Column templates: how the cell at (column X, row r) reads its sheet. P is
// the column before X (B, a data column, before the first), N the one after.
const (
	tmplLookUp     = iota // X[r-k] + P[r]: a chain of stride k (k=1: a running balance)
	tmplLookDown          // X[r+k] + A[r]
	tmplStraddle          // X[r-1] + X[r+1]: =D4+D6 copied down, a true cycle
	tmplSameRow           // P[r] + A[r]
	tmplNextPrev          // N[r-1] + A[r]: with tmplSameRow in N, the X/Y zig-zag
	tmplFixedCell         // A[r] * $H$1
	tmplWinAbove          // AGG(X[r-k]:X[r-1]) + A[r]
	tmplWinOnto           // SUM(X[r-k]:X[r]): every cell reads itself
	tmplWinBelow          // SUM(X[r+1]:X[r+k]) + A[r]
	tmplCumulative        // AGG(X$1:X[r-1]) + A[r]: a fixed-head window over the span's own column
	tmplDeepStack         // X[r-1] + a deep nest: a program with a deep value stack and no numeric plan
	tmplSlidePrev         // AGG(P[r-k]:P[r]): the ledger's E
	tmplFixedWin          // AGG(P$2:P$5) + A[r]
	tmplSlideB            // AGG(B[r-k]:B[r]): a sliding window (the paper's RR)
	tmplRunningB          // AGG(B$1:B[r]): a running total (FR) — the accumulator extends
	tmplShrinkB           // AGG(B[r]:B$20): shrinking (RF), then growing once r passes the $ row
	tmplFixedB            // AGG(B$8:B$12) - A[r]: fully fixed (FF)
	tmplRatioB            // AGG(B[r-k]:B[r]) / B[r]: an aggregate under arithmetic, zero divisors
	tmplTwoFolds          // SUM(B[r]:B[r+k]) - AGG(A$1:A[r]): two windows, one running off the populated rows
	tmplRectAB            // AGG(A[r]:B[r+k]) + A[r]: two columns wide — the sweep leaves it to the interpreter
	tmplTwoArgs           // AGG(A[r-k]:A[r], B[r]): no numeric plan
	tmplDivB              // A[r] / B[r]: zero divisors, and operands that do not coerce, where B is salted
	tmplPairB             // B[r] + B[r+2]: salted, a column of numbers with a NaN (Inf-Inf), ±Inf and errors in it
	tmplBlockB            // AGG(B[r]:B[r+47]): a window wider than many chunks, folded afresh each row
	tmplNextNext          // N[r+1] + A[r]: with tmplSameRow in N, the zig-zag mirrored — X1 reads down the whole chain
	tmplChainOp           // X[r-1] op P[r], op one of chainOps: a recurrence, zero divisors where P holds a zero
	tmplChainRight        // P[r] * $rate + X[r-1]: a recurrence with prev on the right
	tmplChainNest         // X[r-1] * 2 + A[r]: prev under an operator, so the row loop, not a recurrence
	numTmpl
)

// chainOps are tmplChainOp's operators, as spanColumn.agg selects them.
var chainOps = [...]string{"-", "*", "/"}

// spanAggs are the aggregates the numeric plan folds, as spanColumn.agg
// selects them.
var spanAggs = [...]string{"SUM", "AVERAGE", "COUNT", "COUNTA", "MIN", "MAX"}

// spanPivot is tmplShrinkB's fixed row.
const spanPivot = 20

const (
	spanColA     = 1
	spanColB     = 2
	spanFirstCol = 3 // formula columns start at C
	spanRateCol  = 30
)

var spanRate = ref.Ref{Col: spanRateCol, Row: 1}

// deepNest is an addend whose program stacks 141 values, past the numeric
// plan's depth, so its column runs on the row loop.
var deepNest = strings.Repeat("(1+", 140) + "1" + strings.Repeat(")", 140)

// spanColumn is one formula column: template, stride/width k, every hole-th
// row left empty, every head-th row a chain head (=A[r]), and one row holding
// a plain value instead of the formula (0: none). agg indexes spanAggs in the
// templates that take an aggregate.
type spanColumn struct {
	tmpl, k, hole, head, over, agg int
}

func (c spanColumn) formula(col, r int) string {
	x, p, n := ref.ColName(col), ref.ColName(col-1), ref.ColName(col+1)
	agg := spanAggs[c.agg]
	head := fmt.Sprintf("A%d", r)
	if c.head > 0 && (r-1)%c.head == 0 {
		return head
	}
	switch c.tmpl {
	case tmplLookUp:
		if r-c.k < 1 {
			return fmt.Sprintf("%s%d", p, r)
		}
		return fmt.Sprintf("%s%d+%s%d", x, r-c.k, p, r)
	case tmplLookDown:
		return fmt.Sprintf("%s%d+A%d", x, r+c.k, r)
	case tmplStraddle:
		if r == 1 {
			return head
		}
		return fmt.Sprintf("%s%d+%s%d", x, r-1, x, r+1)
	case tmplSameRow:
		return fmt.Sprintf("%s%d+A%d", p, r, r)
	case tmplNextPrev:
		if r == 1 {
			return head
		}
		return fmt.Sprintf("%s%d+A%d", n, r-1, r)
	case tmplFixedCell:
		return fmt.Sprintf("A%d*$%s$1", r, ref.ColName(spanRateCol))
	case tmplWinAbove:
		if r-c.k < 1 {
			return head
		}
		return fmt.Sprintf("%s(%s%d:%s%d)+A%d", agg, x, r-c.k, x, r-1, r)
	case tmplWinOnto:
		return fmt.Sprintf("SUM(%s%d:%s%d)", x, max(1, r-c.k), x, r)
	case tmplWinBelow:
		return fmt.Sprintf("SUM(%s%d:%s%d)+A%d", x, r+1, x, r+c.k, r)
	case tmplCumulative:
		if r == 1 {
			return head
		}
		return fmt.Sprintf("%s(%s$1:%s%d)+A%d", agg, x, x, r-1, r)
	case tmplDeepStack:
		if r == 1 {
			return head
		}
		return fmt.Sprintf("%s%d+%s", x, r-1, deepNest)
	case tmplSlidePrev:
		return fmt.Sprintf("%s(%s%d:%s%d)", agg, p, max(1, r-c.k), p, r)
	case tmplFixedWin:
		return fmt.Sprintf("%s(%s$2:%s$5)+A%d", agg, p, p, r)
	case tmplSlideB:
		return fmt.Sprintf("%s(B%d:B%d)", agg, max(1, r-c.k), r)
	case tmplRunningB:
		return fmt.Sprintf("%s(B$1:B%d)", agg, r)
	case tmplShrinkB:
		return fmt.Sprintf("%s(B%d:B$%d)", agg, r, spanPivot) // past the pivot the parser swaps the corners
	case tmplFixedB:
		return fmt.Sprintf("%s(B$8:B$12)-A%d", agg, r)
	case tmplRatioB:
		return fmt.Sprintf("%s(B%d:B%d)/B%d", agg, max(1, r-c.k), r, r)
	case tmplTwoFolds:
		return fmt.Sprintf("SUM(B%d:B%d)-%s(A$1:A%d)", r, r+c.k, agg, r)
	case tmplRectAB:
		return fmt.Sprintf("%s(A%d:B%d)+A%d", agg, r, r+c.k, r)
	case tmplTwoArgs:
		return fmt.Sprintf("%s(A%d:A%d,B%d)", agg, max(1, r-c.k), r, r)
	case tmplDivB:
		return fmt.Sprintf("A%d/B%d", r, r)
	case tmplPairB:
		return fmt.Sprintf("B%d+B%d", r, r+2)
	case tmplNextNext:
		return fmt.Sprintf("%s%d+A%d", n, r+1, r)
	case tmplChainOp:
		if r == 1 {
			return head
		}
		return fmt.Sprintf("%s%d%s%s%d", x, r-1, chainOps[c.agg%len(chainOps)], p, r)
	case tmplChainRight:
		if r == 1 {
			return head
		}
		return fmt.Sprintf("%s%d*$%s$1+%s%d", p, r, ref.ColName(spanRateCol), x, r-1)
	case tmplChainNest:
		if r == 1 {
			return head
		}
		return fmt.Sprintf("%s%d*2+A%d", x, r-1, r)
	default: // tmplBlockB
		return fmt.Sprintf("%s(B%d:B%d)", agg, r, r+47)
	}
}

// Edit kinds. The column selector picks a formula column where one is needed.
const (
	editData    = iota // A[row] := val
	editRate           // the $-fixed cell := val
	editValue          // (col,row) := val — overwrites a formula, e.g. a chain head
	editFormula        // (col,row) := the column's formula — e.g. a value→formula switch
	editClear          // clear (col,row)
	editPrev           // B[row] := val — a number over whatever the salt left there
	editText           // (col,row) := text: "txt" for an odd val, else a number's spelling, which coerces
	numEdit
)

// spanEdit is one edit; val is the value written, and val%4 == 3 also asks
// for a full drain after the edit's budgeted chunk.
type spanEdit struct{ kind, col, row, val int }

// spanCase is one differential input.
type spanCase struct {
	rows    int
	salt    bool // B holds saltValue's mix of kinds instead of numbers
	cols    []spanColumn
	edits   []spanEdit
	budgets []int // RecalculateN budgets, one after each edit, then cycled to drain
}

// decodeSpanCase maps fuzz bytes onto a bounded case: 8–71 rows, salted or
// not, up to six formula columns (four bytes each), up to twelve edits (four
// bytes each).
func decodeSpanCase(rows uint8, cols, edits, budgets []byte) spanCase {
	sc := spanCase{rows: 8 + int(rows%64), salt: rows&64 != 0}
	for i := 0; i+4 <= len(cols) && len(sc.cols) < 6; i += 4 {
		c := spanColumn{tmpl: int(cols[i]) % numTmpl, k: 1 + int(cols[i+1])%3, agg: int(cols[i+1]) / 3 % len(spanAggs)}
		if h := int(cols[i+2]) % 8; h >= 3 {
			c.hole = h
		}
		if h := int(cols[i+2]) / 8 % 8; h >= 2 {
			c.head = 4 * h
		}
		c.over = int(cols[i+3]) % (sc.rows + 1)
		sc.cols = append(sc.cols, c)
	}
	for i := 0; i+4 <= len(edits) && len(sc.edits) < 12; i += 4 {
		sc.edits = append(sc.edits, spanEdit{
			kind: int(edits[i]) % numEdit, col: int(edits[i+1]), row: 1 + int(edits[i+2])%sc.rows, val: int(edits[i+3]),
		})
	}
	for _, b := range budgets {
		sc.budgets = append(sc.budgets, 1+int(b))
	}
	return sc
}

// saltValue is what a salted column B holds at row r — per 23 rows: three
// rows without a number (AVERAGE of them is #DIV/0!), two different errors
// one above the other (the upper one is the window's), a stored blank, -0,
// both infinities within one window's reach (their sum is NaN), three rows
// with no record at all, and numbers elsewhere. set is false for the gap.
func saltValue(r int) (v formula.Value, set bool) {
	switch r % 23 {
	case 0:
		return formula.Str("txt"), true
	case 1:
		return formula.Str("12.5"), true // a number to a cell operand, text to a fold
	case 2:
		return formula.Boolean(true), true
	case 5:
		return formula.Error(formula.ErrNA), true
	case 6:
		return formula.Error(formula.ErrDiv0), true
	case 8:
		return formula.Empty(), true
	case 9:
		return formula.Num(math.Copysign(0, -1)), true
	case 10:
		return formula.Num(math.Inf(1)), true
	case 12:
		return formula.Num(math.Inf(-1)), true
	case 15, 16, 17:
		return formula.Value{}, false
	}
	return formula.Num(float64(r%7) - 2.5), true
}

func (sc spanCase) build(t testing.TB, e *Engine) {
	e.SetValue(spanRate, formula.Num(1.5))
	for r := 1; r <= sc.rows; r++ {
		e.SetValue(ref.Ref{Col: spanColA, Row: r}, formula.Num(float64(r)+0.25))
		b, set := formula.Num(float64(sc.rows-r)+0.5), true
		if sc.salt {
			b, set = saltValue(r)
		}
		if set {
			e.SetValue(ref.Ref{Col: spanColB, Row: r}, b)
		}
	}
	for i, c := range sc.cols {
		col := spanFirstCol + i
		for r := 1; r <= sc.rows; r++ {
			at := ref.Ref{Col: col, Row: r}
			switch {
			case c.hole > 0 && r%c.hole == 0:
			case r == c.over:
				e.SetValue(at, formula.Num(float64(r)))
			default:
				if _, err := e.SetFormula(at, c.formula(col, r)); err != nil {
					t.Fatalf("SetFormula(%v): %v", at, err)
				}
			}
		}
	}
}

// apply makes one edit and checks the invariant marking rests on: what an
// edit returns as its dependents covers, of the populated cells, formula
// cells only — so markRange's slab walk touches nothing it does not flag.
func (sc spanCase) apply(t testing.TB, e *Engine, ed spanEdit) {
	for _, rng := range sc.edit(t, e, ed) {
		e.ScanRange(rng, func(at ref.Ref, _ formula.Value, src string, _ bool) bool {
			if src == "" {
				t.Fatalf("edit %+v: dependents range %v covers the value cell %v", ed, rng, at)
			}
			return true
		})
	}
}

// edit makes one edit and returns the dirty ranges the engine answered.
func (sc spanCase) edit(t testing.TB, e *Engine, ed spanEdit) []ref.Range {
	v := formula.Num(float64(ed.val) + 0.5)
	switch ed.kind {
	case editData:
		return e.SetValue(ref.Ref{Col: spanColA, Row: ed.row}, v)
	case editRate:
		return e.SetValue(spanRate, v)
	case editPrev:
		return e.SetValue(ref.Ref{Col: spanColB, Row: ed.row}, v)
	}
	if len(sc.cols) == 0 {
		return nil
	}
	i := ed.col % len(sc.cols)
	at := ref.Ref{Col: spanFirstCol + i, Row: ed.row}
	switch ed.kind {
	case editValue:
		return e.SetValue(at, v)
	case editText:
		if ed.val%2 == 1 {
			return e.SetValue(at, formula.Str("txt"))
		}
		return e.SetValue(at, formula.Str(fmt.Sprint(v.Num)))
	case editFormula:
		dirty, err := e.SetFormula(at, sc.cols[i].formula(at.Col, at.Row))
		if err != nil {
			t.Fatalf("SetFormula(%v): %v", at, err)
		}
		return dirty
	}
	return e.ClearCell(at)
}

// spanChunks are the lane sweep's chunk lengths every case runs at: the
// shipped one, which no case here is long enough to fill, and a small odd one
// that puts a chunk's edge inside every span — a flagged row first or last in
// its chunk, a budget that ends mid-chunk, a fold window across two chunks.
var spanChunks = [...]int{sweepChunk, 5}

// eachSpanChunk runs fn once per chunk length and puts the shipped one back.
func eachSpanChunk(fn func()) {
	defer func(n int) { sweepChunk = n }(sweepChunk)
	for _, sweepChunk = range spanChunks {
		fn()
	}
}

// run drives the case through both engines, once per chunk length, and
// compares them; it returns the last engine under test.
func (sc spanCase) run(t *testing.T) (got *Engine) {
	t.Helper()
	eachSpanChunk(func() { got = sc.runOnce(t) })
	return got
}

func (sc spanCase) runOnce(t *testing.T) (got *Engine) {
	t.Helper()
	got = New(nil)
	// The twin differs from got in its graph only, so it must schedule as got
	// does: the same nodes carved from what is flagged, the same levels drained.
	twin := New(NoComp{G: nocomp.NewGraph()})
	want := New(NoComp{G: nocomp.NewGraph()})
	want.SetPatternRuns(false)
	want.SetSerial(true)
	sc.build(t, got)
	sc.build(t, twin)
	sc.build(t, want)
	budget := func(i int) int {
		if len(sc.budgets) == 0 {
			return 1 << 20
		}
		return sc.budgets[i%len(sc.budgets)]
	}
	sameSchedule := func(step string) {
		t.Helper()
		if g, w := carvedNodes(got, (*Engine).carve), carvedNodes(twin, (*Engine).carve); !slices.Equal(g, w) {
			t.Fatalf("%s: TACO-backed engine carves %v, NoComp-backed %v", step, g, w)
		}
		if g, w := carvedNodes(got, (*Engine).carve), carvedNodes(got, (*Engine).carveRecords); !slices.Equal(g, w) {
			t.Fatalf("%s: the carve from the run tables gives %v, the record walk %v", step, g, w)
		}
		checkRunTables(t, got, step)
		if g, w := got.RecalcStats().LevelsDrained, twin.RecalcStats().LevelsDrained; g != w {
			t.Fatalf("%s: TACO-backed engine has drained %d levels, NoComp-backed %d", step, g, w)
		}
	}
	sameSchedule("load")
	got.RecalculateN(budget(0))
	twin.RecalculateN(budget(0))
	for i, ed := range sc.edits {
		sc.apply(t, got, ed)
		sc.apply(t, twin, ed)
		sc.apply(t, want, ed)
		sameSchedule(fmt.Sprintf("edit %d", i))
		before := got.Pending()
		if n := got.RecalculateN(budget(i + 1)); before > 0 && n == 0 {
			t.Fatalf("edit %d: budgeted drain made no progress with %d pending", i, before)
		}
		twin.RecalculateN(budget(i + 1))
		if ed.val%4 == 3 {
			got.RecalculateAll() // a finished epoch: the next edit starts with nothing dirty
			twin.RecalculateAll()
		}
		sameSchedule(fmt.Sprintf("drain after edit %d", i))
	}
	for i := 0; got.Pending() > 0; i++ {
		if got.RecalculateN(budget(i)) == 0 {
			t.Fatalf("drain stalled with %d pending", got.Pending())
		}
		twin.RecalculateN(budget(i))
	}
	sameSchedule("final drain")
	want.RecalculateAll()
	if g, w := got.NumCells(), want.NumCells(); g != w {
		t.Fatalf("cell counts diverge: %d vs reference %d", g, w)
	}
	want.store.eachColumnMajor(func(at ref.Ref, c cell) error {
		g, clean := got.Peek(at)
		if !clean {
			t.Errorf("%v: left dirty", at)
		}
		if w := c.value(); g.Kind != w.Kind || math.Float64bits(g.Num) != math.Float64bits(w.Num) || g.Err != w.Err {
			t.Errorf("%v (%q): got %v, reference %v", at, want.Formula(at), g, w)
		}
		return nil
	})
	if err := got.TACOGraph().Check(); err != nil {
		t.Fatalf("graph invariants: %v", err)
	}
	return got
}

// The named shapes: each is a fuzz seed and a test of its own.
var spanSeeds = []struct {
	name string
	sc   spanCase
}{
	{"ledger", spanCase{rows: 71, // C rate column, D running balance with heads, E sliding SUM, F fixed SUM, G cumulative
		cols: []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplLookUp, k: 1, head: 16}, {tmpl: tmplSlidePrev, k: 3},
			{tmpl: tmplFixedWin}, {tmpl: tmplCumulative}},
		edits:   []spanEdit{{kind: editRate, val: 3}, {kind: editData, row: 40, val: 9}, {kind: editRate, val: 4}},
		budgets: []int{256, 7, 64}}},
	{"straddle_D4_plus_D6", spanCase{rows: 40,
		cols:    []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplStraddle}, {tmpl: tmplSameRow}},
		edits:   []spanEdit{{kind: editRate, val: 2}, {kind: editValue, col: 1, row: 20, val: 5}},
		budgets: []int{50}}},
	{"zigzag", spanCase{rows: 64,
		cols:    []spanColumn{{tmpl: tmplNextPrev}, {tmpl: tmplSameRow}, {tmpl: tmplSameRow}},
		edits:   []spanEdit{{kind: editData, row: 1, val: 7}, {kind: editData, row: 30, val: 8}},
		budgets: []int{33}}},
	{"mirrored_zigzag", spanCase{rows: 64,
		cols:    []spanColumn{{tmpl: tmplNextNext}, {tmpl: tmplSameRow}},
		edits:   []spanEdit{{kind: editData, row: 64, val: 7}, {kind: editData, row: 30, val: 8}},
		budgets: []int{33}}},
	{"look_down_chain", spanCase{rows: 70,
		cols:    []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplLookDown, k: 1}, {tmpl: tmplWinBelow, k: 3}},
		edits:   []spanEdit{{kind: editRate, val: 6}, {kind: editData, row: 70, val: 1}},
		budgets: []int{40, 9}}},
	{"chain_head_overwritten_between_chunks", spanCase{rows: 71,
		cols: []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplLookUp, k: 1}},
		edits: []spanEdit{{kind: editRate, val: 2}, {kind: editValue, col: 1, row: 1, val: 11},
			{kind: editValue, col: 1, row: 30, val: 12}, {kind: editFormula, col: 1, row: 30}, {kind: editClear, col: 1, row: 50}},
		budgets: []int{100, 20, 7}}},
	{"same_root_repeated_around_slab_edits", spanCase{rows: 71,
		cols: []spanColumn{{tmpl: tmplFixedCell, hole: 7}, {tmpl: tmplLookUp, k: 1, head: 16}, {tmpl: tmplSlidePrev, k: 2}},
		edits: []spanEdit{{kind: editRate, val: 3}, {kind: editRate, val: 7}, {kind: editValue, col: 0, row: 14, val: 3},
			{kind: editRate, val: 11}, {kind: editClear, col: 0, row: 14, val: 3}, {kind: editRate, val: 15}, {kind: editRate, val: 19}},
		budgets: []int{256}}},
	{"windows_and_deep_stack", spanCase{rows: 60,
		cols: []spanColumn{{tmpl: tmplWinAbove, k: 3, hole: 7}, {tmpl: tmplWinOnto, k: 2}, {tmpl: tmplDeepStack, over: 9},
			{tmpl: tmplLookUp, k: 2, head: 12}},
		edits:   []spanEdit{{kind: editData, row: 2, val: 3}, {kind: editFormula, col: 2, row: 9}, {kind: editData, row: 5, val: 4}},
		budgets: []int{17}}},
	// Every aggregate of the numeric plan over each window shape, on the
	// salted column: errors (two different ones in one window), text, a bool,
	// a stored blank, gaps, -0, ±Inf, and windows holding no number or
	// nothing at all.
	{"aggregates_sliding", spanCase{rows: 71, salt: true, cols: sixAggs(tmplSlideB, 2),
		edits: []spanEdit{{kind: editPrev, row: 6, val: 2}, {kind: editPrev, row: 16, val: 5}}, budgets: []int{256}}},
	// A budget of seven cuts each running total every few rows, so the
	// accumulator restarts mid-column from a re-planned window.
	{"aggregates_fixed_head_in_chunks_of_seven", spanCase{rows: 71, salt: true, cols: sixAggs(tmplRunningB, 1),
		edits: []spanEdit{{kind: editPrev, row: 5, val: 3}, {kind: editPrev, row: 40, val: 7}}, budgets: []int{7}}},
	{"aggregates_fixed_tail_crossing_its_pivot", spanCase{rows: 60, salt: true, cols: sixAggs(tmplShrinkB, 1),
		edits: []spanEdit{{kind: editPrev, row: spanPivot, val: 3}, {kind: editPrev, row: 6, val: 1}}, budgets: []int{100, 9}}},
	{"aggregates_fully_fixed", spanCase{rows: 40, salt: true, cols: sixAggs(tmplFixedB, 1),
		edits: []spanEdit{{kind: editPrev, row: 10, val: 3}, {kind: editData, row: 3, val: 2}}, budgets: []int{64}}},
	{"aggregates_over_their_own_column", spanCase{rows: 71, cols: sixAggs(tmplCumulative, 1),
		edits:   []spanEdit{{kind: editData, row: 1, val: 3}, {kind: editValue, col: 4, row: 30, val: 7}, {kind: editData, row: 2, val: 4}},
		budgets: []int{7}}},
	{"aggregates_under_arithmetic_and_off_the_fast_path", spanCase{rows: 71, salt: true,
		cols: []spanColumn{{tmpl: tmplRatioB, k: 3}, {tmpl: tmplRatioB, k: 2, agg: 1}, {tmpl: tmplTwoFolds, k: 3, agg: 2},
			{tmpl: tmplTwoFolds, k: 2, agg: 5}, {tmpl: tmplRectAB, k: 2}, {tmpl: tmplTwoArgs, k: 2, agg: 4}},
		edits:   []spanEdit{{kind: editData, row: 1, val: 3}, {kind: editPrev, row: 9, val: 2}, {kind: editPrev, row: 23, val: 0}},
		budgets: []int{50, 7}}},
	// The run tables under the writes that repair them, each between full
	// drains that carve from the repaired table: a rewrite at row 3, whose
	// upper piece is too short to keep, and its restore; a rewrite and restore
	// mid-column; a clear that leaves a gap, and the insert into it that joins
	// the two stretches again.
	{"rewrite_at_row_3", spanCase{rows: 40,
		cols: []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplLookUp, k: 1}},
		edits: []spanEdit{{kind: editRate, val: 3}, {kind: editValue, col: 0, row: 3, val: 7}, {kind: editRate, val: 11},
			{kind: editFormula, col: 0, row: 3, val: 3}, {kind: editValue, col: 1, row: 3, val: 3}, {kind: editRate, val: 15}},
		budgets: []int{256}}},
	{"rewrite_and_restore", spanCase{rows: 60,
		cols: []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplSlidePrev, k: 3}},
		edits: []spanEdit{{kind: editRate, val: 3}, {kind: editValue, col: 0, row: 30, val: 7}, {kind: editRate, val: 11},
			{kind: editFormula, col: 0, row: 30, val: 3}, {kind: editRate, val: 15}},
		budgets: []int{256}}},
	{"insert_joins_two_stretches", spanCase{rows: 50,
		cols: []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplLookUp, k: 1}},
		edits: []spanEdit{{kind: editRate, val: 3}, {kind: editClear, col: 0, row: 25, val: 3}, {kind: editRate, val: 7},
			{kind: editFormula, col: 0, row: 25, val: 3}, {kind: editRate, val: 11}},
		budgets: []int{256}}},
	// A budget cuts the rate edit's drain, which retires its dense marks, and
	// edits mark over the remainder before the next chunk: a rate edit
	// re-marks whole columns, a data edit a few rows of each.
	{"budget_cut_then_edit", spanCase{rows: 71,
		cols: []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplLookUp, k: 1, head: 16}, {tmpl: tmplSlidePrev, k: 3}},
		edits: []spanEdit{{kind: editRate, val: 1}, {kind: editData, row: 20, val: 2}, {kind: editRate, val: 5},
			{kind: editValue, col: 1, row: 40, val: 6}, {kind: editRate, val: 8}},
		budgets: []int{30, 9}}},
	// Recurrences over the salted column, each restarted every 16 rows: C
	// divides by B, which holds zeros (-0, a stored blank, gaps), text and
	// errors mid-chunk at either chunk length; D subtracts C, with its errors;
	// E carries prev on the right; F reads prev under an operator and stays on
	// the row loop.
	{"recurrences_over_zero_text_and_error", spanCase{rows: 71, salt: true,
		cols: []spanColumn{{tmpl: tmplChainOp, agg: 2, head: 16}, {tmpl: tmplChainOp, agg: 0, head: 16},
			{tmpl: tmplChainRight, head: 16, hole: 7}, {tmpl: tmplChainNest, head: 16}},
		edits: []spanEdit{{kind: editRate, val: 3}, {kind: editPrev, row: 9, val: 2}, {kind: editPrev, row: 28, val: 5},
			{kind: editRate, val: 6}},
		budgets: []int{256, 9}}},
	// Text above a recurrence's first row, mid-column: "txt", which ends the
	// register loop before it starts, then a number's spelling, which coerces;
	// a plain number and a gap above others.
	{"text_above_a_recurrence", spanCase{rows: 60,
		cols: []spanColumn{{tmpl: tmplFixedCell}, {tmpl: tmplChainOp, agg: 1, over: 30}, {tmpl: tmplChainRight, hole: 11},
			{tmpl: tmplChainOp, agg: 2}},
		edits: []spanEdit{{kind: editRate, val: 3}, {kind: editText, col: 1, row: 12, val: 1}, {kind: editRate, val: 7},
			{kind: editText, col: 1, row: 12, val: 2}, {kind: editText, col: 3, row: 41, val: 5}, {kind: editRate, val: 11}},
		budgets: []int{256, 7}}},
	// Sliding windows over numbers on gapless rows, folded off the slab, and
	// the same windows where they are not: C slides over B, D over C — with a
	// gap cleared into C and filled again — and the two 48-row blocks run off
	// the populated rows at the bottom.
	{"slides_taken_and_not", spanCase{rows: 71,
		cols: []spanColumn{{tmpl: tmplSlidePrev, k: 3}, {tmpl: tmplSlidePrev, k: 2, agg: 4}, {tmpl: tmplBlockB, agg: 1},
			{tmpl: tmplBlockB, agg: 5}},
		edits: []spanEdit{{kind: editPrev, row: 30, val: 2}, {kind: editClear, col: 0, row: 20, val: 3},
			{kind: editPrev, row: 21, val: 4}, {kind: editFormula, col: 0, row: 20, val: 3}, {kind: editPrev, row: 60, val: 1}},
		budgets: []int{256, 9}}},
}

// sixAggs is one column of the template per aggregate.
func sixAggs(tmpl, k int) (cols []spanColumn) {
	for agg := range spanAggs {
		cols = append(cols, spanColumn{tmpl: tmpl, k: k, agg: agg})
	}
	return cols
}

func TestSpanDrainShapes(t *testing.T) {
	for _, seed := range spanSeeds {
		t.Run(seed.name, func(t *testing.T) { seed.sc.run(t) })
	}
}

// TestSpanSeedsReachTheirPaths: the seeds written for the recurrence and the
// sliding window take those paths, and leave them, at either chunk length — a
// seed that stopped reaching its path would still pass the differential check.
func TestSpanSeedsReachTheirPaths(t *testing.T) {
	for _, seed := range spanSeeds {
		var reached func(c sweepCounts) bool
		switch seed.name {
		case "recurrences_over_zero_text_and_error", "text_above_a_recurrence":
			reached = func(c sweepCounts) bool { return c.chain > 0 && c.interp > 0 }
		case "slides_taken_and_not":
			reached = func(c sweepCounts) bool { return c.slide > 0 && c.slide < c.lane }
		default:
			continue
		}
		eachSpanChunk(func() {
			if c := seed.sc.runOnce(t).swept; !reached(c) {
				t.Errorf("%s, chunks of %d: rows by path %+v", seed.name, sweepChunk, c)
			}
		})
	}
}

// encode is decodeSpanCase's inverse for the seeds.
func (sc spanCase) encode() (rows uint8, cols, edits, budgets []byte) {
	for _, c := range sc.cols {
		cols = append(cols, byte(c.tmpl), byte(max(c.k, 1)-1+3*c.agg), byte(c.hole+8*(c.head/4)), byte(c.over))
	}
	for _, ed := range sc.edits {
		edits = append(edits, byte(ed.kind), byte(ed.col), byte(max(ed.row, 1)-1), byte(ed.val))
	}
	for _, b := range sc.budgets {
		budgets = append(budgets, byte(b-1))
	}
	rows = uint8(sc.rows - 8)
	if sc.salt {
		rows |= 64
	}
	return rows, cols, edits, budgets
}

// FuzzSpanDrain: any sheet the templates can stamp, under any interleaving
// of edits and budgeted drains, ends bit-identical to the serial reference
// with nothing pending and the compressed graph's invariants intact.
func FuzzSpanDrain(f *testing.F) {
	for _, seed := range spanSeeds {
		rows, cols, edits, budgets := seed.sc.encode()
		f.Add(rows, cols, edits, budgets)
	}
	f.Fuzz(func(t *testing.T, rows uint8, cols, edits, budgets []byte) {
		decodeSpanCase(rows, cols, edits, budgets).run(t)
	})
}

// spanBackends are the graphs the schedule must come out the same on: it is
// carved and linked from the formulas, and asks the graph nothing.
var spanBackends = []struct {
	name string
	new  func() Graph
}{
	{"TACO", func() Graph { return nil }},
	{"NoComp", func() Graph { return NoComp{G: nocomp.NewGraph()} }},
}

// TestSpanSelfDependence pins the sweep-it-or-split-it rule on the shapes it
// separates, on either backend: a span that reads only rows above itself stays
// one node and drains as one sweep, every other self-dependence is carved as
// single cells up front.
func TestSpanSelfDependence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		col   spanColumn
		whole bool
	}{
		{"running_balance", spanColumn{tmpl: tmplLookUp, k: 1}, true},
		{"stride_2_chain", spanColumn{tmpl: tmplLookUp, k: 2}, true},
		{"window_above", spanColumn{tmpl: tmplWinAbove, k: 3}, true},
		{"cumulative_sum", spanColumn{tmpl: tmplCumulative}, true},
		{"look_down", spanColumn{tmpl: tmplLookDown, k: 1}, false},
		{"straddle", spanColumn{tmpl: tmplStraddle}, false},
		{"window_onto_itself", spanColumn{tmpl: tmplWinOnto, k: 2}, false},
		{"window_below", spanColumn{tmpl: tmplWinBelow, k: 2}, false},
		{"recurrence_divide", spanColumn{tmpl: tmplChainOp, agg: 2}, true},
		{"recurrence_prev_on_the_right", spanColumn{tmpl: tmplChainRight}, true},
		{"prev_under_an_operator", spanColumn{tmpl: tmplChainNest}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := spanCase{rows: 70, cols: []spanColumn{tc.col}}
			serial := New(nil)
			serial.SetSerial(true)
			sc.build(t, serial)
			serial.RecalculateAll()
			for _, backend := range spanBackends {
				e := New(backend.new())
				sc.build(t, e)
				runs, singles := carveFixture(e)
				spans, want := len(runs), 0
				for _, nd := range runs {
					want += nd.n // the drain drops the windows
				}
				if tc.whole && (spans != 1 || singles > 3) {
					t.Fatalf("%s: carved %d spans and %d singles, want one span (and the head cells)", backend.name, spans, singles)
				}
				if !tc.whole && spans != 0 {
					t.Fatalf("%s: carved %d spans from a column an ascending sweep cannot order", backend.name, spans)
				}
				e.RecalculateAll()
				if swept := e.swept.lane + e.swept.loop + e.swept.interp; swept != uint64(want) {
					t.Fatalf("%s: %d rows swept, want the span's %d", backend.name, swept, want)
				}
				enginesEqual(t, serial, e)
			}
			sc.run(t)
		})
	}
}

// TestSpanCoarseCycleDemotes: X reads Y's previous row and Y reads X's
// current row — two spans each waiting on the other while the cells form a
// zig-zag chain. The stall demotes them; nothing is a cycle, and the values
// are a pinned-serial twin's.
func TestSpanCoarseCycleDemotes(t *testing.T) {
	sc := spanSeeds[2].sc
	if spanSeeds[2].name != "zigzag" {
		t.Fatalf("seed 2 is %q", spanSeeds[2].name)
	}
	serial, e := New(nil), New(nil)
	serial.SetSerial(true)
	sc.build(t, serial)
	sc.build(t, e)
	serial.RecalculateAll()
	if runs, _ := carveFixture(e); len(runs) != 3 {
		t.Fatalf("carved %d spans, want the three columns", len(runs))
	}
	builds := e.RecalcStats().ScheduleBuilds
	e.RecalculateAll()
	if got := e.RecalcStats().ScheduleBuilds; got != builds {
		t.Fatalf("demotion counted as %d schedule builds", got-builds)
	}
	e.store.eachColumnMajor(func(at ref.Ref, c cell) error {
		if v := c.value(); c.meta().dirty || v.Kind == formula.KindError {
			t.Errorf("%v = %v (dirty %v) after the demoted drain", at, v, c.meta().dirty)
		}
		return nil
	})
	enginesEqual(t, serial, e)
	sc.run(t)
}

// TestSpanMirroredZigzagDrainsInBudget: the zig-zag mirrored — X reads Y's
// next row, Y reads X's current row — so the serial resolver, entering at X1,
// recurses down the whole chain. The levelled drain stalls on the two spans
// all the same and demotes them, and a server's chunks of 256 then drain the
// chain by levels: none past its budget, one schedule build for the edit, the
// values a pinned-serial twin's.
func TestSpanMirroredZigzagDrainsInBudget(t *testing.T) {
	const budget = 256
	sc := spanCase{rows: 600, cols: []spanColumn{{tmpl: tmplNextNext}, {tmpl: tmplSameRow}}}
	serial, e := New(nil), New(nil)
	serial.SetSerial(true)
	for _, eng := range []*Engine{serial, e} {
		sc.build(t, eng)
		eng.RecalculateAll()
		sc.apply(t, eng, spanEdit{kind: editData, row: sc.rows, val: 3})
	}
	serial.RecalculateAll()
	if e.Pending() != 2*sc.rows {
		t.Fatalf("the edit dirtied %d cells, want the whole chain, %d", e.Pending(), 2*sc.rows)
	}
	builds := e.RecalcStats().ScheduleBuilds
	for e.Pending() > 0 {
		before := e.Pending()
		if n := e.RecalculateN(budget); n == 0 || n > budget || before-e.Pending() > budget {
			t.Fatalf("RecalculateN(%d) returned %d and cleaned %d of %d pending", budget, n, before-e.Pending(), before)
		}
	}
	if got := e.RecalcStats().ScheduleBuilds - builds; got != 1 {
		t.Fatalf("%d schedule builds for one edit's chunks, want one", got)
	}
	enginesEqual(t, serial, e)
}

// TestSpanChainInChunksOfSeven: a 256-row chain drained seven cells at a
// time stays one node whose cursor advances — one build, exact budgets, and
// every chunk a sweep, each row carried on the recurrence from the row above —
// on either backend.
func TestSpanChainInChunksOfSeven(t *testing.T) {
	build := func(e *Engine) {
		e.SetValue(spanRate, formula.Num(2))
		for r := 1; r <= 256; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
			if r == 1 {
				mustFormula(t, e, "D1", "A1*$AD$1")
			} else {
				mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("D%d+A%d*$AD$1", r-1, r))
			}
		}
		e.RecalculateAll()
		e.SetValue(spanRate, formula.Num(3))
	}
	serial := New(nil)
	serial.SetSerial(true)
	build(serial)
	serial.RecalculateAll()
	for _, backend := range spanBackends {
		e := New(backend.new())
		build(e)
		builds, swept := e.RecalcStats().ScheduleBuilds, e.swept
		for pending := 256; pending > 0; pending -= 7 {
			if n := e.RecalculateN(7); n != min(7, pending) || e.Pending() != max(pending-7, 0) {
				t.Fatalf("%s: chunk drained %d, %d pending; want %d, %d", backend.name, n, e.Pending(), min(7, pending), max(pending-7, 0))
			}
		}
		if got := e.RecalcStats().ScheduleBuilds - builds; got != 1 {
			t.Fatalf("%s: %d schedule builds, want 1", backend.name, got)
		}
		if got := e.swept; got.chain-swept.chain != 255 || got.loop-swept.loop != 255 || got.interp != swept.interp {
			t.Fatalf("%s: rows by path %+v after %+v, want D2:D256 carried on the recurrence", backend.name, got, swept)
		}
		enginesEqual(t, serial, e)
	}
}

// TestSpanBudgetCut is the engine-level budget-truncation test: a 2 000-row
// running balance beside an A*B*$rate column, the rate edited, drained 256
// cells at a time.
func TestSpanBudgetCut(t *testing.T) {
	const rows = 2000
	build := func(e *Engine) {
		e.SetValue(spanRate, formula.Num(1.05))
		for r := 1; r <= rows; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r%97)+0.5))
			e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r%13)+0.25))
		}
		for r := 1; r <= rows; r++ {
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*B%d*$AD$1", r, r))
		}
		mustFormula(t, e, "D1", "C1")
		for r := 2; r <= rows; r++ {
			mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("D%d+C%d", r-1, r))
		}
		e.RecalculateAll()
	}
	serial, e := New(nil), New(nil)
	serial.SetSerial(true)
	build(serial)
	build(e)

	serial.SetValue(spanRate, formula.Num(1.07))
	serial.RecalculateAll()
	e.SetValue(spanRate, formula.Num(1.07))
	builds := e.RecalcStats().ScheduleBuilds
	cells0, runCells0 := mCellsEvaluated.Value(), mPatternRunCells.Value()
	for pending := 2 * rows; pending > 0; pending -= 256 {
		if n := e.RecalculateN(256); n != min(256, pending) || e.Pending() != max(pending-256, 0) {
			t.Fatalf("chunk drained %d, %d pending; want %d, %d", n, e.Pending(), min(256, pending), max(pending-256, 0))
		}
		if pending == 2*rows-256*9 { // the tenth chunk ends inside D: 2 000 of C, then 560 of D
			for r, wantClean := range map[int]bool{1: true, 560: true, 561: false, rows: false} {
				if _, clean := e.Peek(ref.Ref{Col: 4, Row: r}); clean != wantClean {
					t.Fatalf("D%d clean=%v after the cut, want %v", r, clean, wantClean)
				}
			}
		}
	}
	if got := e.RecalcStats().ScheduleBuilds - builds; got != 1 {
		t.Fatalf("%d schedule builds over the chunked drain, want 1", got)
	}
	cells, runCells := mCellsEvaluated.Value()-cells0, mPatternRunCells.Value()-runCells0
	if float64(runCells) < 0.95*float64(cells) {
		t.Fatalf("%d of %d cells drained inside pattern runs, want >= 95%%", runCells, cells)
	}
	enginesEqual(t, serial, e)

	// An edit between two chunks invalidates; the rebuilt schedule holds only
	// what is still flagged.
	for _, eng := range []*Engine{serial, e} {
		eng.SetValue(spanRate, formula.Num(1.09))
	}
	e.RecalculateN(256)
	e.RecalculateN(256)
	for _, eng := range []*Engine{serial, e} {
		eng.SetValue(ref.MustCell("A1500"), formula.Num(3))
	}
	if st := e.RecalcStats(); st.Scheduled != 0 || st.Pending != 2*rows-512 {
		t.Fatalf("after the mid-drain edit: %+v, want no live schedule and %d pending", st, 2*rows-512)
	}
	e.RecalculateN(256)
	if st := e.RecalcStats(); st.Scheduled != 2*rows-512 {
		t.Fatalf("rebuilt schedule covers %d cells, want the %d still flagged", st.Scheduled, 2*rows-512)
	}
	e.RecalculateAll()
	serial.RecalculateAll()
	enginesEqual(t, serial, e)
}

// TestSweepAllocatesNothingPerSpan: with the schedule built and the pool
// warm, a resumed chunk that sweeps a span allocates nothing — the cursors
// and the read callback are the schedule's and the lanes the pool's, not the
// sweep's. A 1 000-row chain split into ten spans, drained 100 cells a call.
func TestSweepAllocatesNothingPerSpan(t *testing.T) {
	e := New(nil)
	e.SetValue(spanRate, formula.Num(2))
	for r := 1; r <= 1000; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		if (r-1)%100 == 0 {
			mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("A%d*$AD$1", r))
		} else {
			mustFormula(t, e, fmt.Sprintf("D%d", r), fmt.Sprintf("D%d+A%d*$AD$1", r-1, r))
		}
	}
	e.RecalculateAll()
	e.SetValue(spanRate, formula.Num(3))
	sweeps0 := mPatternRuns.Value()
	// The warm-up call builds the schedule; the nine measured calls resume it.
	allocs := testing.AllocsPerRun(9, func() { e.RecalculateN(100) })
	if e.Pending() != 0 {
		t.Fatalf("%d cells pending after ten chunks of 100", e.Pending())
	}
	if sweeps := mPatternRuns.Value() - sweeps0; sweeps < 10 {
		t.Fatalf("only %d sweeps ran; the chain was not drained as spans", sweeps)
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("a resumed chunk allocates %.1f times, want 0", allocs)
	}
}

// TestSweepAllocatesNothingPerLaneChunk is the same bound on the lane path: a
// product column, a sliding SUM over it and a 1 000-row block SUM (a window
// far wider than a chunk, folded off the slab's floats), 1 000 rows, drained
// 100 cells a call with the lane pool warm — and afterwards no schedule, live
// or pooled, holds on to a slab window.
func TestSweepAllocatesNothingPerLaneChunk(t *testing.T) {
	eachSpanChunk(func() { sweepAllocatesNothingPerLaneChunk(t) })
}

func sweepAllocatesNothingPerLaneChunk(t *testing.T) {
	build := func(e *Engine) *Engine {
		e.SetValue(spanRate, formula.Num(2))
		for r := 1; r <= 1000; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
			e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r%13)+0.25))
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*B%d*$AD$1", r, r))
			if r >= 7 {
				mustFormula(t, e, fmt.Sprintf("E%d", r), fmt.Sprintf("SUM(C%d:C%d)", r-6, r))
			}
			mustFormula(t, e, fmt.Sprintf("F%d", r), fmt.Sprintf("SUM(C%d:C%d)", r, r+999))
		}
		e.RecalculateAll()
		e.SetValue(spanRate, formula.Num(3))
		e.RecalculateAll() // every program's lanes are in the pool now
		e.SetValue(spanRate, formula.Num(4))
		return e
	}
	serial := New(nil)
	serial.SetSerial(true)
	build(serial).RecalculateAll()
	e := build(New(nil))
	unpinned := func(which string, sch *schedule) {
		t.Helper()
		if sch == nil {
			t.Fatalf("no %s schedule to inspect", which)
		}
		for _, w := range sch.run.windows[:cap(sch.run.windows)] {
			if w.col != nil || w.rows != nil {
				t.Fatalf("the %s schedule's sweep scratch still holds a window: %d rows", which, len(w.rows))
			}
		}
	}
	lane0 := e.swept
	// 2 994 cells: the warm-up call builds the schedule, the 28 measured ones
	// resume it, and one more finishes.
	allocs := testing.AllocsPerRun(28, func() { e.RecalculateN(100) })
	unpinned("live", e.sched)
	// A lane may be a subslice of a slab: a pooled lane buffer holds none.
	lb := lanePool.Get().(*laneBuf)
	for i, lane := range lb.lanes[:cap(lb.lanes)] {
		if lane != nil {
			t.Fatalf("a pooled lane buffer still holds lane %d: %d floats", i, len(lane))
		}
	}
	lanePool.Put(lb)
	if e.RecalculateN(100); e.Pending() != 0 {
		t.Fatalf("%d cells pending after thirty chunks of 100", e.Pending())
	}
	if got := e.swept.lane - lane0.lane; got != 2994 || e.swept.loop != lane0.loop || e.swept.interp != lane0.interp {
		t.Fatalf("rows by path %+v after %+v: want 2 994 more lane rows and nothing else", e.swept, lane0)
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("a resumed chunk on the lane path allocates %.1f times, want 0", allocs)
	}
	enginesEqual(t, serial, e)
	e.SetValue(spanRate, formula.Num(5))
	e.RecalculateN(100)
	e.SetValue(spanRate, formula.Num(6)) // the live schedule, dropped mid-drain
	sch := schedPool.Get().(*schedule)
	unpinned("pooled", sch)
	schedPool.Put(sch)
}

// TestRateEditAllocatesNothing: once the pools are warm, a rate edit of the
// 2 000-row ledger allocates nothing — the mark, the carve from the cached run
// tables, the link, and every sweep, D's row loop on its lanes included. The
// graph's dependents query answers with a fresh slice, so it is asked once, up
// front, and each edit marks that answer as SetValue would.
func TestRateEditAllocatesNothing(t *testing.T) {
	e, h1 := ledgerEngine(t, 2000), ref.MustCell("H1")
	dirty := e.Dependents(ref.CellRange(h1))
	rate := 1.0
	edit := func() {
		rate += 1.0 / 1024
		e.setCell(h1, record{value: formula.Num(rate)})
		for _, rng := range dirty {
			e.markRange(rng)
		}
		if e.RecalculateAll(); e.Pending() != 0 {
			t.Fatalf("%d cells pending after the drain", e.Pending())
		}
	}
	edit() // the first levelled drain builds the run tables
	builds, loop := e.schedBuilds, e.swept.loop
	allocs := testing.AllocsPerRun(5, edit)
	if got := e.schedBuilds - builds; got != 6 {
		t.Fatalf("%d schedule builds for six edits, want one each", got)
	}
	if e.swept.loop == loop {
		t.Fatal("D's rows did not take the row loop")
	}
	serial := ledgerEngine(t, 2000)
	serial.SetSerial(true)
	serial.SetValue(h1, formula.Num(rate))
	serial.RecalculateAll()
	enginesEqual(t, serial, e)
	if allocs != 0 && !raceEnabled {
		t.Fatalf("a rate edit allocates %.1f times, want 0", allocs)
	}
}

// TestSweepFoldsOverAnEmptyColumn: a numeric-plan span whose aggregates read
// a column holding no cells — a sliding window and a running one, so fold
// windows over no slab — sweeps on lanes on load, after a value lands in that
// column and after it is cleared again, and agrees with the reference (runs
// off, serial) bit for bit.
func TestSweepFoldsOverAnEmptyColumn(t *testing.T) {
	const rows = 4 * minPatternRun
	s := workload.NewSheet("")
	for r := 1; r <= rows; r++ {
		s.SetValue(ref.Ref{Col: 1, Row: r}, float64(r)+0.25)
		s.SetFormula(ref.Ref{Col: 2, Row: r}, fmt.Sprintf("SUM(Z%d:Z%d)+A%d", r, r+2, r))
		s.SetFormula(ref.Ref{Col: 3, Row: r}, fmt.Sprintf("MAX(Z$1:Z%d)+COUNT(Y%d:Y%d)+A%d", r, r, r+1, r))
	}
	load := func(runs bool) *Engine {
		e, err := LoadBulk(s)
		if err != nil {
			t.Fatal(err)
		}
		if !runs {
			e.SetPatternRuns(false)
			e.SetSerial(true)
		}
		return e
	}
	eachSpanChunk(func() {
		got, want := load(true), load(false)
		same := func(step string) {
			t.Helper()
			got.RecalculateAll()
			want.RecalculateAll()
			for r := 1; r <= rows; r++ {
				for c := 2; c <= 3; c++ {
					at := ref.Ref{Col: c, Row: r}
					if g, w := got.Value(at), want.Value(at); g.Kind != w.Kind || math.Float64bits(g.Num) != math.Float64bits(w.Num) {
						t.Fatalf("chunks of %d, %s: %v = %v, reference %v", sweepChunk, step, at, g, w)
					}
				}
			}
		}
		same("load")
		if got.swept.lane == 0 {
			t.Fatalf("chunks of %d: no row swept on lanes (%+v)", sweepChunk, got.swept)
		}
		z := ref.MustCell("Z9")
		for _, e := range []*Engine{got, want} {
			e.SetValue(z, formula.Num(2.5))
		}
		same("a value in Z")
		for _, e := range []*Engine{got, want} {
			e.ClearCell(z)
		}
		same("Z cleared")
	})
}

// TestSweepPathsOnTheLedger: which rows take which path is part of the
// contract, not an accident of the benchmark. On the ledger sheet a rate edit
// sweeps C (a product) and E (a sliding SUM of C) on lanes, E's windows slid
// over C's floats, and D (a running balance: it reads its own column) carried
// on the recurrence, and nothing needs the interpreter; where an operand
// column is salted, the rows the interpreter re-runs are exactly the ones
// holding text or an error.
func TestSweepPathsOnTheLedger(t *testing.T) {
	const rows = 2000
	e := ledgerEngine(t, rows)
	before := e.swept
	e.SetValue(ref.MustCell("H1"), formula.Num(1.07))
	e.RecalculateAll()
	heads := (rows + 255) / 256 // D restarts every 256 rows: a bare =C[r], a node of its own
	want := sweepCounts{lane: before.lane + rows + rows - 6, slide: before.slide + rows - 6,
		loop: before.loop + rows - uint64(heads), chain: before.chain + rows - uint64(heads), interp: before.interp}
	if e.swept != want {
		t.Fatalf("rows by path after the rate edit: %+v, want %+v (from %+v)", e.swept, want, before)
	}

	eachSpanChunk(func() {
		sc := spanCase{rows: 71, salt: true, cols: []spanColumn{{tmpl: tmplSameRow}}} // C[r] = B[r] + A[r]
		e := New(nil)
		sc.build(t, e)
		e.RecalculateAll()
		want := sweepCounts{}
		for r := 1; r <= sc.rows; r++ {
			if v, _ := saltValue(r); v.Kind == formula.KindError || v.Kind == formula.KindString && v.Str == "txt" {
				want.interp++
			} else {
				want.lane++
			}
		}
		if e.swept != want {
			t.Fatalf("chunks of %d: rows by path over the salted operand %+v, want %+v", sweepChunk, e.swept, want)
		}
	})
}
