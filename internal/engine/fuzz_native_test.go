package engine

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// FuzzRecalcParallel: for any parseable formula dropped into a populated
// sheet, three drains must produce byte-identical values — the pinned-serial
// walk, the default engine drained in fuzz-chosen chunks (RecalculateN(1 +
// chunk) loops, which cut levels, spans and the walk's stack across calls),
// and the recursive resolver the walk replaced (walk_test.go). It is the
// engine-level extension of formula.FuzzEval's bulk≡percell property to the
// scheduler. (The name predates the single-goroutine drain; the corpus
// directory and the fuzz jobs refer to it.) Reference cycles included: the
// sheet carries a look-down chain D1:D40 whose last row reads G20, so a
// formula there that reads D1 closes a cycle under it.
func FuzzRecalcParallel(f *testing.F) {
	seeds := []string{
		"=SUM(A1:A40)+B3",
		"=IF(A2>5,SUM(B1:B20),MAX(A1:A10))",
		"=VLOOKUP(A3,A1:B40,2)",
		"=C1*2",
		"=AVERAGE(C1:C30)&COUNTIF(A1:A40,\">3\")",
		"=IFERROR(1/A5,99)",
		"=E5+1",      // self-reference once placed at E5
		"=((A1:X1))", // a bare range: a graph edge through F1 no evaluation reads
		"=D1+1",      // at G20, a cycle through the whole look-down chain
		"=SUM(D1:D40)-F1",
		"=COUNTIF(D1:D40,\">0\")", // at G20, a scan of the chain its foot reads back
	}
	for i, s := range seeds {
		f.Add(s, uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, src string, chunk uint8) {
		node, err := formula.Parse(src)
		if err != nil {
			return
		}
		// Bound the referenced area: evaluation cost is linear in it for
		// some builtins, and fuzzing wants many small executions.
		area := 0
		for _, r := range formula.Refs(node) {
			area += r.At.Size()
			if area > 1<<20 {
				return
			}
		}
		drain := func(e *Engine, arm string) {
			switch arm {
			case "serial":
				e.RecalculateAll() // pinned: the walk
			case "chunked":
				for e.Pending() > 0 {
					if e.RecalculateN(1+int(chunk)) == 0 {
						t.Fatalf("RecalculateN(%d) made no progress with %d pending", 1+int(chunk), e.Pending())
					}
				}
			default:
				drainRecursive(e)
			}
		}
		build := func(arm string) *Engine {
			e := New(nil)
			if arm == "serial" {
				e.SetSerial(true)
			}
			for row := 1; row <= 40; row++ {
				switch row % 4 {
				case 0: // gaps: sparse columns
				case 1:
					e.SetValue(ref.Ref{Col: 1, Row: row}, formula.Num(float64(row)/2))
				case 2:
					e.SetValue(ref.Ref{Col: 2, Row: row}, formula.Str("t"))
				default:
					e.SetValue(ref.Ref{Col: 1, Row: row}, formula.Num(-float64(row)))
					e.SetValue(ref.Ref{Col: 2, Row: row}, formula.Num(float64(row*row)))
				}
			}
			// A formula tier over the data, a look-down chain reading the
			// fuzzed formula at its foot, and padding wide enough to push
			// every drain over the wavefront threshold.
			for row := 1; row <= 40; row++ {
				mustFormula(t, e, fmt.Sprintf("C%d", row), fmt.Sprintf("SUM(A$1:B$%d)+%d", row, row))
				if row < 40 {
					mustFormula(t, e, fmt.Sprintf("D%d", row), fmt.Sprintf("D%d+A%d", row+1, row))
				}
			}
			mustFormula(t, e, "D40", "IFERROR($G$20,2)+1")
			for i := 1; i <= minLevelledDirty; i++ {
				mustFormula(t, e, fmt.Sprintf("H%d", i), fmt.Sprintf("$A$1+%d", i))
			}
			// The fuzzed formula, twice, so it can also feed itself.
			if _, err := e.SetFormula(ref.MustCell("E5"), src); err != nil {
				t.Fatalf("parsed but rejected by SetFormula: %v", err)
			}
			if _, err := e.SetFormula(ref.MustCell("G20"), src); err != nil {
				t.Fatalf("parsed but rejected by SetFormula: %v", err)
			}
			mustFormula(t, e, "F1", "E5+G20")
			drain(e, arm)
			// Re-dirty through the shared input and drain again: the second
			// drain exercises invalidate-driven dirty sets, not load-time ones.
			e.SetValue(ref.MustCell("A1"), formula.Num(17))
			drain(e, arm)
			return e
		}
		serial := build("serial")
		for _, arm := range []string{"chunked", "recursive"} {
			e := build(arm)
			if p := e.Pending(); p != 0 {
				t.Fatalf("%s drain left %d pending", arm, p)
			}
			serial.store.eachColumnMajor(func(at ref.Ref, c cell) error {
				if v := e.Value(at); v != c.value() {
					t.Errorf("%v: serial=%v %s=%v (formula %q, chunk %d)", at, c.value(), arm, v, src, 1+int(chunk))
				}
				return nil
			})
		}
	})
}

// FuzzRangeFolds: every range builtin the engine folds or streams equals the
// per-cell path bit for bit (NaN equal to NaN) — ValueResolver against a
// plain resolver over Value — on a random sparse sheet of numbers, ±Inf, -0,
// text (numeric text included), bools, errors and stored blanks, over random
// rectangles up to 20 columns wide. SUMIF takes sum ranges of every shape,
// SUMPRODUCT rectangles that overlap and run past the populated rows.
func FuzzRangeFolds(f *testing.F) {
	for seed := range uint64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 45))
		const cols, rows = 24, 30
		values := []formula.Value{
			formula.Num(math.Inf(1)), formula.Num(math.Inf(-1)), formula.Num(math.Copysign(0, -1)), formula.Num(0),
			formula.Str("txt"), formula.Str("12"), formula.Str(" 3 "), formula.Boolean(true), formula.Boolean(false),
			formula.Error(formula.ErrNA), formula.Error(formula.ErrDiv0), formula.Empty(),
		}
		e := New(nil)
		density := 1 + rng.IntN(4)
		for c := 1; c <= cols; c++ {
			for r := 1; r <= rows; r++ {
				if rng.IntN(4) >= density {
					continue
				}
				v := formula.Num(math.Round(rng.NormFloat64()*1e3) / 8)
				switch k := rng.IntN(12); {
				case k == 0:
					v = formula.Num(rng.NormFloat64() * 1e17) // makes the addition order matter
				case k < 3:
					v = values[rng.IntN(len(values))]
				}
				e.SetValue(ref.Ref{Col: c, Row: r}, v)
			}
		}
		// rect is a random w×h rectangle with its head drawn over the sheet
		// and a little past its last row.
		rect := func(w, h int) ref.Range {
			head := ref.Ref{Col: 1 + rng.IntN(cols-w+1), Row: 1 + rng.IntN(rows+5)}
			return ref.Range{Head: head, Tail: ref.Ref{Col: head.Col + w - 1, Row: head.Row + h - 1}}
		}
		size := func() (w, h int) { // single columns half the time: the common shape
			if w, h = 1, 1+rng.IntN(rows); rng.IntN(2) == 0 {
				w = 1 + rng.IntN(20)
			}
			return w, h
		}
		anyRect := func() ref.Range { return rect(size()) }
		crits := []string{`">2"`, `"<=0"`, `"txt"`, `3`, `"=12"`, `"<>txt"`, `TRUE`, `"12"`, `">=-1"`, `0`, `"<5"`}
		crit := func() string { return crits[rng.IntN(len(crits))] }
		var srcs []string
		for range 24 {
			w, h := size()
			a, b := rect(w, h), rect(w, h)
			srcs = append(srcs,
				fmt.Sprintf("=SUM(%v)", anyRect()), fmt.Sprintf("=AVERAGE(%v)", anyRect()),
				fmt.Sprintf("=MIN(%v)", anyRect()), fmt.Sprintf("=MAX(%v,%v)", anyRect(), anyRect()),
				fmt.Sprintf("=COUNT(%v,%v)", anyRect(), anyRect()), fmt.Sprintf("=COUNTA(%v)", anyRect()),
				fmt.Sprintf("=SUMIF(%v,%s)", anyRect(), crit()), fmt.Sprintf("=SUMIF(%v,%s,%v)", a, crit(), anyRect()),
				fmt.Sprintf("=SUMPRODUCT(%v,%v)", a, b), fmt.Sprintf("=COUNTIF(%v,%s)", anyRect(), crit()),
				fmt.Sprintf("=VLOOKUP(%d,%v,%d)", rng.IntN(4), anyRect(), 1+rng.IntN(3)),
			)
		}
		bulk, percell := e.ValueResolver(), formula.ResolverFunc(e.Value)
		for _, src := range srcs {
			ast := formula.MustParse(src)
			got, want := formula.Eval(ast, bulk), formula.Eval(ast, percell)
			same := got == want
			if got.Kind == formula.KindNumber && want.Kind == formula.KindNumber {
				same = math.Float64bits(got.Num) == math.Float64bits(want.Num) || math.IsNaN(got.Num) && math.IsNaN(want.Num)
			}
			if !same {
				t.Errorf("%s: bulk=%v per-cell=%v", src, got, want)
			}
		}
	})
}
