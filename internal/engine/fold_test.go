package engine

import (
	"fmt"
	"math"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// TestFoldRangeMatchesScan cross-checks the batched column fold against the
// streaming scan it replaces, accumulator by accumulator, on the shared
// range fixture — including windows that start and end mid-slab, the
// unrolled block's tail, and columns mixing numbers, text, bools, blanks,
// and errors.
func TestFoldRangeMatchesScan(t *testing.T) {
	e := rangeFixture(t)
	// An explicit stored blank and a NaN-valued cell: both fold corner cases
	// (blanks count nowhere; NaN must obey the strict-comparison extrema).
	e.SetValue(ref.MustCell("B25"), formula.Empty())
	e.SetValue(ref.MustCell("C9"), formula.Num(math.NaN()))
	e.RecalculateAll()
	for _, rs := range []string{
		"B1:B50", "B2:B49", "B7:B7", "B45:B60", "C1:C50", "C1:C60",
		"D1:D60", "E1:E40", "E6:E40", "F1:F60", "B51:B90",
		// Multi-column rectangles, one wider than 16 columns: the fold's
		// merge must visit the scan's row-major order exactly (first error,
		// float order).
		"B1:C50", "B1:F60", "C5:E45", "A1:H90", "A1:T50",
	} {
		rng := ref.MustRange(rs)
		fold := e.store.foldRange(rng, nil)
		// Reference accumulation via the streaming scan, in the same order
		// with the same comparison semantics.
		want := formula.NumericFold{Min: math.Inf(1), Max: math.Inf(-1)}
		e.store.scanRange(rng, func(_ ref.Ref, c cell) bool {
			v := c.value()
			switch v.Kind {
			case formula.KindNumber:
				want.Sum += v.Num
				want.Count++
				want.NonEmpty++
				if v.Num < want.Min {
					want.Min = v.Num
				}
				if v.Num > want.Max {
					want.Max = v.Num
				}
			case formula.KindEmpty:
			case formula.KindError:
				want.NonEmpty++
				if !want.Err.IsError() {
					want.Err = v
				}
			default:
				want.NonEmpty++
			}
			return true
		})
		if fold.Count != want.Count || fold.NonEmpty != want.NonEmpty ||
			fold.Err != want.Err || fold.Sum != want.Sum && !(math.IsNaN(fold.Sum) && math.IsNaN(want.Sum)) {
			t.Errorf("%s: fold %+v, scan %+v", rs, fold, want)
		}
		if fold.Count > 0 && (fold.Min != want.Min || fold.Max != want.Max) {
			t.Errorf("%s: fold extrema (%v,%v), scan (%v,%v)", rs, fold.Min, fold.Max, want.Min, want.Max)
		}
	}
}

// TestFoldEvaluatesDirtyCells: the recalculation-path fold must have the walk
// evaluate the dirty cells it passes over — the first exact, the rest
// speculative — so the total is retried once.
func TestFoldEvaluatesDirtyCells(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("A1"), formula.Num(2))
	for i := 1; i <= 20; i++ {
		mustFormula(t, e, fmt.Sprintf("B%d", i), fmt.Sprintf("A1*%d", i))
	}
	mustFormula(t, e, "C1", "SUM(B1:B20)")
	e.RecalculateAll()
	e.SetValue(ref.MustCell("A1"), formula.Num(3)) // dirties the B column + C1
	// Walking from C1 alone must pull every dirty B through the fold.
	if n := walkFrom(e, ref.MustCell("C1")); n != 22 {
		t.Fatalf("%d evaluations, want C1, the twenty B cells and one retry of C1", n)
	}
	if v := e.Value(ref.MustCell("C1")); v.Num != 3*210 {
		t.Fatalf("C1 = %v, want %v", v, 3*210)
	}
	for i := 1; i <= 20; i++ {
		if e.Dirty(ref.Ref{Col: 2, Row: i}) {
			t.Fatalf("B%d left dirty by the fold", i)
		}
	}
}

// perCellResolver exposes only CellValue — no bulk scan, no folds — so
// evaluating against it is the exact per-cell oracle for the fold paths.
type perCellResolver struct{ e *Engine }

func (r perCellResolver) CellValue(at ref.Ref) formula.Value { return r.e.Value(at) }

// TestCondFoldsMatchPerCell pins the SUMIF/SUMPRODUCT slab folds (and the
// multi-column rectangle fold behind SUM-family calls) to the per-cell
// oracle on a grid mixing numbers, text, numeric text, bools, blanks,
// errors, unpopulated rows, and a non-finite number, whose 0·Inf terms
// SUMPRODUCT's fold must produce as NaN.
func TestCondFoldsMatchPerCell(t *testing.T) {
	e := New(nil)
	for r := 1; r <= 60; r++ {
		switch r % 7 {
		case 0: // unpopulated row in A
		case 1:
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r-30)*1.5))
		case 2:
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Str("txt"))
		case 3:
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Str("12"))
		case 4:
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Boolean(r%2 == 0))
		case 5:
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Error(formula.ErrNA))
		default:
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		}
		if r%3 != 0 { // B sparse, offset rows
			e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(60-r)+0.25))
		}
		if r%4 != 0 {
			e.SetValue(ref.Ref{Col: 3, Row: r}, formula.Num(-float64(r)*0.5))
		}
	}
	e.SetValue(ref.Ref{Col: 3, Row: 61}, formula.Num(math.Inf(1)))
	e.RecalculateAll()
	srcs := []string{
		"=SUMIF(A1:A60,\">0\")",
		"=SUMIF(A1:A60,\">0\",B1:B60)",
		"=SUMIF(A1:A60,\"<=0\",B2:B61)", // shifted sum range: constant row offset
		"=SUMIF(A1:A60,\"txt\",B1:B60)",
		"=SUMIF(A1:A60,\"<>txt\",B1:B60)", // matches blanks: per-cell path
		"=SUMIF(A1:A60,12,B1:B60)",
		"=SUMIF(B1:B60,\">30\",A1:A60)", // sum cells include text/bool/error rows
		"=SUMIF(A1:B60,\">0\",B1:B60)",  // multi-column criterion range
		"=SUMPRODUCT(A1:A60,B1:B60)",
		"=SUMPRODUCT(B1:B60,C1:C60)",
		"=SUMPRODUCT(B1:B60,C2:C61)", // partner range touching the Inf cell
		"=SUMPRODUCT(C1:C61,B1:B61)", // Inf in the first range, against the unpopulated B61
		"=SUM(A1:C60)", "=AVERAGE(A1:C60)", "=COUNT(A1:C61)", "=MAX(B1:C61)",
	}
	for _, src := range srcs {
		ast := formula.MustParse(src)
		got := formula.Eval(ast, e.ValueResolver())
		want := formula.Eval(ast, perCellResolver{e})
		same := got == want ||
			(got.Kind == formula.KindNumber && want.Kind == formula.KindNumber &&
				math.IsNaN(got.Num) && math.IsNaN(want.Num))
		if !same {
			t.Errorf("%s: folded=%v per-cell=%v", src, got, want)
		}
	}
}

// TestCondFoldEvaluatesDirty: the recalculation-path SUMIF/SUMPRODUCT folds
// must have the walk evaluate dirty cells they pass over, like FoldRange does.
func TestCondFoldEvaluatesDirty(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("A1"), formula.Num(2))
	for i := 1; i <= 20; i++ {
		mustFormula(t, e, fmt.Sprintf("B%d", i), fmt.Sprintf("A1*%d", i))
		e.SetValue(ref.Ref{Col: 3, Row: i}, formula.Num(1))
	}
	mustFormula(t, e, "D1", "SUMIF(B1:B20,\">0\",C1:C20)+SUMPRODUCT(B1:B20,C1:C20)")
	e.RecalculateAll()
	e.SetValue(ref.MustCell("A1"), formula.Num(3))
	if n := walkFrom(e, ref.MustCell("D1")); n != 22 {
		t.Fatalf("%d evaluations, want D1, the twenty B cells and one retry of D1", n)
	}
	if v := e.Value(ref.MustCell("D1")); v.Num != 20+3*210 {
		t.Fatalf("D1 = %v, want %v", v, 20+3*210)
	}
	for i := 1; i <= 20; i++ {
		if e.Dirty(ref.Ref{Col: 2, Row: i}) {
			t.Fatalf("B%d left dirty by the conditional folds", i)
		}
	}
}

// TestFoldUnrolledBlockBoundaries hammers the edges of the runs of clean
// numbers foldRange adds in place: slab lengths 0..9 of clean numbers with a
// disruptor planted at every position — a string, or a dirty number folded
// through dirtyVal or, with none, as it lies — fold vs streaming per-cell SUM.
func TestFoldUnrolledBlockBoundaries(t *testing.T) {
	fresh := func(ref.Ref, cell) formula.Value { return formula.Num(1000.5) }
	for n := 0; n <= 9; n++ {
		for bad := -1; bad < n; bad++ {
			for mode, dirtyVal := range []func(ref.Ref, cell) formula.Value{nil, fresh, nil} {
				e := New(nil)
				for i := 0; i < n; i++ {
					at := ref.Ref{Col: 1, Row: i + 1}
					if i == bad && mode == 0 {
						e.SetValue(at, formula.Str("x"))
						continue
					}
					e.SetValue(at, formula.Num(float64(i)*1.25+0.1))
					if i == bad {
						handle(e, at).meta().dirty = true
					}
				}
				rng := ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: 1, Row: 10}}
				fold := e.store.foldRange(rng, dirtyVal)
				sum, cnt := 0.0, 0
				e.store.scanRange(rng, func(at ref.Ref, c cell) bool {
					if v := cellVal(at, c, dirtyVal); v.Kind == formula.KindNumber {
						sum += v.Num
						cnt++
					}
					return true
				})
				if fold.Sum != sum || fold.Count != cnt {
					t.Fatalf("n=%d bad=%d mode=%d: fold (%v,%d), scan (%v,%d)", n, bad, mode, fold.Sum, fold.Count, sum, cnt)
				}
			}
		}
	}
}

// TestSumIfSumRangeSpansCriterion: SUMIF's sum cells span the criterion
// range's shape from the sum range's head, whatever the sum range's own
// size — the per-cell rule — on the side-effect-free read path and on the
// walk's recalculation alike.
func TestSumIfSumRangeSpansCriterion(t *testing.T) {
	e := New(nil)
	e.SetSerial(true)
	for r := 1; r <= 10; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(100*r)))
	}
	srcs := []string{`SUMIF(A1:A10,">0",B1:B5)`, `SUMIF(A1:A10,">0",B1:B1)`}
	for i, src := range srcs {
		mustFormula(t, e, fmt.Sprintf("D%d", i+1), src)
	}
	e.RecalculateAll()
	for i, src := range srcs {
		ast := formula.MustParse("=" + src)
		want := formula.Eval(ast, formula.ResolverFunc(e.Value))
		if want != formula.Num(5500) {
			t.Fatalf("%s per-cell = %v, want 5500", src, want)
		}
		if got := formula.Eval(ast, e.ValueResolver()); got != want {
			t.Errorf("%s through ValueResolver = %v, per-cell %v", src, got, want)
		}
		if got := e.Value(ref.Ref{Col: 4, Row: i + 1}); got != want {
			t.Errorf("%s recalculated on the walk = %v, per-cell %v", src, got, want)
		}
	}
}

// TestRangeReadsAllocateNothing: the merge keeps its scratch on its
// caller's stack, so the warm range reads the serving workloads make — a
// gradebook row's SUM(B1:D1), SUMIF and SUMPRODUCT over 2×N rectangles, a
// 20-row by 5-column GET block — allocate nothing.
func TestRangeReadsAllocateNothing(t *testing.T) {
	e := New(nil)
	for r := 1; r <= 40; r++ {
		for c := 1; c <= 5; c++ {
			e.SetValue(ref.Ref{Col: c, Row: r}, formula.Num(float64(r*c)))
		}
	}
	res := valueResolver{e}
	row, left, right, block := ref.MustRange("B1:D1"), ref.MustRange("A1:B40"), ref.MustRange("C1:D40"), ref.MustRange("A1:E20")
	crit := formula.ParseCriterion(formula.Str(">30"))
	visit := func(ref.Ref, formula.Value) bool { return true }
	for _, c := range []struct {
		name string
		read func()
	}{
		{"FoldRange(B1:D1)", func() { res.FoldRange(row) }},
		{"FoldSumIf(A1:B40, C1:D40)", func() { res.FoldSumIf(left, crit, right) }},
		{"FoldSumProduct(A1:B40, C1:D40)", func() { res.FoldSumProduct(left, right) }},
		{"RangeValues(A1:E20)", func() { res.RangeValues(block, visit) }},
	} {
		if n := testing.AllocsPerRun(100, c.read); n != 0 {
			t.Errorf("%s: %v allocations a call, want 0", c.name, n)
		}
	}
}
