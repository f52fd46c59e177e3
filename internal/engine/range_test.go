package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// rangeFixture builds an engine exercising every awkward shape the bulk
// range resolver must handle: a dense column, sparse columns, text and
// error cells inside ranges, numeric text, booleans, and entirely empty
// columns between populated ones.
func rangeFixture(t testing.TB) *Engine {
	t.Helper()
	e := New(nil)
	set := func(a1 string, v formula.Value) {
		e.SetValue(ref.MustCell(a1), v)
	}
	setf := func(a1, src string) {
		if _, err := e.SetFormula(ref.MustCell(a1), src); err != nil {
			t.Fatalf("SetFormula(%s, %s): %v", a1, src, err)
		}
	}
	// Column B: dense numbers, rows 1..50.
	for row := 1; row <= 50; row++ {
		set(fmt.Sprintf("B%d", row), formula.Num(float64(row)*1.5))
	}
	// Column C: sparse — a handful of numbers, text, numeric text, a bool.
	set("C7", formula.Num(70))
	set("C15", formula.Str("hello"))
	set("C23", formula.Num(-4))
	set("C30", formula.Str("12"))
	set("C40", formula.Num(0.25))
	set("C44", formula.Boolean(true))
	// Column D: entirely empty (ranges below span it).
	// Column E: an error cell and more sparse numbers.
	setf("E5", "=1/0")
	set("E18", formula.Num(3))
	set("E33", formula.Num(9))
	// Column F: strings only.
	set("F2", formula.Str("x"))
	set("F48", formula.Str("y"))
	e.RecalculateAll()
	return e
}

// rangeBuiltinSrcs is the equivalence corpus: every range-consuming builtin
// with a bulk fast path, over sparse columns, dense columns, ranges
// crossing empty columns, reversed ranges, and single-cell ranges —
// plus the criteria shapes (blank-matching) that force the fallback.
var rangeBuiltinSrcs = []string{
	// Aggregates over dense, sparse, empty, and multi-column ranges.
	"=SUM(B1:B50)",
	"=SUM(C1:C50)",
	"=SUM(D1:D60)",
	"=SUM(B1:F60)",
	"=SUM(B50:B1)", // reversed: parser normalises corners
	"=SUM(B7:B7)",  // single-cell range
	"=SUM(C1:E60)", // spans the empty column D and the error in E5
	"=PRODUCT(C1:C50)",
	"=SUMSQ(B1:B10)",
	"=AVERAGE(B1:B50)",
	"=AVERAGE(C1:D60)",
	"=MIN(C1:C50)",
	"=MAX(C1:C50)",
	"=MIN(B3:C44)",
	"=COUNT(B1:F60)",
	"=COUNTA(B1:F60)",
	"=COUNTBLANK(B1:F60)",
	"=COUNTBLANK(D1:D60)",
	"=MEDIAN(B1:B50)",
	"=STDEV(B1:B49)",
	"=LARGE(B1:B50,3)",
	"=SMALL(C1:C50,2)",
	// Criteria: plain, comparison, text, and the blank-matching shapes
	// that must fall back (or compensate) yet stay equivalent.
	"=SUMIF(B1:B50,\">30\")",
	"=SUMIF(C1:C50,\">5\",B1:B50)",
	"=SUMIF(C1:C50,\"hello\",B1:B50)",
	"=SUMIF(C1:C50,0,B1:B50)",        // 0 matches blanks: per-cell fallback
	"=SUMIF(C1:C50,\"<100\",B1:B50)", // also matches blanks
	"=COUNTIF(B1:B50,\">=30\")",
	"=COUNTIF(C1:C60,\"hello\")",
	"=COUNTIF(C1:C60,\">=0\")", // matches blanks: scan + group compensation
	"=COUNTIF(D1:D60,0)",       // empty column, blank-matching criterion
	// Fold-path shapes: single-range SUM/AVERAGE (order-sensitive, folded),
	// order-free counts and extrema mixing ranges with scalars, error
	// propagation (and COUNT's deliberate error-blindness), and the
	// multi-arg SUM that must fall back to sequential accumulation.
	"=SUM(E1:E40)",          // error in E5 propagates through the fold
	"=AVERAGE(E1:E40)",      // ditto
	"=AVERAGE(D1:D60)",      // empty column: #DIV/0! on both paths
	"=SUM(B1:B50,C1:C50)",   // multi-arg: not folded, streaming path
	"=MIN(B1:B50,3,C7)",     // range + scalar mix
	"=MAX(C1:C50,\"4\")",    // numeric-text scalar coerces
	"=MIN(E1:E40)",          // error propagates
	"=MAX(D1:D60)",          // empty: 0 on both paths
	"=COUNT(B1:B50,C1:C50)", // multi-range counts fold per range
	"=COUNT(E1:E40)",        // errors are not numbers, not propagated
	"=COUNTA(E1:E40)",       // errors are non-blank
	"=COUNTA(B1:B50,5,C1:C50)",
	// SUMPRODUCT: sparse second range, triple product, empty column.
	"=SUMPRODUCT(B1:B20,C1:C20)",
	"=SUMPRODUCT(B1:B20,C1:C20,E1:E20)",
	"=SUMPRODUCT(C1:C50,D1:D50)",
	// VLOOKUP: numeric hit, miss, text needle, and the blank-matching
	// needle 0 that forces the per-cell fallback.
	"=VLOOKUP(34.5,B1:C50,2)",
	"=VLOOKUP(-1,B1:C50,1)",
	"=VLOOKUP(\"hello\",C1:E50,2)",
	"=VLOOKUP(0,B1:C50,1)",
}

func valuesEqual(a, b formula.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == formula.KindNumber && math.IsNaN(a.Num) && math.IsNaN(b.Num) {
		return true
	}
	return a.Num == b.Num && a.Str == b.Str && a.Bool == b.Bool && a.Err == b.Err
}

// TestBulkRangeResolverEquivalence asserts the bulk (columnar) path and the
// per-cell CellValue path compute identical results for every range
// builtin, on the same quiesced engine.
func TestBulkRangeResolverEquivalence(t *testing.T) {
	e := rangeFixture(t)
	for _, src := range rangeBuiltinSrcs {
		ast, err := formula.Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		bulk := formula.Eval(ast, e.ValueResolver())
		percell := formula.Eval(ast, formula.ResolverFunc(e.Value))
		if !valuesEqual(bulk, percell) {
			t.Errorf("%s: bulk=%v percell=%v", src, bulk, percell)
		}
	}
}

// TestBulkRangeResolverThroughRecalc asserts the engine's own recalculation
// (which resolves ranges through the columnar evalResolver, evaluating
// dirty precedents on the way) agrees with per-cell evaluation of the same
// formula on the quiesced engine.
func TestBulkRangeResolverThroughRecalc(t *testing.T) {
	for i, src := range rangeBuiltinSrcs {
		e := rangeFixture(t)
		at := ref.Ref{Col: 10, Row: i + 1}
		if _, err := e.SetFormula(at, src); err != nil {
			t.Fatalf("SetFormula %s: %v", src, err)
		}
		e.RecalculateAll()
		got := e.Value(at)
		want := formula.Eval(formula.MustParse(src), formula.ResolverFunc(e.Value))
		if !valuesEqual(got, want) {
			t.Errorf("%s: recalc=%v percell=%v", src, got, want)
		}
	}
}

// TestBulkResolverEvaluatesDirtyPrecedents: a range scan must evaluate
// dirty formula cells it passes over, exactly like CellValue does.
func TestBulkResolverEvaluatesDirtyPrecedents(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("A1"), formula.Num(2))
	if _, err := e.SetFormula(ref.MustCell("B1"), "=A1*10"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("B2"), "=B1+1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("C1"), "=SUM(B1:B10)"); err != nil {
		t.Fatal(err)
	}
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("C1")); v.Num != 41 {
		t.Fatalf("C1 = %v, want 41", v)
	}
	// Dirty the chain; recalculating only the SUM must pull the dirty
	// precedents through the bulk scan.
	e.SetValue(ref.MustCell("A1"), formula.Num(3))
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("C1")); v.Num != 61 {
		t.Fatalf("after edit, C1 = %v, want 61", v)
	}
}

// TestBulkResolverCycleInsideRange: a reference cycle inside a scanned
// range must surface as #CYCLE!, not hang or panic — matching the
// per-cell resolver's behaviour.
func TestBulkResolverCycleInsideRange(t *testing.T) {
	e := New(nil)
	if _, err := e.SetFormula(ref.MustCell("A1"), "=SUM(A1:A5)"); err != nil {
		t.Fatal(err)
	}
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("A1")); !v.IsError() {
		t.Fatalf("self-referential SUM = %v, want error", v)
	}
}

// TestScanRangeMatchesPeek: the public side-effect-free columnar scan
// agrees with per-cell Peek over arbitrary rectangles, skipping exactly the
// unpopulated cells.
func TestScanRangeMatchesPeek(t *testing.T) {
	e := rangeFixture(t)
	ranges := []string{"A1:G60", "B1:B50", "D1:D60", "C10:E40", "B7", "F1:F60"}
	for _, rs := range ranges {
		rng := ref.MustRange(rs)
		got := map[ref.Ref]formula.Value{}
		e.ScanRange(rng, func(at ref.Ref, v formula.Value, src string, clean bool) bool {
			if !rng.Contains(at) {
				t.Fatalf("%s: scan yielded %v outside range", rs, at)
			}
			if !clean {
				t.Fatalf("%s: quiesced engine yielded dirty cell %v", rs, at)
			}
			if src != e.Formula(at) {
				t.Fatalf("%s: src mismatch at %v", rs, at)
			}
			got[at] = v
			return true
		})
		rng.Cells(func(at ref.Ref) bool {
			v, _ := e.Peek(at)
			sv, populated := got[at]
			if populated && !valuesEqual(sv, v) {
				t.Fatalf("%s: %v scan=%v peek=%v", rs, at, sv, v)
			}
			if !populated && e.Formula(at) == "" && v.Kind != formula.KindEmpty {
				t.Fatalf("%s: %v populated but not scanned", rs, at)
			}
			return true
		})
	}
}

// TestColumnStoreInvariants runs random interleaved sets, formula writes,
// overwrites, and clears, asserting the columnar store's counter, slabs and
// scans agree with the set of live refs. FuzzColStore (colstore_test.go)
// holds every read to a map model after every step.
func TestColumnStoreInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := New(nil)
	live := map[ref.Ref]bool{}
	for i := 0; i < 3000; i++ {
		at := ref.Ref{Col: 1 + rng.Intn(12), Row: 1 + rng.Intn(40)}
		switch rng.Intn(4) {
		case 0:
			e.SetValue(at, formula.Num(float64(i)))
			live[at] = true
		case 1:
			e.SetValue(at, formula.Str(fmt.Sprintf("s%d", i)))
			live[at] = true
		case 2:
			if _, err := e.SetFormula(at, fmt.Sprintf("=%d+1", i)); err != nil {
				t.Fatal(err)
			}
			live[at] = true
		default:
			e.ClearCell(at)
			delete(live, at)
		}
	}
	if got, want := slabbedCells(t, e, "after the program"), e.NumCells(); got != want {
		t.Fatalf("slabs hold %d cells, the store counts %d", got, want)
	}
	if got, want := e.NumCells(), len(live); got != want {
		t.Fatalf("engine holds %d cells, want %d", got, want)
	}
	st := e.CellStats()
	if st.Cells != len(live) || st.Columns == 0 || st.LongestSlab == 0 {
		t.Fatalf("CellStats = %+v, want %d cells", st, len(live))
	}
	// Every live cell is scannable; nothing extra is.
	seen := map[ref.Ref]bool{}
	e.store.scanRange(ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: 20, Row: 60}},
		func(at ref.Ref, c cell) bool {
			if seen[at] {
				t.Fatalf("duplicate scan of %v", at)
			}
			seen[at] = true
			if !live[at] {
				t.Fatalf("scan yielded cleared cell %v", at)
			}
			return true
		})
	if len(seen) != len(live) {
		t.Fatalf("scan yielded %d cells, want %d", len(seen), len(live))
	}
	// Row-major order check over a multi-column window.
	var prev ref.Ref
	first := true
	e.store.scanRange(ref.MustRange("A1:L40"), func(at ref.Ref, _ cell) bool {
		if !first && !prev.Before(at) {
			t.Fatalf("scan out of row-major order: %v then %v", prev, at)
		}
		prev, first = at, false
		return true
	})
}

// TestScanRangeEarlyStop: returning false from the callback stops the scan
// on both the single-column and the merged multi-column paths.
func TestScanRangeEarlyStop(t *testing.T) {
	e := rangeFixture(t)
	for _, rs := range []string{"B1:B50", "B1:F60"} {
		n := 0
		e.ScanRange(ref.MustRange(rs), func(ref.Ref, formula.Value, string, bool) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Fatalf("%s: scan visited %d cells after early stop, want 3", rs, n)
		}
	}
}
