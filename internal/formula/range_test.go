package formula

import (
	"math"
	"slices"
	"testing"

	"taco/internal/ref"
)

// colResolver is a map-backed RangeResolver test double: CellValue probes
// the map, RangeValues streams the populated cells in row-major order like
// a columnar store would.
type colResolver struct {
	cells  map[ref.Ref]Value
	scans  int // bulk scans served
	probes int // CellValue probes answered
}

var _ RangeResolver = (*colResolver)(nil)

// plain hides a resolver's bulk scan: plain{&colResolver{...}} is the
// per-cell path every bulk path is held to.
type plain struct{ Resolver }

// folder adds the slab folds to a colResolver, each answered cell by cell in
// row-major order as RangeFolder's contract states them.
type folder struct{ *colResolver }

var _ RangeFolder = folder{}

func (g folder) FoldRange(rng ref.Range) NumericFold { return gridFold(g.colResolver, rng) }

func (g folder) FoldSumIf(critRng ref.Range, crit Criterion, sumRng ref.Range) float64 {
	total := 0.0
	critRng.Cells(func(c ref.Ref) bool {
		if crit.Matches(g.cells[c]) {
			at := ref.Ref{Col: sumRng.Head.Col + c.Col - critRng.Head.Col, Row: sumRng.Head.Row + c.Row - critRng.Head.Row}
			if f, ok := g.cells[at].AsNumber(); ok {
				total += f
			}
		}
		return true
	})
	return total
}

func (g folder) FoldSumProduct(a, b ref.Range) float64 {
	total := 0.0
	a.Cells(func(c ref.Ref) bool {
		at := ref.Ref{Col: b.Head.Col + c.Col - a.Head.Col, Row: b.Head.Row + c.Row - a.Head.Row}
		total += SumProductFactor(g.cells[c]) * SumProductFactor(g.cells[at])
		return true
	})
	return total
}

func (g *colResolver) CellValue(at ref.Ref) Value {
	g.probes++
	return g.cells[at]
}

func (g *colResolver) RangeValues(rng ref.Range, fn func(ref.Ref, Value) bool) {
	g.scans++
	var populated []ref.Ref
	for at := range g.cells {
		if rng.Contains(at) {
			populated = append(populated, at)
		}
	}
	slices.SortFunc(populated, func(a, b ref.Ref) int {
		if a.Row != b.Row {
			return a.Row - b.Row
		}
		return a.Col - b.Col
	})
	for _, at := range populated {
		if !fn(at, g.cells[at]) {
			return
		}
	}
}

// sameValue is Value equality with NaN==NaN: both paths can legitimately
// compute NaN (e.g. 0*Inf), and that must count as agreement.
func sameValue(a, b Value) bool {
	if a.Kind == KindNumber && b.Kind == KindNumber &&
		math.IsNaN(a.Num) && math.IsNaN(b.Num) {
		return true
	}
	return a == b
}

func rangeTestGrid() map[ref.Ref]Value {
	cells := map[ref.Ref]Value{}
	for row := 1; row <= 30; row++ {
		cells[ref.Ref{Col: 1, Row: row}] = Num(float64(row))
	}
	cells[ref.Ref{Col: 2, Row: 4}] = Num(10)
	cells[ref.Ref{Col: 2, Row: 9}] = Str("txt")
	cells[ref.Ref{Col: 2, Row: 17}] = Num(-2)
	cells[ref.Ref{Col: 2, Row: 25}] = Str("5")
	cells[ref.Ref{Col: 2, Row: 28}] = Boolean(true)
	// Column C empty; column D sparse with an error.
	cells[ref.Ref{Col: 4, Row: 6}] = Error(ErrDiv0)
	cells[ref.Ref{Col: 4, Row: 12}] = Num(7)
	return cells
}

// TestRangeResolverMatchesPerCell evaluates every bulk-capable builtin
// against the same grid through the bulk path and the per-cell path.
func TestRangeResolverMatchesPerCell(t *testing.T) {
	srcs := []string{
		"=SUM(A1:A30)",
		"=SUM(B1:B30)",
		"=SUM(C1:C30)",
		"=SUM(A1:C30)",
		"=SUM(A30:A1)",
		"=SUM(A5:A5)",
		"=AVERAGE(B1:B30)",
		"=MIN(B1:B30)",
		"=MAX(A1:B30)",
		"=COUNT(A1:D30)",
		"=COUNTA(A1:D30)",
		"=COUNTBLANK(A1:D30)",
		"=PRODUCT(B1:B30)",
		"=MEDIAN(A1:A30)",
		"=SUM(D1:D30)", // error cell propagates identically
		"=SUMIF(A1:A30,\">20\")",
		"=SUMIF(B1:B30,\">0\",A1:A30)",
		"=SUMIF(B1:B30,\"txt\",A1:A30)",
		"=SUMIF(C1:C30,\"<1\",A1:A30)", // blank-matching: fallback path
		"=COUNTIF(A1:A30,\"<>7\")",
		"=COUNTIF(B1:B30,\">=0\")", // blank-matching: compensated scan
		"=SUMPRODUCT(A1:A30,B1:B30)",
		"=VLOOKUP(17,A1:B30,2)",
		"=VLOOKUP(99,A1:B30,1)",
		"=VLOOKUP(0,A1:B30,1)", // blank-matching needle: fallback path
	}
	grid := rangeTestGrid()
	for _, src := range srcs {
		ast := MustParse(src)
		bulkRes := &colResolver{cells: grid}
		perRes := &colResolver{cells: grid}
		bulk := Eval(ast, bulkRes)
		percell := Eval(ast, plain{perRes})
		if !sameValue(bulk, percell) {
			t.Errorf("%s: bulk=%v percell=%v", src, bulk, percell)
		}
		if perRes.scans != 0 {
			t.Errorf("%s: plain resolver served %d scans", src, perRes.scans)
		}
	}
}

// TestRangeResolverTakesBulkPath asserts the fast path actually engages:
// a 30-cell SUM must cost one scan and zero per-cell probes.
func TestRangeResolverTakesBulkPath(t *testing.T) {
	res := &colResolver{cells: rangeTestGrid()}
	v := Eval(MustParse("=SUM(A1:A30)"), res)
	if v.Num != 465 {
		t.Fatalf("SUM = %v, want 465", v)
	}
	if res.scans != 1 || res.probes != 0 {
		t.Fatalf("scans=%d probes=%d, want 1 scan and 0 probes", res.scans, res.probes)
	}
}

// TestRangeResolverFallbackProbes: a resolver without bulk support pays one
// probe per range cell — the legacy path, still correct.
func TestRangeResolverFallbackProbes(t *testing.T) {
	res := &colResolver{cells: rangeTestGrid()}
	if v := Eval(MustParse("=SUM(A1:A30)"), plain{res}); v.Num != 465 {
		t.Fatalf("SUM = %v, want 465", v)
	}
	if res.probes != 30 {
		t.Fatalf("probes=%d, want 30", res.probes)
	}
}

// TestPlainResolverStillWorks: a bare Resolver (no RangeValues at all) is
// untouched by the fast path.
func TestPlainResolverStillWorks(t *testing.T) {
	grid := rangeTestGrid()
	res := ResolverFunc(func(at ref.Ref) Value { return grid[at] })
	if v := Eval(MustParse("=SUM(A1:A30)"), res); v.Num != 465 {
		t.Fatalf("SUM via ResolverFunc = %v, want 465", v)
	}
}

// TestSumProductNonFiniteFallsBack: an Inf cell paired against a position
// unpopulated in the other range makes the skipped term NaN, not zero —
// the bulk path must detect the non-finite value and take the per-cell
// walk so both paths agree.
func TestSumProductNonFiniteFallsBack(t *testing.T) {
	grid := map[ref.Ref]Value{
		{Col: 1, Row: 1}: Num(1),
		{Col: 2, Row: 1}: Num(2),
		{Col: 2, Row: 2}: Num(math.Inf(1)), // A2 unpopulated: 0*Inf = NaN
	}
	ast := MustParse("=SUMPRODUCT(A1:A2,B1:B2)")
	bulk := Eval(ast, &colResolver{cells: grid})
	percell := Eval(ast, plain{&colResolver{cells: grid}})
	if !math.IsNaN(bulk.Num) || !math.IsNaN(percell.Num) {
		t.Fatalf("bulk=%v percell=%v, want NaN from both", bulk, percell)
	}
}

// TestSumifEarlyErrorOrder: with two different error cells in a range, both
// paths must surface the same (row-major first) error.
func TestSumifEarlyErrorOrder(t *testing.T) {
	grid := map[ref.Ref]Value{
		{Col: 1, Row: 3}: Error(ErrDiv0),
		{Col: 1, Row: 9}: Error(ErrValue),
		{Col: 2, Row: 5}: Num(1),
	}
	ast := MustParse("=SUM(A1:B10)")
	bulk := Eval(ast, &colResolver{cells: grid})
	percell := Eval(ast, plain{&colResolver{cells: grid}})
	if bulk != percell || bulk.Err != ErrDiv0 {
		t.Fatalf("bulk=%v percell=%v, want #DIV/0! from both", bulk, percell)
	}
}
