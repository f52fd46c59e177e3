package formula

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"taco/internal/ref"
)

// corpusCase is a formula and the value it evaluates to over bytecodeGrid.
type corpusCase struct {
	src  string
	want Value
}

// bytecodeCorpus exercises every builtin the evaluator implements — plus
// all operators, error values, blanks, range shapes, and the exempt
// builtins' short-circuit forms — so TestBytecodeEquivalence pins the VM to
// the AST walker across the whole surface, not just the hot shapes. Each
// formula carries the value it has always had (TestBytecodeCorpusPinned):
// the VM and the walker share the builtin table, so only a pinned value shows
// a builtin whose body changed under both. TestCorpusCallsEveryBuiltin holds
// it to calling every name in the table.
var bytecodeCorpus = []corpusCase{
	// Literals and operators.
	{"=1+2*3-4/8", Num(6.5)},
	{"=2^10", Num(1024)},
	{"=-A1", Num(-1)},
	{"=+A2", Num(2)},
	{"=50%", Num(0.5)},
	{"=A1%", Num(0.01)},
	{"=1/0", Error(ErrDiv0)},
	{"=0/0", Error(ErrDiv0)},
	{"=\"a\"&\"b\"&A1", Str("ab1")},
	{"=\"x\"+1", Error(ErrValue)},
	{"=1=1", Boolean(true)},
	{"=1<>2", Boolean(true)},
	{"=2<3", Boolean(true)},
	{"=2>3", Boolean(false)},
	{"=2<=2", Boolean(true)},
	{"=3>=4", Boolean(false)},
	{"=\"a\"<\"b\"", Boolean(true)},
	{"=\"A\"=\"a\"", Boolean(true)},
	{"=TRUE", Boolean(true)},
	{"=FALSE", Boolean(false)},
	{"=TRUE=FALSE", Boolean(false)},
	{"=(1+2)*(3+4)^2", Num(147)},
	// Blank and error cell reads, propagation through operators.
	{"=C5", Empty()},
	{"=C5+1", Num(1)},
	{"=D6", Error(ErrDiv0)},
	{"=D6+1", Error(ErrDiv0)},
	{"=-D6", Error(ErrDiv0)},
	{"=D6&\"x\"", Error(ErrDiv0)},
	// Plain aggregates over ranges (incl. empty, mixed, error, reversed).
	{"=SUM(A1:A30)", Num(465)},
	{"=SUM(B1:B30)", Num(8)},
	{"=SUM(C1:C30)", Num(0)},
	{"=SUM(A1:C30)", Num(473)},
	{"=SUM(A30:A1)", Num(465)},
	{"=SUM(D1:D30)", Error(ErrDiv0)},
	{"=SUM(1,2,A1)", Num(4)},
	{"=SUM(1,1/0,A1)", Error(ErrDiv0)},
	{"=AVERAGE(B1:B30)", Num(4)},
	{"=AVG(A1:A10)", Num(5.5)},
	{"=AVERAGE(C1:C30)", Error(ErrDiv0)},
	{"=MIN(B1:B30)", Num(-2)},
	{"=MAX(A1:B30)", Num(30)},
	{"=MIN(C1:C2)", Num(0)},
	{"=MAX(5,2,9)", Num(9)},
	{"=COUNT(A1:D30)", Num(33)},
	{"=COUNTA(A1:D30)", Num(37)},
	{"=COUNTBLANK(A1:D30)", Num(83)},
	{"=PRODUCT(B1:B30)", Num(-20)},
	{"=PRODUCT(C1:C30)", Num(1)},
	{"=SUMSQ(A1:A10)", Num(385)},
	{"=MEDIAN(A1:A30)", Num(15.5)},
	{"=MEDIAN(A1:A4)", Num(2.5)},
	{"=STDEV(A1:A10)", Num(3.0276503540974917)},
	{"=VAR(A1:A10)", Num(9.166666666666666)},
	{"=LARGE(A1:A30,3)", Num(28)},
	{"=SMALL(A1:A30,3)", Num(3)},
	{"=RANK(17,A1:A30)", Num(14)},
	{"=RANK(17,A1:A30,1)", Num(17)},
	// Conditional aggregates: fold, compensated-scan, and fallback shapes.
	{"=SUMIF(A1:A30,\">20\")", Num(255)},
	{"=SUMIF(B1:B30,\">0\",A1:A30)", Num(57)},
	{"=SUMIF(B1:B30,\"txt\",A1:A30)", Num(9)},
	{"=SUMIF(C1:C30,\"<1\",A1:A30)", Num(465)},
	{"=SUMIF(A1:A30,\"<>7\")", Num(458)},
	{"=COUNTIF(A1:A30,\"<>7\")", Num(29)},
	{"=COUNTIF(B1:B30,\">=0\")", Num(28)},
	{"=COUNTIF(A1:A30,15)", Num(1)},
	{"=SUMPRODUCT(A1:A30,B1:B30)", Num(34)},
	{"=SUMPRODUCT(A1:A30)", Num(465)},
	{"=SUMPRODUCT(A1:A30,D1:D30)", Num(84)},
	// Lookups and selection.
	{"=VLOOKUP(17,A1:B30,2)", Num(-2)},
	{"=VLOOKUP(99,A1:B30,1)", Error(ErrNA)},
	{"=VLOOKUP(0,A1:B30,1)", Error(ErrNA)},
	{"=HLOOKUP(1,A1:D2,2)", Num(2)},
	{"=INDEX(A1:B30,4,2)", Num(10)},
	{"=MATCH(17,A1:A30)", Num(17)},
	{"=CHOOSE(2,\"a\",\"b\",\"c\")", Str("b")},
	{"=CHOOSE(9,\"a\")", Error(ErrValue)},
	// Logic, type predicates, exempt builtins.
	{"=AND(TRUE,1,A1)", Boolean(true)},
	{"=OR(FALSE,0,C1)", Boolean(false)},
	{"=NOT(A1)", Boolean(false)},
	{"=XOR(1,0,1)", Boolean(false)},
	{"=IF(A1>5,\"big\",\"small\")", Str("small")},
	{"=IF(A1>0,A2)", Num(2)},
	{"=IF(C1,1,2)", Num(2)},
	{"=IF(1/0,1,2)", Error(ErrDiv0)},
	{"=IF(\"true\",1,2)", Num(1)},
	{"=IF(A1,D6,5)", Error(ErrDiv0)},
	{"=IF(0,D6,5)", Num(5)},
	{"=IFERROR(1/0,\"rescued\")", Str("rescued")},
	{"=IFERROR(A1,\"no\")", Num(1)},
	{"=IFERROR(D6,C5)", Empty()},
	{"=ISERROR(1/0)", Boolean(true)},
	{"=ISERROR(A1)", Boolean(false)},
	{"=ISBLANK(C1)", Boolean(true)},
	{"=ISBLANK(A1)", Boolean(false)},
	{"=ISNUMBER(A1)", Boolean(true)},
	{"=ISNUMBER(B9)", Boolean(false)},
	{"=ISTEXT(B9)", Boolean(true)},
	{"=ISLOGICAL(B28)", Boolean(true)},
	{"=ISEVEN(A4)", Boolean(true)},
	{"=ISODD(A4)", Boolean(false)},
	{"=NA()", Error(ErrNA)},
	// Math builtins.
	{"=ABS(-3)", Num(3)},
	{"=SQRT(A4)", Num(2)},
	{"=SQRT(0-A4)", Error(ErrNum)},
	{"=INT(-2.5)", Num(-3)},
	{"=EXP(1)", Num(2.718281828459045)},
	{"=LN(A10)", Num(2.302585092994046)},
	{"=LOG(8,2)", Num(3)},
	{"=LOG(100)", Num(2)},
	{"=LOG10(A10)", Num(1)},
	{"=PI()", Num(3.141592653589793)},
	{"=SIGN(B17)", Num(-1)},
	{"=FLOOR(7.3,2)", Num(6)},
	{"=CEILING(7.3,2)", Num(8)},
	{"=TRUNC(-2.7)", Num(-2)},
	{"=ROUND(2.675,2)", Num(2.68)},
	{"=ROUND(A10,0-1)", Num(10)},
	{"=MOD(10,3)", Num(1)},
	{"=MOD(10,0)", Error(ErrDiv0)},
	{"=POWER(2,0.5)", Num(1.4142135623730951)},
	// Text builtins.
	{"=CONCATENATE(\"a\",1,TRUE)", Str("a1TRUE")},
	{"=CONCAT(B9,B25)", Str("txt5")},
	{"=LEN(B9)", Num(3)},
	{"=UPPER(B9)", Str("TXT")},
	{"=LOWER(\"ABC\")", Str("abc")},
	{"=TRIM(\"  x  \")", Str("x")},
	{"=LEFT(\"hello\",2)", Str("he")},
	{"=RIGHT(\"hello\",2)", Str("lo")},
	{"=MID(\"hello\",2,3)", Str("ell")},
	{"=FIND(\"l\",\"hello\")", Num(3)},
	{"=FIND(\"z\",\"hello\")", Error(ErrValue)},
	{"=SUBSTITUTE(\"aaa\",\"a\",\"b\")", Str("bbb")},
	{"=REPT(\"ab\",3)", Str("ababab")},
	{"=EXACT(\"a\",\"A\")", Boolean(false)},
	{"=PROPER(\"hello world\")", Str("Hello World")},
	{"=VALUE(B25)", Num(5)},
	{"=VALUE(B9)", Error(ErrValue)},
	// Financial builtins (E holds cash flows with a sign change for IRR).
	{"=NPV(0.1,E1:E3)", Num(-4.507888805409479)},
	{"=PMT(0.05,10,1000)", Num(-129.5045749654567)},
	{"=FV(0.05,10,100)", Num(-1257.789253554883)},
	{"=PV(0.05,10,100)", Num(-772.1734929184813)},
	{"=IRR(E1:E3)", Num(0.06394102980498528)},
	// Unknown function: both paths produce the same #NAME?.
	{"=NOSUCH(1,2)", Error(ErrName)},
	// Nesting across every dispatch kind.
	{"=IF(ISERROR(VLOOKUP(17,A1:B30,2)),0,SUM(A1:A5)*MAX(B1:B30))%", Num(1.5)},
}

func bytecodeGrid() map[ref.Ref]Value {
	cells := rangeTestGrid()
	cells[ref.Ref{Col: 5, Row: 1}] = Num(-100)
	cells[ref.Ref{Col: 5, Row: 2}] = Num(50)
	cells[ref.Ref{Col: 5, Row: 3}] = Num(60)
	return cells
}

// TestBytecodeEquivalence: for every corpus formula, the compiled program
// evaluated on the VM must agree bit-for-bit with the AST walker — under
// both the bulk-capable resolver and the per-cell one, and at a second
// anchor with the AST shifted alongside (what a pattern-run neighbour is).
func TestBytecodeEquivalence(t *testing.T) {
	grid := bytecodeGrid()
	anchor := ref.Ref{Col: 8, Row: 4}
	for _, c := range bytecodeCorpus {
		src := c.src
		ast := MustParse(src)
		p := Compile(ast, anchor)
		if p == nil {
			t.Errorf("%q: did not compile", src)
			continue
		}
		for _, res := range []Resolver{&colResolver{cells: grid}, plain{&colResolver{cells: grid}}} {
			want := Eval(ast, res)
			got := p.EvalAt(res, anchor)
			if !sameValue(got, want) {
				t.Errorf("%q (%T): VM=%v AST=%v", src, res, got, want)
			}
		}
		// Shifted copy at a shifted anchor: same program bytes, same values
		// as walking the shifted AST.
		shifted := Shift(ast, 2, 7)
		at2 := ref.Ref{Col: anchor.Col + 2, Row: anchor.Row + 7}
		p2 := Compile(shifted, at2)
		if p2 == nil {
			t.Errorf("%q: shifted copy did not compile", src)
			continue
		}
		res := &colResolver{cells: grid}
		want := Eval(shifted, &colResolver{cells: grid})
		if got := p2.EvalAt(res, at2); !sameValue(got, want) {
			t.Errorf("%q shifted: VM=%v AST=%v", src, got, want)
		}
		// Re-evaluation is stable: no hidden state in the program.
		if got := p2.EvalAt(res, at2); !sameValue(got, want) {
			t.Errorf("%q shifted re-eval: VM=%v AST=%v", src, got, want)
		}
	}
}

// TestBytecodeCorpusPinned: every corpus formula evaluates to its pinned value
// on the walker and on the VM, under the per-cell resolver, the bulk scan and
// the slab folds alike.
func TestBytecodeCorpusPinned(t *testing.T) {
	grid := bytecodeGrid()
	anchor := ref.Ref{Col: 8, Row: 4}
	for _, c := range bytecodeCorpus {
		ast := MustParse(c.src)
		p := Compile(ast, anchor)
		for _, res := range []Resolver{plain{&colResolver{cells: grid}}, &colResolver{cells: grid}, folder{&colResolver{cells: grid}}} {
			if got := Eval(ast, res); !sameValue(got, c.want) {
				t.Errorf("%q (%T): Eval=%#v, pinned %#v", c.src, res, got, c.want)
			}
			if got := p.EvalAt(res, anchor); !sameValue(got, c.want) {
				t.Errorf("%q (%T): VM=%#v, pinned %#v", c.src, res, got, c.want)
			}
		}
	}
}

// TestCorpusCallsEveryBuiltin: every name in the builtin table is called by
// some corpus formula, so the pinned values cover the whole library; and a
// numeric builtin takes no more arguments than nums holds.
func TestCorpusCallsEveryBuiltin(t *testing.T) {
	called := map[string]bool{}
	var walk func(Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *Call:
			called[n.Name] = true
			for _, a := range n.Args {
				walk(a)
			}
		case *Binary:
			walk(n.L)
			walk(n.R)
		case *Unary:
			walk(n.X)
		}
	}
	for _, c := range bytecodeCorpus {
		walk(MustParse(c.src))
	}
	for name, b := range builtins {
		if !called[name] {
			t.Errorf("no corpus formula calls %s", name)
		}
		if b.num != nil && b.max > len(nums{}) {
			t.Errorf("%s takes up to %d numbers, nums holds %d", name, b.max, len(nums{}))
		}
	}
}

// TestCompileCachedInterning: shifted copies of one formula shape intern to
// the same *Program (run membership is pointer equality), and so does a
// respelling of it, which is another shape; $-fixed axes keep distinct shapes
// distinct, and differing literals break sharing.
func TestCompileCachedInterning(t *testing.T) {
	base := ref.Ref{Col: 4, Row: 10}
	ast := MustParse("=A10*B10+$F$1")
	intern := func(n Node, at ref.Ref) *Program { return MustParseShape(Text(n), at).Program() }
	p := intern(ast, base)
	for dRow := 1; dRow <= 5; dRow++ {
		at := ref.Ref{Col: base.Col, Row: base.Row + dRow}
		if q := intern(Shift(ast, 0, dRow), at); q != p {
			t.Fatalf("row %+d: shifted copy interned to a different program", dRow)
		}
	}
	// A column shift is also the same shape (both axes relative on A/B).
	if q := intern(Shift(ast, 3, 0), ref.Ref{Col: base.Col + 3, Row: base.Row}); q != p {
		t.Fatal("column-shifted copy interned to a different program")
	}
	// Spaces and redundant parentheses: another shape of the same program.
	respelled := MustParseShape("= (A12*B12) + $F$1", ref.Ref{Col: base.Col, Row: base.Row + 2})
	if respelled == MustParseShape(Text(ast), base) || respelled.Program() != p {
		t.Fatal("a respelling is the same shape, or another program")
	}
	// Same text at the same anchor but row-fixed reference: different shape.
	if q := intern(MustParse("=A$10*B10+$F$1"), base); q == p {
		t.Fatal("row-fixed variant interned to the relative program")
	}
	// Different literal: different shape.
	if q := intern(MustParse("=A10*B10+$F$2"), base); q == p {
		t.Fatal("different fixed ref interned to the same program")
	}
	// Not a shifted copy (same text, different anchor → different offsets).
	if q := intern(ast, ref.Ref{Col: 4, Row: 11}); q == p {
		t.Fatal("same text at a different anchor interned to the same program")
	}
}

// TestCellOpAt pins the operand encoding: relative axes follow the anchor,
// $-fixed axes do not — exactly Shift's behaviour.
func TestCellOpAt(t *testing.T) {
	anchor := ref.Ref{Col: 3, Row: 5}
	for _, tc := range []struct {
		src string
		at  ref.Ref // expected position when re-anchored at anchor+(1,2)
	}{
		{"=B4", ref.Ref{Col: 3, Row: 6}},
		{"=$B4", ref.Ref{Col: 2, Row: 6}},
		{"=B$4", ref.Ref{Col: 3, Row: 4}},
		{"=$B$4", ref.Ref{Col: 2, Row: 4}},
	} {
		p := Compile(MustParse(tc.src), anchor)
		if p == nil || len(p.CellOps()) != 1 {
			t.Fatalf("%q: bad compile", tc.src)
		}
		moved := ref.Ref{Col: anchor.Col + 1, Row: anchor.Row + 2}
		if got := p.CellOps()[0].At(moved); got != tc.at {
			t.Errorf("%q at %v: got %v, want %v", tc.src, moved, got, tc.at)
		}
	}
}

// TestCompileAcceptsEveryFormula: a nest far deeper than the numeric plan's
// stack and SUMs of more single cells than the VM's initial stack holds
// compile, through Compile and the intern table, and evaluate to what Eval gives.
func TestCompileAcceptsEveryFormula(t *testing.T) {
	sumOf := func(n int) string {
		cells := make([]string, n)
		for i := range cells {
			cells[i] = fmt.Sprintf("A%d", 1+i%40)
		}
		return "=SUM(" + strings.Join(cells, ",") + ")"
	}
	grid := bytecodeGrid()
	anchor := ref.Ref{Col: 1, Row: 1}
	for _, src := range []string{
		"=1" + strings.Repeat("+(1", 140) + "*A2" + strings.Repeat(")", 140),
		sumOf(129),
		sumOf(1000),
	} {
		ast := MustParse(src)
		want := Eval(ast, &colResolver{cells: grid})
		for _, p := range []*Program{Compile(ast, anchor), MustParseShape(src, anchor).Program()} {
			if p == nil {
				t.Fatalf("%.40q: did not compile", src)
			}
			if got := p.EvalAt(&colResolver{cells: grid}, anchor); !sameValue(got, want) {
				t.Fatalf("%.40q: VM=%v AST=%v", src, got, want)
			}
		}
	}
}

// readLog is a resolver that records every cell read, in order, over a grid.
type readLog struct {
	cells map[ref.Ref]Value
	reads []ref.Ref
}

func (r *readLog) CellValue(at ref.Ref) Value {
	r.reads = append(r.reads, at)
	return r.cells[at]
}

// TestEvalReadsLikeVM: Eval and the VM read the same cells in the same order,
// an error in the left operand or an earlier argument included — under a
// resolver whose reads have effects (the engine's walk) that is what makes
// their values agree.
func TestEvalReadsLikeVM(t *testing.T) {
	grid := map[ref.Ref]Value{
		ref.MustCell("B1"): Error(ErrDiv0),
		ref.MustCell("C1"): Num(2),
		ref.MustCell("D1"): Num(3),
	}
	at := ref.MustCell("A1")
	for _, src := range []string{"=B1*2-C1", "=SUM(B1,C1)", "=IF(B1,C1,D1)", "=IFERROR(B1+C1,D1)"} {
		ast := MustParse(src)
		walker, vm := &readLog{cells: grid}, &readLog{cells: grid}
		want, got := Eval(ast, walker), Compile(ast, at).EvalAt(vm, at)
		if !sameValue(got, want) || !slices.Equal(walker.reads, vm.reads) {
			t.Errorf("%s: Eval read %v for %v, the VM %v for %v", src, walker.reads, want, vm.reads, got)
		}
	}
}

// TestNumericPlanEligibility: the float fast path claims only straight-line
// arithmetic — over cells, numeric constants and the fold-compatible
// aggregates of one range — whose result comes off an operator or such an
// aggregate. Anything that could produce or pass through a non-number — bare
// references (kind-preserving), string or boolean constants, concatenation,
// comparisons, other calls, an aggregate with more than its range to read —
// must stay on the generic interpreter, as must programs deeper than the
// fixed float stack.
func TestNumericPlanEligibility(t *testing.T) {
	anchor := ref.Ref{Col: 3, Row: 5}
	cases := []struct {
		src  string
		want bool
	}{
		{"=A5*B5+1.5", true},
		{"=A5/B5-$C$1", true},
		{"=B5", false},        // bare cell: `=B5` of a bool is a bool
		{"=1.5", false},       // bare constant likewise preserves kind
		{"=-A5", false},       // unary stays generic
		{"=A5&B5", false},     // concatenation
		{"=A5>B5", false},     // comparison yields a bool
		{"=SUM(A1:A9)", true}, // a one-range aggregate is one number
		{"=AVG(A$1:A5)/COUNTA(B1:B9)-MIN(A1:A9)*MAX(A1:A9)+COUNT(A1:A9)", true},
		{"=D5-SUM(C$1:C5)", true},
		{"=SUM(A1:B9)", true},           // width is the sweep's to refuse, when it plans its windows
		{"=SUM(A1:A9,B1)", false},       // a second argument
		{"=SUM(A5)", false},             // a scalar argument
		{"=ROUND(SUM(A1:A9),2)", false}, // call dispatch around the fold
		{"=SUMIF(A1:A9,\">2\")", false},
		{"=MEDIAN(A1:A9)", false}, // not answered off a NumericFold
		{"=A1:A9+1", false},       // a range in scalar position
		{"=IF(A5,1,2)", false},    // call dispatch
		{"=\"2\"+A5", false},      // non-numeric constant
		{"=TRUE+A5", false},
	}
	for _, tc := range cases {
		p := Compile(MustParse(tc.src), anchor)
		if p == nil {
			t.Errorf("%q: did not compile at all", tc.src)
			continue
		}
		if got := p.HasNumericSweep(); got != tc.want {
			t.Errorf("%q: HasNumericSweep=%v, want %v", tc.src, got, tc.want)
		}
	}
	// Right-nested additions push one pending operand per paren: depth beyond
	// the float stack declines the plan while the program itself still runs.
	deep := "=A5"
	for i := 0; i < maxNumericDepth+4; i++ {
		deep += "+(A5"
	}
	deep += "*2"
	for i := 0; i < maxNumericDepth+4; i++ {
		deep += ")"
	}
	if p := Compile(MustParse(deep), anchor); p == nil {
		t.Fatal("deep numeric expression did not compile")
	} else if p.HasNumericSweep() {
		t.Error("over-deep expression claimed the numeric fast path")
	}
}

// gridFold is the test-side NumericFold of one range of a grid: populated
// cells in row-major order, one sequential chain, as the contract states it.
func gridFold(res *colResolver, rng ref.Range) NumericFold {
	f := NumericFold{Min: math.Inf(1), Max: math.Inf(-1)}
	res.RangeValues(rng, func(_ ref.Ref, v Value) bool {
		switch v.Kind {
		case KindEmpty:
			return true
		case KindNumber:
			f.Sum += v.Num
			f.Count++
			if v.Num < f.Min {
				f.Min = v.Num
			}
			if v.Num > f.Max {
				f.Max = v.Num
			}
		case KindError:
			if !f.Err.IsError() {
				f.Err = v
			}
		}
		f.NonEmpty++
		return true
	})
	return f
}

// TestNumericSweepMatchesVM: for eligible programs whose operands all coerce
// and whose aggregates are all numbers, the float stack must reproduce the
// generic VM bit-for-bit; an aggregate the interpreter answers with an error
// must make FoldOp.Result stand aside, and a zero divisor NumericSweepRow
// (ok=false) rather than emit ±Inf.
func TestNumericSweepMatchesVM(t *testing.T) {
	grid := bytecodeGrid()
	grid[ref.Ref{Col: 4, Row: 14}] = Error(ErrNA) // second to D6's #DIV/0!
	anchor := ref.Ref{Col: 8, Row: 4}
	for _, tc := range []struct {
		src   string
		bails bool
	}{
		{"=A4*B4+A5", false},
		{"=A4/B4-$A$1", false},
		{"=(A4+B4)*(A5-B5)", false},
		{"=SUM(A1:A30)", false},
		{"=SUM(B1:B30)/COUNT(B1:B30)-AVERAGE(B1:B30)", false}, // text and a bool skipped, not coerced
		{"=A4-SUM(A$1:A4)*MAX(B1:B30)+MIN(B1:B30)", false},
		{"=COUNT(D1:D30)+COUNTA(D1:D30)", false},                                  // the counting two ignore the errors
		{"=AVG(A2:A6)+SUM(C1:C30)+MIN(C1:C30)+MAX(C1:C30)+COUNTA(C1:C30)", false}, // C is empty
		{"=SUM(D1:D30)", true},
		{"=MIN(D1:D30)+1", true},
		{"=MAX(D12:D30)", true}, // only the second error
		{"=AVERAGE(D1:D30)", true},
		{"=AVERAGE(C1:C30)", true},         // no numbers: #DIV/0!
		{"=1+AVERAGE(B9:B9)", true},        // text only
		{"=SUM(A1:A30)/SUM(C1:C30)", true}, // zero divisor
	} {
		p := Compile(MustParse(tc.src), anchor)
		if p == nil || !p.HasNumericSweep() {
			t.Fatalf("%q: no numeric plan", tc.src)
		}
		res := &colResolver{cells: grid}
		want := p.EvalAt(res, anchor)
		var vals []float64
		ok := true
		for i, op := range p.CellOps() {
			f, numeric := res.CellValue(op.At(anchor)).AsNumber()
			if !numeric {
				t.Fatalf("%q: operand %d not numeric in fixture", tc.src, i)
			}
			vals = append(vals, f)
		}
		for _, fo := range p.FoldOps() {
			fold := gridFold(res, fo.At(anchor))
			f, isNum := fo.Result(&fold)
			vals, ok = append(vals, f), ok && isNum
		}
		var got float64
		if ok {
			got, ok = p.NumericSweepRow(rowLanes(vals), 0, make([]float64, p.NumericWork()))
		}
		switch {
		case ok == tc.bails:
			t.Errorf("%q: fast path answered=%v, want bail=%v (VM=%v)", tc.src, ok, tc.bails, want)
		case ok && !sameValue(Num(got), want):
			t.Errorf("%q: sweep=%v VM=%v", tc.src, got, want)
		case !ok && want.Kind != KindError:
			t.Errorf("%q: bailed on a row the VM answers %v", tc.src, want)
		}
	}
}

// numericPrograms are the programs with a numeric plan among the equivalence
// corpus, plus the shapes the corpus has no reason to hold: every operator
// over cells, constants and aggregates, a repeated operand, a divisor that is
// itself a quotient, the float stack at its full depth.
func numericPrograms(t testing.TB) (ps []*Program) {
	var srcs []string
	for _, c := range bytecodeCorpus {
		srcs = append(srcs, c.src)
	}
	srcs = append(srcs, "=A4*B4*$C$1", "=A4/B4-$A$1", "=(A4+B4)*(A5-B5)/(A4-A4)", "=A4*A4-A4/A4", "=1/(A4/B4)",
		"=2.5-A4/0.5+B4*-1", "=SUM(A1:A30)/COUNT(B1:B30)-AVERAGE(B1:B30)", "=A4-SUM(A$1:A4)*MAX(B1:B30)+MIN(B1:B30)",
		"=MAX(A1:A9)/MIN(A1:A9)/COUNTA(C1:C9)",
		// Recurrences: prev, H3 at H4, on either side of each operator, under
		// a bare operand, a constant and an expression that divides.
		"=H3+A4", "=H3-A4*$C$1", "=H3*2", "=H3/(A4-B4)", "=A4*$C$1+H3", "=SUM(A1:A9)-H3", "=2/H3", "=(A4/B4)*H3")
	deep := "=A4"
	for i := 0; i < maxNumericDepth-2; i++ {
		deep += "/(B4"
	}
	deep += "*2"
	for i := 0; i < maxNumericDepth-2; i++ {
		deep += ")"
	}
	for _, src := range append(srcs, deep) {
		if p := Compile(MustParse(src), ref.Ref{Col: 8, Row: 4}); p != nil && p.HasNumericSweep() {
			ps = append(ps, p)
		}
	}
	if len(ps) < 20 {
		t.Fatalf("only %d programs with a numeric plan", len(ps))
	}
	return ps
}

// checkNumericLanes is the property NumericSweepRows is held to: over any
// operand lanes, rows at once answer what NumericSweepRow answers row by row —
// the same bits, and a flag exactly where it says ok=false.
func checkNumericLanes(t testing.TB, p *Program, n int, operand func(i, k int) float64) {
	nin := len(p.CellOps()) + len(p.FoldOps())
	lanes := make([][]float64, nin)
	for i := range lanes {
		lanes[i] = make([]float64, n+3)
		for k := range lanes[i] {
			lanes[i][k] = math.NaN() // nothing past n is read
			if k < n {
				lanes[i][k] = operand(i, k)
			}
		}
	}
	work := make([]float64, p.NumericWork()*n)
	for i := range work {
		work[i] = math.NaN() // a work lane is written before it is read
	}
	bad := make([]bool, n)
	out := p.NumericSweepRows(lanes, work, n, bad)
	vals, stack := make([]float64, nin), make([]float64, p.NumericWork())
	for k := 0; k < n; k++ {
		for i := range vals {
			vals[i] = lanes[i][k]
		}
		want, ok := p.NumericSweepRow(rowLanes(vals), 0, stack)
		if bad[k] == ok || ok && math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("row %d of %d, operands %v: lanes answer %v (bad=%v), the row sweep %v (ok=%v)", k, n, vals, out[k], bad[k], want, ok)
		}
	}
	if op, ok := p.NumericChain(); ok {
		checkNumericChain(t, p, op, lanes, n)
	}
}

// checkNumericChain is the property NumericChainRows is held to: carried from
// the prev operand's row-0 value down the lanes, each row answers what
// NumericSweepRow answers with the row above's answer for prev, and the
// recurrence stops exactly at the first row flagged beforehand or the row
// sweep will not answer.
func checkNumericChain(t testing.TB, p *Program, op int, lanes [][]float64, n int) {
	work := make([]float64, p.NumericWork()*n)
	for i := range work {
		work[i] = math.NaN()
	}
	bad, out := make([]bool, n), make([]float64, n)
	flag := n / 2 // a row the caller flagged, on longer lanes
	if n > 4 {
		bad[flag] = true
	}
	prev := lanes[op][0]
	done := p.NumericChainRows(lanes, work, n, bad, prev, out)
	vals, stack := make([]float64, len(lanes)), make([]float64, p.NumericWork())
	for k := 0; k < n; k++ {
		for i := range vals {
			vals[i] = lanes[i][k]
		}
		vals[op] = prev
		want, ok := p.NumericSweepRow(rowLanes(vals), 0, stack)
		if n > 4 && k == flag {
			ok = false
		}
		if !ok {
			if done != k {
				t.Fatalf("row %d of %d, operands %v: the recurrence ran %d rows, want it to stop here", k, n, vals, done)
			}
			return
		}
		if done <= k || math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("row %d of %d, operands %v: recurrence %v (%d rows run), the row sweep %v", k, n, vals, out[k], done, want)
		}
		prev = want
	}
	if done != n {
		t.Fatalf("the recurrence ran %d of %d rows", done, n)
	}
}

// rowLanes makes one row's operands lanes of one float each, for
// NumericSweepRow's row 0.
func rowLanes(vals []float64) [][]float64 {
	lanes := make([][]float64, len(vals))
	for i := range vals {
		lanes[i] = vals[i : i+1]
	}
	return lanes
}

// laneSpecials are the operands float arithmetic treats specially.
var laneSpecials = [...]float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1e-300, 3}

func TestNumericSweepRowsMatchesRowSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, p := range numericPrograms(t) {
		for _, n := range []int{1, 5, 256} {
			for round := 0; round < 4; round++ {
				checkNumericLanes(t, p, n, func(int, int) float64 {
					if rng.Intn(3) == 0 {
						return laneSpecials[rng.Intn(len(laneSpecials))]
					}
					return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
				})
			}
		}
	}
}

// TestNumericChainForm pins which plans are recurrences: prev — the cell one
// row up in the anchor's column, relative on both axes — as one whole child of
// the root operator, read nowhere in the other.
func TestNumericChainForm(t *testing.T) {
	anchor := ref.Ref{Col: 8, Row: 4} // H4
	for _, tc := range []struct {
		src   string
		op    int
		right bool
		chain bool
	}{
		{"=H3+A4", 0, false, true},
		{"=A4*$C$1+H3", 2, true, true},
		{"=H3-SUM(A1:A9)", 0, false, true},
		{"=(A4+B4)/H3", 2, true, true},
		{"=H3*2", 0, false, true},
		{"=H3*2+A4", 0, false, false},  // prev is inside the left child
		{"=A4+H3*2", 0, false, false},  // and inside the right one
		{"=H3+H3", 0, false, false},    // X reads prev
		{"=H3+A4*H3", 0, false, false}, // X reads prev
		{"=H2+A4", 0, false, false},    // two rows up
		{"=$H3+A4", 0, false, false},   // column-fixed
		{"=H$3+A4", 0, false, false},   // row-fixed
		{"=G3+A4", 0, false, false},    // another column
		{"=SUM(H1:H3)+A4", 0, false, false},
	} {
		p := Compile(MustParse(tc.src), anchor)
		op, ok := p.NumericChain()
		if ok != tc.chain || ok && (op != tc.op || p.numeric.chain.right != tc.right) {
			t.Errorf("%q: NumericChain = %d, %v (right %v); want %d, %v (right %v)", tc.src, op, ok, p.numeric.chain.right, tc.op, tc.chain, tc.right)
		}
	}
}

// TestCriterionMatchesOracle pins the compiled Criterion against the
// one-shot matcher across every operator prefix and operand kind.
func TestCriterionMatchesOracle(t *testing.T) {
	crits := []Value{
		Num(5), Str("5"), Str(">3"), Str("<3"), Str(">=5"), Str("<=5"),
		Str("<>5"), Str("=5"), Str("=txt"), Str("txt"), Str("<>txt"),
		Str(">abc"), Str(""), Boolean(true), Error(ErrNA), Empty(),
	}
	vals := []Value{
		Num(3), Num(5), Num(7), Str("5"), Str("txt"), Str(""),
		Boolean(true), Boolean(false), Error(ErrNA), Empty(),
	}
	for _, c := range crits {
		pc := ParseCriterion(c)
		for _, v := range vals {
			if got, want := pc.Matches(v), matchesCriterion(v, c); got != want {
				t.Errorf("crit %v value %v: compiled %v, oracle %v", c, v, got, want)
			}
		}
	}
}

func BenchmarkEvalASTvsVM(b *testing.B) {
	grid := bytecodeGrid()
	ast := MustParse("=A1*B4+A2")
	anchor := ref.Ref{Col: 8, Row: 1}
	p := Compile(ast, anchor)
	res := &colResolver{cells: grid}
	b.Run("ast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Eval(ast, res)
		}
	})
	b.Run("vm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.EvalAt(res, anchor)
		}
	})
}
