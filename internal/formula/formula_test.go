package formula

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"taco/internal/ref"
)

func TestParseLiterals(t *testing.T) {
	n := MustParse("=42")
	if num, ok := n.(*Number); !ok || num.Value != 42 {
		t.Fatalf("got %#v", n)
	}
	n = MustParse(`="hi ""there"""`)
	if s, ok := n.(*String); !ok || s.Value != `hi "there"` {
		t.Fatalf("got %#v", n)
	}
	n = MustParse("TRUE")
	if b, ok := n.(*Bool); !ok || !b.Value {
		t.Fatalf("got %#v", n)
	}
	n = MustParse("=1.5e3")
	if num, ok := n.(*Number); !ok || num.Value != 1500 {
		t.Fatalf("got %#v", n)
	}
}

func TestParseRefs(t *testing.T) {
	n := MustParse("=A1")
	c, ok := n.(*CellRef)
	if !ok || c.At != (ref.Ref{Col: 1, Row: 1}) || c.ColFixed || c.RowFixed {
		t.Fatalf("got %#v", n)
	}
	n = MustParse("=$B$2")
	c = n.(*CellRef)
	if !c.ColFixed || !c.RowFixed || c.At != (ref.Ref{Col: 2, Row: 2}) {
		t.Fatalf("got %#v", c)
	}
	n = MustParse("=$B$1:B4")
	r, ok := n.(*RangeRef)
	if !ok || r.At != ref.MustRange("B1:B4") {
		t.Fatalf("got %#v", n)
	}
	if !r.HeadColFixed || !r.HeadRowF || r.TailColFixed || r.TailRowF {
		t.Fatalf("fixed flags wrong: %#v", r)
	}
}

func TestParseReversedRangeNormalises(t *testing.T) {
	n := MustParse("=SUM(B4:A1)")
	call := n.(*Call)
	r := call.Args[0].(*RangeRef)
	if r.At != ref.MustRange("A1:B4") {
		t.Fatalf("got %v", r.At)
	}
}

func TestParseReversedRangeFlagSwap(t *testing.T) {
	// $B$4:A1 reversed: after normalisation head=A1 (relative), tail=$B$4.
	n := MustParse("=SUM($B$4:A1)")
	r := n.(*Call).Args[0].(*RangeRef)
	if r.At != ref.MustRange("A1:B4") {
		t.Fatalf("range %v", r.At)
	}
	if r.HeadColFixed || r.HeadRowF || !r.TailColFixed || !r.TailRowF {
		t.Fatalf("flags %#v", r)
	}
}

func TestParsePrecedence(t *testing.T) {
	res := ResolverFunc(func(ref.Ref) Value { return Empty() })
	cases := map[string]float64{
		"=1+2*3":      7,
		"=(1+2)*3":    9,
		"=2^3^2":      512, // right-assoc
		"=-2^2":       4,   // unary binds the literal: (-2)^2
		"=10-2-3":     5,
		"=50%":        0.5,
		"=200%%":      0.02,
		"=1+50%":      1.5,
		"=8/2/2":      2,
		"=2*3+4*5":    26,
		"=1-2+3":      2,
		"=ABS(-3)+1":  4,
		"=MOD(7,3)":   1,
		"=MOD(-1,3)":  2,
		"=ROUND(2.5)": 3,
	}
	for src, want := range cases {
		v := Eval(MustParse(src), res)
		if v.Kind != KindNumber || v.Num != want {
			t.Errorf("%s = %v, want %v", src, v, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"=", "=1+", "=SUM(", "=SUM(A1:A2", "=A1:", "=(1", "=1)", "=@",
		`="unterminated`, "=$", "=$1", "=FOO", "=A1 A2", "=1..2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	for _, src := range []string{
		"SUM($B$1:B4)",
		"IF(A3=A2,N2+M3,M3)",
		"VLOOKUP(A1,$D$1:$F$100,2)",
		`CONCATENATE("a",B2)`,
	} {
		n := MustParse(src)
		again := MustParse(Text(n))
		if Text(again) != Text(n) {
			t.Errorf("round trip %q -> %q -> %q", src, Text(n), Text(again))
		}
	}
}

func TestRefs(t *testing.T) {
	refs, err := ExtractRefs("=IF(A3=A2,N2+M3,M3)*SUM($B$1:B4)")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A3", "A2", "N2", "M3", "M3", "B1:B4"}
	if len(refs) != len(want) {
		t.Fatalf("got %d refs, want %d: %v", len(refs), len(want), refs)
	}
	for i, w := range want {
		if refs[i].At != ref.MustRange(w) {
			t.Errorf("ref %d = %v, want %s", i, refs[i].At, w)
		}
	}
	// $B$1 head anchored, B4 tail not.
	last := refs[len(refs)-1]
	if !last.HeadFixed || last.TailFixed {
		t.Errorf("fixed flags wrong: %+v", last)
	}
}

func TestShiftAutofill(t *testing.T) {
	// The Fig. 2 pattern: autofilling N3 down one row shifts relative refs.
	src := "IF(A3=A2,N2+M3,M3)"
	n := Shift(MustParse(src), 0, 1)
	if got := Text(n); got != "IF((A4=A3),(N3+M4),M4)" {
		t.Errorf("shifted = %q", got)
	}
	// Fixed parts stay put.
	n = Shift(MustParse("SUM($B$1:B4)"), 0, 1)
	if got := Text(n); got != "SUM($B$1:B5)" {
		t.Errorf("shifted = %q", got)
	}
	// Column shifts respect $ on column only.
	n = Shift(MustParse("$A1+B$2"), 2, 5)
	if got := Text(n); got != "($A6+D$2)" {
		t.Errorf("shifted = %q", got)
	}
}

// TestShiftCrossingFixedCorner: when a fill carries a relative corner past
// the fixed one, the corners trade places and each `$` must stay with the
// corner that owns it — what the parser makes of the same text shifted by
// hand (rangeNode). Rows and columns, both orientations, one axis and both.
func TestShiftCrossingFixedCorner(t *testing.T) {
	for _, tc := range []struct {
		src        string
		dCol, dRow int
		byHand     string // the source with its relative corners moved, as typed
		text       string
		head, tail bool // Refs' HeadFixed, TailFixed
	}{
		{"SUM(C1:C$5)", 0, 5, "SUM(C6:C$5)", "SUM(C$5:C6)", false, false},
		{"SUM($C1:$C$5)", 0, 5, "SUM($C6:$C$5)", "SUM($C$5:$C6)", true, false},
		{"SUM($C$5:$C9)", 0, -6, "SUM($C$5:$C3)", "SUM($C3:$C$5)", false, true},
		{"SUM(A$1:$C$1)", 4, 0, "SUM(E$1:$C$1)", "SUM($C$1:E$1)", true, false},
		{"SUM($C$1:F$1)", -4, 0, "SUM($C$1:B$1)", "SUM(B$1:$C$1)", false, true},
		{"SUM(A1:$C$5)", 4, 6, "SUM(E7:$C$5)", "SUM($C$5:E7)", true, false},
		{"SUM(A1:$C$5)", 4, 0, "SUM(E1:$C$5)", "SUM($C1:E$5)", false, false}, // one axis crosses, the other keeps its corner
		{"SUM(A1:$C$5)", 1, 3, "SUM(B4:$C$5)", "SUM(B4:$C$5)", false, true},  // nothing crosses
	} {
		got := Shift(MustParse(tc.src), tc.dCol, tc.dRow)
		if txt := Text(got); txt != tc.text {
			t.Errorf("Shift(%s, %d, %d) = %s, want %s", tc.src, tc.dCol, tc.dRow, txt, tc.text)
		}
		for _, want := range []Node{MustParse(tc.byHand), MustParse(Text(got))} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Shift(%s, %d, %d): AST %s differs from the parser's %s", tc.src, tc.dCol, tc.dRow, Text(got), Text(want))
			}
		}
		if r := Refs(got)[0]; r.HeadFixed != tc.head || r.TailFixed != tc.tail {
			t.Errorf("Shift(%s, %d, %d): Refs reports head/tail fixed %v/%v, want %v/%v", tc.src, tc.dCol, tc.dRow, r.HeadFixed, r.TailFixed, tc.head, tc.tail)
		}
	}
}

// gridResolver maps cells to values from a simple map for eval tests.
type gridResolver map[ref.Ref]Value

func (g gridResolver) CellValue(at ref.Ref) Value {
	if v, ok := g[at]; ok {
		return v
	}
	return Empty()
}

func grid(vals map[string]Value) gridResolver {
	g := gridResolver{}
	for k, v := range vals {
		g[ref.MustCell(k)] = v
	}
	return g
}

func TestEvalAggregates(t *testing.T) {
	g := grid(map[string]Value{
		"A1": Num(1), "A2": Num(2), "A3": Num(3),
		"B1": Str("x"), "B2": Num(10),
	})
	cases := map[string]Value{
		"=SUM(A1:A3)":          Num(6),
		"=SUM(A1:B3)":          Num(16), // text skipped
		"=SUM(A1,A2,5)":        Num(8),
		"=AVERAGE(A1:A3)":      Num(2),
		"=MIN(A1:A3)":          Num(1),
		"=MAX(A1:B3)":          Num(10),
		"=COUNT(A1:B3)":        Num(4),
		"=COUNTA(A1:B3)":       Num(5),
		"=PRODUCT(A1:A3)":      Num(6),
		"=SUM(A1:A3)*2":        Num(12),
		"=AVERAGE(B1)":         Error(ErrValue), // scalar text arg
		"=SUMIF(A1:A3,\">1\")": Num(5),
		"=COUNTIF(A1:A3,2)":    Num(1),
	}
	for src, want := range cases {
		got := Eval(MustParse(src), g)
		if got.Kind != want.Kind || got.Num != want.Num || got.Err != want.Err {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalIFAndLogic(t *testing.T) {
	g := grid(map[string]Value{"A1": Num(5), "A2": Num(5), "A3": Num(7)})
	cases := map[string]Value{
		"=IF(A1=A2,1,2)":        Num(1),
		"=IF(A1=A3,1,2)":        Num(2),
		"=IF(A1>4,\"y\",\"n\")": Str("y"),
		"=IF(FALSE,1)":          Boolean(false),
		"=AND(A1=A2,A3>6)":      Boolean(true),
		"=OR(A1<>A2,A3>6)":      Boolean(true),
		"=NOT(0)":               Boolean(true),
		"=IFERROR(1/0,42)":      Num(42),
		"=ISERROR(1/0)":         Boolean(true),
		"=ISNUMBER(A1)":         Boolean(true),
		"=ISBLANK(Z99)":         Boolean(true),
	}
	for src, want := range cases {
		got := Eval(MustParse(src), g)
		if got.Kind != want.Kind || got.Num != want.Num || got.Bool != want.Bool || got.Str != want.Str {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
}

func TestEvalStrings(t *testing.T) {
	g := grid(map[string]Value{"A1": Str("Hello"), "A2": Num(3)})
	cases := map[string]Value{
		`=A1&" world"`:        Str("Hello world"),
		`=CONCATENATE(A1,A2)`: Str("Hello3"),
		`=LEN(A1)`:            Num(5),
		`=UPPER(A1)`:          Str("HELLO"),
		`=LOWER(A1)`:          Str("hello"),
		`=LEFT(A1,2)`:         Str("He"),
		`=RIGHT(A1,2)`:        Str("lo"),
		`=TRIM("  x ")`:       Str("x"),
		`="a"="A"`:            Boolean(true),
	}
	for src, want := range cases {
		got := Eval(MustParse(src), g)
		if got.String() != want.String() || got.Kind != want.Kind {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
}

func TestEvalVlookup(t *testing.T) {
	g := grid(map[string]Value{
		"D1": Str("apple"), "E1": Num(10),
		"D2": Str("pear"), "E2": Num(20),
		"D3": Str("fig"), "E3": Num(30),
		"A1": Str("pear"),
	})
	got := Eval(MustParse("=VLOOKUP(A1,$D$1:$E$3,2)"), g)
	if got.Kind != KindNumber || got.Num != 20 {
		t.Fatalf("VLOOKUP = %v", got)
	}
	got = Eval(MustParse("=VLOOKUP(\"nope\",D1:E3,2)"), g)
	if !got.IsError() || got.Err != ErrNA {
		t.Fatalf("missing key = %v", got)
	}
	got = Eval(MustParse("=VLOOKUP(A1,D1:E3,5)"), g)
	if !got.IsError() || got.Err != ErrRef {
		t.Fatalf("bad col = %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	g := grid(nil)
	cases := map[string]string{
		"=1/0":        "#DIV/0!",
		"=SQRT(-1)":   "#NUM!",
		"=LN(0)":      "#NUM!",
		"=NOSUCH(1)":  "#NAME?",
		`="a"*2`:      "#VALUE!",
		"=SUM(1/0,2)": "#DIV/0!",
	}
	for src, wantErr := range cases {
		got := Eval(MustParse(src), g)
		if !got.IsError() || got.Err.String() != wantErr {
			t.Errorf("%s = %v, want error %s", src, got, wantErr)
		}
	}
}

// TestErrCodeText: every ErrCode renders as its spreadsheet text and parses
// back from it; that text is all a snapshot or a client ever sees of a code.
func TestErrCodeText(t *testing.T) {
	want := []string{"", "#NULL!", "#DIV/0!", "#VALUE!", "#REF!", "#NAME?", "#NUM!", "#N/A", "#CYCLE!"}
	codes := []ErrCode{ErrNull, ErrDiv0, ErrValue, ErrRef, ErrName, ErrNum, ErrNA, ErrCycle}
	for _, c := range codes {
		if c.String() != want[c] {
			t.Errorf("ErrCode %d = %q, want %q", c, c.String(), want[c])
		}
		if got, ok := ParseErrCode(c.String()); !ok || got != c {
			t.Errorf("ParseErrCode(%q) = %d, %v; want %d", c.String(), got, ok, c)
		}
		if v := Errorf(c.String()); v != Error(c) || v.String() != want[c] {
			t.Errorf("Errorf(%q) = %#v, want Error(%d)", c.String(), v, c)
		}
	}
	for _, text := range []string{"", "#BOGUS!", "#div/0!", "#N/A "} {
		if c, ok := ParseErrCode(text); ok {
			t.Errorf("ParseErrCode(%q) = %d, want no code", text, c)
		}
	}
}

func TestEvalComparisonsAndCoercion(t *testing.T) {
	g := grid(map[string]Value{"A1": Str("12")})
	got := Eval(MustParse("=A1+1"), g)
	if got.Num != 13 {
		t.Errorf("string coercion: %v", got)
	}
	got = Eval(MustParse("=Z1+5"), g) // empty -> 0
	if got.Num != 5 {
		t.Errorf("empty coercion: %v", got)
	}
	got = Eval(MustParse("=TRUE+1"), g)
	if got.Num != 2 {
		t.Errorf("bool coercion: %v", got)
	}
}

func TestValueString(t *testing.T) {
	if Num(1.5).String() != "1.5" || Num(3).String() != "3" {
		t.Error("number formatting")
	}
	if Boolean(true).String() != "TRUE" || Empty().String() != "" {
		t.Error("bool/empty formatting")
	}
	if Error(ErrRef).String() != "#REF!" {
		t.Error("error formatting")
	}
}

func TestFig2Formula(t *testing.T) {
	// The running example from the paper's Fig. 2.
	src := "=IF(A3=A2,N2+M3,M3)"
	refs, err := ExtractRefs(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 5 {
		t.Fatalf("want 5 refs, got %v", refs)
	}
	g := grid(map[string]Value{
		"A2": Str("CP1"), "A3": Str("CP1"),
		"N2": Num(100), "M3": Num(50),
	})
	v := Eval(MustParse(src), g)
	if v.Num != 150 {
		t.Fatalf("IF chain = %v, want 150", v)
	}
}

func TestLexerFunctionVsCellAmbiguity(t *testing.T) {
	// LOG10 would parse as cell LOG10? No: followed by '(' so treated as
	// a function name; unknown functions yield #NAME? at eval time.
	n, err := Parse("=LOG10(100)")
	if err != nil {
		t.Fatal(err)
	}
	call, ok := n.(*Call)
	if !ok || call.Name != "LOG10" {
		t.Fatalf("got %#v", n)
	}
}

func TestDeepNesting(t *testing.T) {
	depth := 200
	src := strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if v := Eval(n, grid(nil)); v.Num != 1 {
		t.Fatalf("deep nesting = %v", v)
	}
}

// TestNestingBound: a formula MaxNesting deep — d operators or calls around a
// leaf, each shape the parser builds, recursing or not — parses, evaluates,
// and renders (Text, which parenthesises every binary operator) to a formula
// that re-parses to itself; one level more is an *ErrNesting. Parentheses
// alone build nothing: the parser's recursion bound, twice MaxNesting, refuses
// them, and the 500 000 a 1 MiB edit can carry are refused there.
func TestNestingBound(t *testing.T) {
	for name, nest := range map[string]func(d int) string{
		"signs":    func(d int) string { return strings.Repeat("+", d) + "1" },
		"percents": func(d int) string { return "1" + strings.Repeat("%", d) },
		"sums":     func(d int) string { return strings.Repeat("1+", d) + "1" },
		"powers":   func(d int) string { return "1" + strings.Repeat("^1", d) },
		"calls":    func(d int) string { return strings.Repeat("ABS(", d) + "1" + strings.Repeat(")", d) },
		"mixed": func(d int) string {
			return strings.Repeat("-(1+", d/2) + strings.Repeat("-", d%2) + "1" + strings.Repeat(")", d/2)
		},
	} {
		const d = MaxNesting - 1 // the leaf is the last level
		n, err := Parse(nest(d))
		if err != nil {
			t.Fatalf("%s: %d deep: %v", name, MaxNesting, err)
		}
		if v := Eval(n, grid(nil)); v.Err != 0 {
			t.Fatalf("%s: %d deep = %v", name, MaxNesting, v)
		}
		text := Text(n)
		if again, err := Parse(text); err != nil || Text(again) != text {
			t.Fatalf("%s: %d deep: rendered %d bytes, re-parsed: %v", name, MaxNesting, len(text), err)
		}
		var deep *ErrNesting
		if _, err := Parse(nest(d + 1)); !errors.As(err, &deep) {
			t.Fatalf("%s: %d deep: err = %v, want *ErrNesting", name, MaxNesting+1, err)
		}
	}
	parens := func(d int) string { return strings.Repeat("(", d) + "1" + strings.Repeat(")", d) }
	if _, err := Parse(parens(2*MaxNesting - 1)); err != nil {
		t.Fatalf("%d parentheses: %v", 2*MaxNesting-1, err)
	}
	for _, d := range []int{2 * MaxNesting, 500000} {
		var deep *ErrNesting
		if _, err := Parse(parens(d)); !errors.As(err, &deep) || deep.Pos != 2*MaxNesting {
			t.Fatalf("%d parentheses: err = %v, want *ErrNesting at offset %d", d, err, 2*MaxNesting)
		}
	}
}
