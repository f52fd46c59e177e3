package formula

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"taco/internal/ref"
)

func evalOn(t *testing.T, g gridResolver, src string) Value {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return Eval(n, g)
}

func TestMathExtensions(t *testing.T) {
	g := grid(nil)
	cases := map[string]float64{
		"=FLOOR(7.3)":     7,
		"=FLOOR(7.3,0.5)": 7,
		"=FLOOR(7.6,0.5)": 7.5,
		"=CEILING(7.3)":   8,
		"=CEILING(7.1,2)": 8,
		"=TRUNC(3.79)":    3,
		"=TRUNC(3.79,1)":  3.7,
		"=TRUNC(-3.79)":   -3,
		"=SIGN(-9)":       -1,
		"=SIGN(0)":        0,
		"=SIGN(42)":       1,
		"=LOG(8,2)":       3,
		"=LOG(100)":       2,
		"=LOG10(1000)":    3,
		"=SUMSQ(3,4)":     25,
	}
	for src, want := range cases {
		got := evalOn(t, g, src)
		if got.Kind != KindNumber || math.Abs(got.Num-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if v := evalOn(t, g, "=PI()"); math.Abs(v.Num-math.Pi) > 1e-12 {
		t.Errorf("PI() = %v", v)
	}
	for src, wantErr := range map[string]string{
		"=FLOOR(1,0)": "#DIV/0!",
		"=LOG(-1)":    "#NUM!",
		"=LOG(8,1)":   "#NUM!",
		"=LOG10(0)":   "#NUM!",
	} {
		if got := evalOn(t, g, src); !got.IsError() || got.Err.String() != wantErr {
			t.Errorf("%s = %v, want %s", src, got, wantErr)
		}
	}
}

func TestStatistics(t *testing.T) {
	g := grid(map[string]Value{
		"A1": Num(4), "A2": Num(1), "A3": Num(7), "A4": Num(4), "A5": Num(9),
	})
	cases := map[string]float64{
		"=MEDIAN(A1:A5)":   4,
		"=MEDIAN(A1:A4)":   4,
		"=MEDIAN(1,2,3,4)": 2.5,
		"=LARGE(A1:A5,1)":  9,
		"=LARGE(A1:A5,2)":  7,
		"=SMALL(A1:A5,1)":  1,
		"=SMALL(A1:A5,3)":  4,
		"=RANK(7,A1:A5)":   2,
		"=RANK(1,A1:A5,1)": 1,
		"=VAR(2,4,6)":      4,
		"=STDEV(2,4,6)":    2,
	}
	for src, want := range cases {
		got := evalOn(t, g, src)
		if got.Kind != KindNumber || math.Abs(got.Num-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	for src, wantErr := range map[string]string{
		"=LARGE(A1:A5,0)":  "#NUM!",
		"=LARGE(A1:A5,99)": "#NUM!",
		"=RANK(100,A1:A5)": "#N/A",
		"=STDEV(5)":        "#DIV/0!",
		"=MEDIAN(B9:B10)":  "#NUM!", // no numbers in range
	} {
		if got := evalOn(t, g, src); !got.IsError() || got.Err.String() != wantErr {
			t.Errorf("%s = %v, want %s", src, got, wantErr)
		}
	}
}

func TestCountBlank(t *testing.T) {
	g := grid(map[string]Value{"A1": Num(1), "A3": Str("")})
	// A2 missing -> blank; A3 holds an empty *string*, which is not blank.
	if got := evalOn(t, g, "=COUNTBLANK(A1:A3)"); got.Num != 1 {
		t.Errorf("COUNTBLANK = %v", got)
	}
}

func TestSumProduct(t *testing.T) {
	g := grid(map[string]Value{
		"A1": Num(1), "A2": Num(2), "A3": Num(3),
		"B1": Num(10), "B2": Num(20), "B3": Num(30),
	})
	if got := evalOn(t, g, "=SUMPRODUCT(A1:A3,B1:B3)"); got.Num != 140 {
		t.Errorf("SUMPRODUCT = %v", got)
	}
	// Shape mismatch errors.
	if got := evalOn(t, g, "=SUMPRODUCT(A1:A3,B1:B2)"); !got.IsError() {
		t.Errorf("shape mismatch = %v", got)
	}
	// Scalar argument errors.
	if got := evalOn(t, g, "=SUMPRODUCT(A1:A3,5)"); !got.IsError() {
		t.Errorf("scalar arg = %v", got)
	}
}

func TestLookupExtensions(t *testing.T) {
	g := grid(map[string]Value{
		// Horizontal table: names in row 1, scores in row 2.
		"D1": Str("ann"), "E1": Str("bob"), "F1": Str("cat"),
		"D2": Num(10), "E2": Num(20), "F2": Num(30),
	})
	if got := evalOn(t, g, `=HLOOKUP("bob",D1:F2,2)`); got.Num != 20 {
		t.Errorf("HLOOKUP = %v", got)
	}
	if got := evalOn(t, g, `=HLOOKUP("zed",D1:F2,2)`); got.Err != ErrNA {
		t.Errorf("HLOOKUP missing = %v", got)
	}
	if got := evalOn(t, g, `=HLOOKUP("ann",D1:F2,9)`); got.Err != ErrRef {
		t.Errorf("HLOOKUP bad row = %v", got)
	}
	if got := evalOn(t, g, `=INDEX(D1:F2,2,3)`); got.Num != 30 {
		t.Errorf("INDEX = %v", got)
	}
	if got := evalOn(t, g, `=INDEX(D2:F2,3)`); got.Num != 30 {
		t.Errorf("INDEX row vector = %v", got)
	}
	if got := evalOn(t, g, `=INDEX(D1:F2,5,1)`); got.Err != ErrRef {
		t.Errorf("INDEX out of range = %v", got)
	}
	if got := evalOn(t, g, `=MATCH("cat",D1:F1,0)`); got.Num != 3 {
		t.Errorf("MATCH = %v", got)
	}
	if got := evalOn(t, g, `=MATCH("zed",D1:F1,0)`); got.Err != ErrNA {
		t.Errorf("MATCH missing = %v", got)
	}
	if got := evalOn(t, g, `=MATCH("ann",D1:F2,0)`); got.Err != ErrNA {
		t.Errorf("MATCH 2D range = %v", got)
	}
	if got := evalOn(t, g, `=INDEX(D1:F1,MATCH("bob",D1:F1,0))`); got.Str != "bob" {
		t.Errorf("INDEX/MATCH = %v", got)
	}
	if got := evalOn(t, g, `=CHOOSE(2,"a","b","c")`); got.Str != "b" {
		t.Errorf("CHOOSE = %v", got)
	}
	if got := evalOn(t, g, `=CHOOSE(9,"a")`); !got.IsError() {
		t.Errorf("CHOOSE out of range = %v", got)
	}
}

func TestTextExtensions(t *testing.T) {
	g := grid(map[string]Value{"A1": Str("spreadsheet")})
	cases := map[string]Value{
		`=MID(A1,7,5)`:                Str("sheet"),
		`=MID(A1,7,99)`:               Str("sheet"),
		`=MID(A1,99,2)`:               Str(""),
		`=FIND("sheet",A1)`:           Num(7),
		`=FIND("e",A1,5)`:             Num(9),
		`=SUBSTITUTE(A1,"sheet","X")`: Str("spreadX"),
		`=REPT("ab",3)`:               Str("ababab"),
		`=EXACT("a","a")`:             Boolean(true),
		`=EXACT("a","A")`:             Boolean(false),
		`=PROPER("heLLo worLD-go")`:   Str("Hello World-Go"),
		`=VALUE("12.5")`:              Num(12.5),
	}
	for src, want := range cases {
		got := evalOn(t, g, src)
		if got.Kind != want.Kind || got.String() != want.String() {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
	if got := evalOn(t, g, `=FIND("zzz",A1)`); !got.IsError() {
		t.Errorf("FIND missing = %v", got)
	}
	if got := evalOn(t, g, `=VALUE("abc")`); !got.IsError() {
		t.Errorf("VALUE non-numeric = %v", got)
	}
}

func TestLogicAndInfoExtensions(t *testing.T) {
	g := grid(map[string]Value{"A1": Str("x"), "A2": Num(3), "A3": Boolean(true)})
	cases := map[string]Value{
		"=XOR(TRUE,FALSE)": Boolean(true),
		"=XOR(TRUE,TRUE)":  Boolean(false),
		"=XOR(1,1,1)":      Boolean(true),
		"=ISTEXT(A1)":      Boolean(true),
		"=ISTEXT(A2)":      Boolean(false),
		"=ISLOGICAL(A3)":   Boolean(true),
		"=ISEVEN(4)":       Boolean(true),
		"=ISEVEN(3)":       Boolean(false),
		"=ISODD(3)":        Boolean(true),
	}
	for src, want := range cases {
		got := evalOn(t, g, src)
		if got.Kind != want.Kind || got.Bool != want.Bool {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
	if got := evalOn(t, g, "=NA()"); got.Err != ErrNA {
		t.Errorf("NA() = %v", got)
	}
	if got := evalOn(t, g, "=TOTALLYUNKNOWN(1)"); got.Err != ErrName {
		t.Errorf("unknown fn = %v", got)
	}
	// An unknown name propagates its arguments' first error, as any
	// builtin does.
	if got := evalOn(t, g, "=NOSUCH(1/0)"); got.Err != ErrDiv0 {
		t.Errorf("unknown fn of an error = %v", got)
	}
}

func TestExtendedFunctionsInRefGraph(t *testing.T) {
	// Extended functions feed dependencies like any other: an INDEX/MATCH
	// pair references both its table and key ranges.
	refs, err := ExtractRefs(`=INDEX($D$1:$F$2,2,MATCH(A1,$D$1:$F$1,0))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 {
		t.Fatalf("refs = %v", refs)
	}
	if refs[0].At != ref.MustRange("D1:F2") || !refs[0].HeadFixed || !refs[0].TailFixed {
		t.Fatalf("table ref = %+v", refs[0])
	}
}

// evalBoth evaluates src at A1 through Eval and through the VM, failing when
// the two differ, and returns the value.
func evalBoth(t *testing.T, g gridResolver, src string) Value {
	t.Helper()
	ast := MustParse(src)
	at := ref.MustCell("A1")
	want, got := Eval(ast, g), Compile(ast, at).EvalAt(g, at)
	if !sameValue(got, want) {
		t.Fatalf("%.60s: VM=%v Eval=%v", src, got, want)
	}
	return want
}

// TestTextCountsCharacters: the text builtins count, cut and find by
// character, so text past ASCII is never split inside a character, and PROPER
// takes any letter for a letter.
func TestTextCountsCharacters(t *testing.T) {
	g := grid(nil)
	for src, want := range map[string]Value{
		`=LEFT("héllo",2)`:     Str("hé"),
		`=RIGHT("héllo",4)`:    Str("éllo"),
		`=MID("héllo",2,1)`:    Str("é"),
		`=LEN("héllo")`:        Num(5),
		`=FIND("l","héllo")`:   Num(3),
		`=PROPER("élan")`:      Str("Élan"),
		`=FIND("l","héllo",4)`: Num(4),
		`=MID("日本語です",3,9)`:    Str("語です"),
	} {
		if got := evalBoth(t, g, src); got != want {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
}

// TestTextHugeCounts: a count or position far past the text's length clamps
// to it (or is #VALUE! for FIND's start) rather than overflowing an int.
func TestTextHugeCounts(t *testing.T) {
	g := grid(nil)
	for src, want := range map[string]Value{
		`=LEFT("abc",1e300)`:     Str("abc"),
		`=RIGHT("abc",1e300)`:    Str("abc"),
		`=MID("abc",2,1e300)`:    Str("bc"),
		`=MID("abc",1e300,1)`:    Str(""),
		`=FIND("a","abc",1e300)`: Error(ErrValue),
		`=REPT("a",1e300)`:       Error(ErrValue),
		`=LEFT("abc",1e308*10)`:  Str("abc"),
		`=FIND("c","abc",3.9)`:   Num(3),
		`=FIND("c","abc",4.5)`:   Error(ErrValue),
		`=FIND("","abc",4)`:      Num(4),
		`=RIGHT("abc",0)`:        Str(""),
	} {
		if got := evalBoth(t, g, src); got != want {
			t.Errorf("%s = %#v, want %#v", src, got, want)
		}
	}
}

// TestComputedTextBounded: text a formula would build past MaxTextBytes is
// #VALUE!, and REPT, SUBSTITUTE, CONCATENATE and & refuse before they build
// it; the dispatcher bounds any other builtin's text. Text of exactly the
// bound is built.
func TestComputedTextBounded(t *testing.T) {
	g := grid(map[string]Value{
		"A1": Str(strings.Repeat("x", 64<<10)),  // 17 of it pass the bound
		"A2": Str(strings.Repeat("x", 1024)),    // SUBSTITUTE by itself: the bound
		"A3": Str(strings.Repeat("x", 1025)),    // and past it
		"A4": Str(strings.Repeat("ɐ", 400_000)), // UPPER grows each letter a byte
	})
	for src, wantLen := range map[string]int{
		`=REPT(A1,16)`:                   MaxTextBytes,
		`=SUBSTITUTE(A2,"x",A2)`:         MaxTextBytes,
		`=REPT(A1,15)&REPT(A1,1)`:        MaxTextBytes,
		`=CONCAT(REPT(A1,8),REPT(A1,8))`: MaxTextBytes,
	} {
		if got := evalBoth(t, g, src); got.Kind != KindString || len(got.Str) != wantLen {
			t.Errorf("%s: %v of %d bytes, want text of %d", src, got.Kind, len(got.Str), wantLen)
		}
	}
	for _, src := range []string{
		`=REPT(A1,17)`,
		`=SUBSTITUTE(A3,"x",A3)`,
		`=REPT(A1,16)&"y"`,
		`=CONCATENATE(REPT(A1,16),1)`,
		`=UPPER(A4)`,
	} {
		if got := evalBoth(t, g, src); got != Error(ErrValue) {
			t.Errorf("%s = %v (%d bytes), want #VALUE!", src, got.Kind, len(got.Str))
		}
	}
	// The refusal builds nothing of the refused text.
	for src, refused := range map[string]uint64{`=REPT(A1,17)`: 17 << 16, `=SUBSTITUTE(A3,"x",A3)`: 1025 * 1025} {
		p, at := Compile(MustParse(src), ref.MustCell("A1")), ref.MustCell("A1")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.EvalAt(g, at)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > refused/16 {
			t.Errorf("%s: refusing %d bytes allocated %d", src, refused, n)
		}
	}
}
