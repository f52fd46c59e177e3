package formula

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"taco/internal/ref"
	"taco/internal/telemetry"
)

// TestParseShapeSharesFill: every row of a filled-down column is one shape,
// whose program is the one Compile makes of the row's formula, and which
// renders each row's text back.
func TestParseShapeSharesFill(t *testing.T) {
	var first *Shape
	for row := 2; row <= 50; row++ {
		at := ref.Ref{Col: 3, Row: row}
		src := fmt.Sprintf("=SUM(A%d:B%d)*$H$1+C%d", row, row+2, row-1)
		s, err := ParseShape(src, at)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Source(at); got != src {
			t.Fatalf("row %d renders %q, want %q", row, got, src)
		}
		if !sameBytes(s.Program(), Compile(MustParse(src), at)) {
			t.Fatalf("row %d: the shape's program is another formula's", row)
		}
		if first == nil {
			first = s
		} else if s != first {
			t.Fatalf("row %d holds another shape than row 2", row)
		}
	}
}

// sameBytes reports whether two programs compile to the same bytes.
func sameBytes(p, q *Program) bool { return string(p.appendKey(nil)) == string(q.appendKey(nil)) }

// TestParseShapeHitAllocatesNothing: a text whose shape is interned is lexed
// into its key and looked up, with no allocation.
func TestParseShapeHitAllocatesNothing(t *testing.T) {
	if _, err := ParseShape("=IF(A7>0,SUM(B1:B7)*$H$1,\"none\")&C7", ref.Ref{Col: 4, Row: 7}); err != nil {
		t.Fatal(err)
	}
	src, at := "=IF(A12>0,SUM(B6:B12)*$H$1,\"none\")&C12", ref.Ref{Col: 4, Row: 12}
	if allocs := testing.AllocsPerRun(100, func() { ParseShape(src, at) }); allocs != 0 {
		t.Fatalf("a cache hit allocates %.1f times, want 0", allocs)
	}
}

// TestShapeRendersSourceExactly: white space, the '=', the spelling of each
// reference and a range written backwards all come back byte for byte, and
// the references and program are the parsed formula's. A spelling the key
// records verbatim (mixed case, a leading zero) is not shared down a fill.
func TestShapeRendersSourceExactly(t *testing.T) {
	at := ref.Ref{Col: 5, Row: 9}
	for _, src := range []string{
		"A1+B2", "  = a1 + b$2 ", "=sum(a1:B9)", "=aB3*2", "=A07", "=$c$3",
		"=B9:A1", "=A$10:A1", "=$A5:B$1", `=IF(A1>0,"x""y",C3)&"A1"`, "=LOG10(A1)", "=A1 (", "=1E5*E5",
	} {
		n, perr := Parse(src)
		s, err := ParseShape(src, at)
		if (perr == nil) != (err == nil) {
			t.Fatalf("%q: Parse says %v, ParseShape %v", src, perr, err)
		}
		if err != nil {
			continue
		}
		if got := s.Source(at); got != src {
			t.Errorf("%q renders %q", src, got)
		}
		if got, want := s.AppendRefs(nil, at), Refs(n); !slices.Equal(got, want) {
			t.Errorf("%q: refs %v, want %v", src, got, want)
		}
		if !sameBytes(s.Program(), Compile(n, at)) {
			t.Errorf("%q: the program is another formula's", src)
		}
	}
	below := ref.Ref{Col: at.Col, Row: at.Row + 1}
	if MustParseShape("=a1*b1", at) != MustParseShape("=a2*b2", below) {
		t.Error("a lowercase fill does not share its shape")
	}
	if MustParseShape("=aB1", at) == MustParseShape("=aB2", below) {
		t.Error("a mixed-case reference shares a shape it cannot render")
	}
}

// TestShapeKeysRangeCorners: a range with one fixed and one relative corner
// on an axis normalises differently on either side of the fixed coordinate,
// so the same text shifted across it is another shape with another program.
func TestShapeKeysRangeCorners(t *testing.T) {
	above, below := ref.Ref{Col: 2, Row: 1}, ref.Ref{Col: 2, Row: 20}
	a, b := MustParseShape("=SUM(A$10:A1)", above), MustParseShape("=SUM(A$10:A20)", below)
	if a == b || a.Program() == b.Program() {
		t.Fatal("the two sides of the fixed corner share a shape")
	}
	for _, c := range []struct {
		s   *Shape
		at  ref.Ref
		src string
	}{{a, above, "=SUM(A$10:A1)"}, {b, below, "=SUM(A$10:A20)"}} {
		if got, want := c.s.AppendRefs(nil, c.at), Refs(MustParse(c.src)); !slices.Equal(got, want) {
			t.Errorf("%s: refs %v, want %v", c.src, got, want)
		}
	}
}

func TestParseCachedErrorsNotCached(t *testing.T) {
	for i := 0; i < 2; i++ {
		if _, err := ParseCached("SUM("); err == nil {
			t.Fatal("want parse error")
		}
		if _, err := ParseShape("SUM(", ref.Ref{Col: 1, Row: 1}); err == nil {
			t.Fatal("want parse error from ParseShape")
		}
	}
	// Where the lexer and the parser would fail at different places, the
	// parser's error is reported, as Parse reports it.
	_, want := Parse("SUM(,)@")
	if _, err := ParseShape("SUM(,)@", ref.Ref{Col: 1, Row: 1}); err == nil || err.Error() != want.Error() {
		t.Fatalf("ParseShape error %v, want %v", err, want)
	}
}

func TestParseCacheBoundedReset(t *testing.T) {
	// Stream more unique shapes than the cache budget: the cache must reset
	// rather than grow without bound, and stay correct throughout.
	padding := make([]byte, 1024)
	for i := range padding {
		padding[i] = 'A'
	}
	at := ref.Ref{Col: 1, Row: 1}
	for i := 0; i < 2*(internBudget/len(padding)); i++ {
		src := fmt.Sprintf("%d+LEN(\"%s\")", i, padding)
		s, err := ParseShape(src, at)
		if err != nil {
			t.Fatal(err)
		}
		if s.Source(at) != src {
			t.Fatalf("shape %d renders wrong", i)
		}
	}
	internTable.RLock()
	defer internTable.RUnlock()
	if internTable.bytes > internBudget {
		t.Fatalf("cache grew to %d bytes (budget %d)", internTable.bytes, internBudget)
	}
}

// TestInternTableCountsWhatItPins: the byte budget counts what the table
// keeps alive. Unique formulas interned into the emptied table grow the live
// heap by what taco_parse_cache_bytes reads, within a quarter, measured every
// 500 formulas up to the last time before the first drop; and that drop comes
// where it came when the budget counted less than the table held, within a
// tenth: after about 33 000 formulas of this form.
func TestInternTableCountsWhatItPins(t *testing.T) {
	at := ref.Ref{Col: 6, Row: 1}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	counted := func() float64 {
		var page bytes.Buffer
		if err := telemetry.Default.WriteText(&page); err != nil {
			t.Fatal(err)
		}
		sc, err := telemetry.ParseText(&page)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := sc.Value("taco_parse_cache_bytes", nil)
		return v
	}
	ResetShapeCache()
	before, drops := heap(), mParseDrops.Value()
	var n, first int
	var live int64
	var count float64
	for ; ; first++ {
		if first%500 == 0 {
			n, live, count = first, heap()-before, counted()
		}
		src := fmt.Sprintf("=A1*%d+SUM(B1:B%d)+IF(C1>%d,D1,E1)*%d", first, 2+first%1000, first, 3+first%7)
		if _, err := ParseShape(src, at); err != nil {
			t.Fatal(err)
		}
		if mParseDrops.Value() != drops {
			break
		}
	}
	t.Logf("first drop after %d formulas; at %d, live heap %d bytes, counted %.0f", first, n, live, count)
	if lo, hi := 33158*9/10, 33158*11/10; first < lo || first > hi {
		t.Errorf("the first drop came after %d formulas, want %d..%d", first, lo, hi)
	}
	if l := float64(live); l < count*3/4 || l > count*5/4 {
		t.Errorf("%d formulas pin %d live bytes, the table counts %.0f", n, live, count)
	}
}

// BenchmarkParseShape: the intern table's three paths — a hit, a miss into
// the emptied table (parse, compile, a shape and a program inserted), and a
// respelled miss, whose program the table already holds (parse, compile, the
// shape inserted with the table's program). Misses run a thousand at a time
// into a table emptied, and primed, with the timer stopped.
func BenchmarkParseShape(b *testing.B) {
	at := ref.Ref{Col: 4, Row: 12}
	form := func(sp string, i int) string {
		return fmt.Sprintf(`=IF(A12>%d,%sSUM(B6:B12)*$H$1,%s"none")&C12`, i, sp, sp)
	}
	b.Run("hit", func(b *testing.B) {
		src := form("", 0)
		MustParseShape(src, at)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ParseShape(src, at)
		}
	})
	misses := func(b *testing.B, sp string, prime bool) {
		srcs := make([]string, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(srcs) == 0 {
				b.StopTimer()
				ResetShapeCache()
				for k := range srcs {
					if srcs[k] = form(sp, i+k); prime {
						MustParseShape(form("", i+k), at)
					}
				}
				b.StartTimer()
			}
			if _, err := ParseShape(srcs[i%len(srcs)], at); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("miss", func(b *testing.B) { misses(b, "", false) })
	b.Run("respelled", func(b *testing.B) { misses(b, " ", true) })
}
