package formula

import (
	"fmt"
	"slices"
	"testing"

	"taco/internal/ref"
)

// TestParseShapeSharesFill: every row of a filled-down column is one shape,
// whose program is the one CompileCached interns for the row's formula, and
// which renders each row's text back.
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
		if s.Program() != CompileCached(MustParse(src), at) {
			t.Fatalf("row %d: the shape's program is not the interned one", row)
		}
		if first == nil {
			first = s
		} else if s != first {
			t.Fatalf("row %d holds another shape than row 2", row)
		}
	}
}

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
		if s.Program() != CompileCached(n, at) {
			t.Errorf("%q: the program is not the interned one", src)
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
	for i := 0; i < 2*(shapeCacheMaxBytes/len(padding)); i++ {
		src := fmt.Sprintf("%d+LEN(\"%s\")", i, padding)
		s, err := ParseShape(src, at)
		if err != nil {
			t.Fatal(err)
		}
		if s.Source(at) != src {
			t.Fatalf("shape %d renders wrong", i)
		}
	}
	shapeCache.RLock()
	defer shapeCache.RUnlock()
	if shapeCache.bytes > shapeCacheMaxBytes {
		t.Fatalf("cache grew to %d bytes (budget %d)", shapeCache.bytes, shapeCacheMaxBytes)
	}
}
