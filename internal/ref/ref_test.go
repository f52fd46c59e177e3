package ref

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestColNameRoundTrip(t *testing.T) {
	cases := map[int]string{
		1: "A", 2: "B", 26: "Z", 27: "AA", 28: "AB", 52: "AZ", 53: "BA",
		702: "ZZ", 703: "AAA", 16384: "XFD",
	}
	for idx, name := range cases {
		if got := ColName(idx); got != name {
			t.Errorf("ColName(%d) = %q, want %q", idx, got, name)
		}
		if got := ColIndex(name); got != idx {
			t.Errorf("ColIndex(%q) = %d, want %d", name, got, idx)
		}
	}
}

func TestColIndexInvalid(t *testing.T) {
	for _, s := range []string{"", "1A", "A1", "@", "a1"} {
		if got := ColIndex(s); got != 0 {
			t.Errorf("ColIndex(%q) = %d, want 0", s, got)
		}
	}
}

func TestColNameLowercaseAccepted(t *testing.T) {
	if got := ColIndex("ab"); got != 28 {
		t.Errorf("ColIndex(ab) = %d, want 28", got)
	}
}

func TestParseA1(t *testing.T) {
	cases := map[string]Ref{
		"A1":     {1, 1},
		"B2":     {2, 2},
		"$B$2":   {2, 2},
		"$C4":    {3, 4},
		"D$5":    {4, 5},
		"AA100":  {27, 100},
		"XFD999": {16384, 999},
	}
	for s, want := range cases {
		got, err := ParseA1(s)
		if err != nil {
			t.Fatalf("ParseA1(%q): %v", s, err)
		}
		if got != want {
			t.Errorf("ParseA1(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestParseA1Flags(t *testing.T) {
	r, cf, rf, err := ParseA1Flags("$B$2")
	if err != nil || r != (Ref{2, 2}) || !cf || !rf {
		t.Fatalf("ParseA1Flags($B$2) = %v %v %v %v", r, cf, rf, err)
	}
	r, cf, rf, err = ParseA1Flags("B$2")
	if err != nil || r != (Ref{2, 2}) || cf || !rf {
		t.Fatalf("ParseA1Flags(B$2) = %v %v %v %v", r, cf, rf, err)
	}
	r, cf, rf, err = ParseA1Flags("$B2")
	if err != nil || r != (Ref{2, 2}) || !cf || rf {
		t.Fatalf("ParseA1Flags($B2) = %v %v %v %v", r, cf, rf, err)
	}
}

func TestParseA1Errors(t *testing.T) {
	for _, s := range []string{"", "1", "A", "A0", "$", "$1", "A1B", "A-1", "1A"} {
		if _, err := ParseA1(s); err == nil {
			t.Errorf("ParseA1(%q): want error", s)
		}
	}
}

func TestParseRangeA1(t *testing.T) {
	g, err := ParseRangeA1("A1:B3")
	if err != nil {
		t.Fatal(err)
	}
	if g.Head != (Ref{1, 1}) || g.Tail != (Ref{2, 3}) {
		t.Errorf("got %v", g)
	}
	// Reversed corners normalise.
	g, err = ParseRangeA1("B3:A1")
	if err != nil {
		t.Fatal(err)
	}
	if g.Head != (Ref{1, 1}) || g.Tail != (Ref{2, 3}) {
		t.Errorf("normalised got %v", g)
	}
	// Single cell.
	g, err = ParseRangeA1("C7")
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCell() || g.Head != (Ref{3, 7}) {
		t.Errorf("cell got %v", g)
	}
	if _, err := ParseRangeA1("A1:"); err == nil {
		t.Error("want error for open range")
	}
	if _, err := ParseRangeA1(":B2"); err == nil {
		t.Error("want error for open range")
	}
}

func TestRangeString(t *testing.T) {
	if s := MustRange("A1:B3").String(); s != "A1:B3" {
		t.Errorf("got %q", s)
	}
	if s := MustRange("C7").String(); s != "C7" {
		t.Errorf("got %q", s)
	}
	if s := MustCell("AB12").String(); s != "AB12" {
		t.Errorf("got %q", s)
	}
}

func TestBound(t *testing.T) {
	a := MustRange("A1:A3")
	b := MustRange("A2:A5")
	got := a.Bound(b)
	if got != MustRange("A1:A5") {
		t.Errorf("Bound = %v, want A1:A5", got)
	}
	// Disjoint ranges still produce the minimal bounding rectangle.
	got = MustRange("A1").Bound(MustRange("C3"))
	if got != MustRange("A1:C3") {
		t.Errorf("Bound = %v, want A1:C3", got)
	}
}

func TestIntersect(t *testing.T) {
	a := MustRange("A1:C3")
	b := MustRange("B2:D4")
	got, ok := a.Intersect(b)
	if !ok || got != MustRange("B2:C3") {
		t.Errorf("Intersect = %v %v", got, ok)
	}
	_, ok = MustRange("A1:A2").Intersect(MustRange("B1:B2"))
	if ok {
		t.Error("disjoint ranges must not intersect")
	}
}

func TestOverlapsAndContains(t *testing.T) {
	g := MustRange("B2:D4")
	if !g.Contains(MustCell("C3")) || g.Contains(MustCell("A1")) {
		t.Error("Contains wrong")
	}
	if !g.ContainsRange(MustRange("B2:C3")) || g.ContainsRange(MustRange("B2:E3")) {
		t.Error("ContainsRange wrong")
	}
	if !g.Overlaps(MustRange("D4:F6")) || g.Overlaps(MustRange("E5:F6")) {
		t.Error("Overlaps wrong")
	}
}

func TestSubtract(t *testing.T) {
	g := MustRange("A1:C3")

	// No overlap: unchanged.
	rest := g.Subtract(MustRange("E5:F6"))
	if len(rest) != 1 || rest[0] != g {
		t.Fatalf("no-overlap subtract = %v", rest)
	}

	// Full cover: empty.
	rest = g.Subtract(MustRange("A1:C3"))
	if len(rest) != 0 {
		t.Fatalf("full-cover subtract = %v", rest)
	}

	// Middle cell: four bands.
	rest = g.Subtract(MustRange("B2"))
	if len(rest) != 4 {
		t.Fatalf("middle subtract = %v", rest)
	}
	checkPartition(t, g, MustRange("B2"), rest)

	// Column-segment subtraction used by removeDep: remove C2 from C1:C4.
	col := MustRange("C1:C4")
	rest = col.Subtract(MustRange("C2"))
	if len(rest) != 2 || rest[0] != MustRange("C1") || rest[1] != MustRange("C3:C4") {
		t.Fatalf("column subtract = %v", rest)
	}
}

func checkPartition(t *testing.T, whole, removed Range, rest []Range) {
	t.Helper()
	// Every remaining cell is in exactly one piece and not in removed.
	count := 0
	whole.Cells(func(c Ref) bool {
		in := 0
		for _, p := range rest {
			if p.Contains(c) {
				in++
			}
		}
		if removed.Contains(c) {
			if in != 0 {
				t.Errorf("cell %v removed but still present", c)
			}
		} else {
			if in != 1 {
				t.Errorf("cell %v appears in %d pieces", c, in)
			}
		}
		count++
		return true
	})
	if count != whole.Size() {
		t.Errorf("iterated %d cells, want %d", count, whole.Size())
	}
}

func TestSubtractAll(t *testing.T) {
	g := MustRange("A1:A10")
	rest := g.SubtractAll(nil, []Range{MustRange("A2:A3"), MustRange("A7")})
	total := 0
	for _, p := range rest {
		total += p.Size()
	}
	if total != 7 {
		t.Errorf("remaining cells = %d, want 7 (%v)", total, rest)
	}
}

func TestAdjacent(t *testing.T) {
	a := MustRange("C1:C3")
	if !a.Adjacent(MustRange("C4"), AxisCol) {
		t.Error("C4 should be column-adjacent below C1:C3")
	}
	if a.Adjacent(MustRange("C5"), AxisCol) {
		t.Error("C5 is not adjacent to C1:C3")
	}
	if a.Adjacent(MustRange("D1"), AxisCol) {
		t.Error("different column is not column-adjacent")
	}
	b := MustRange("B2:D2")
	if !b.Adjacent(MustRange("E2"), AxisRow) || !b.Adjacent(MustRange("A2"), AxisRow) {
		t.Error("row adjacency failed")
	}
	if b.Adjacent(MustRange("E3"), AxisRow) {
		t.Error("different row is not row-adjacent")
	}
}

func TestAxisString(t *testing.T) {
	if AxisCol.String() != "column" || AxisRow.String() != "row" {
		t.Error("axis names wrong")
	}
}

func TestTransposeProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randRange(r))
			}
		},
	}
	// T is an involution and preserves size.
	err := quick.Check(func(g Range) bool {
		return g.T().T() == g && g.T().Size() == g.Size()
	}, cfg)
	if err != nil {
		t.Error(err)
	}
	// Transposition commutes with Bound and Intersect.
	err = quick.Check(func(a, b Range) bool {
		if a.Bound(b).T() != a.T().Bound(b.T()) {
			return false
		}
		x, okX := a.Intersect(b)
		y, okY := a.T().Intersect(b.T())
		if okX != okY {
			return false
		}
		return !okX || x.T() == y
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestSubtractProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		g := randRange(r)
		b := randRange(r)
		rest := g.Subtract(b)
		area := 0
		for j, p := range rest {
			if !p.Valid() {
				t.Fatalf("invalid piece %v from %v - %v", p, g, b)
			}
			area += p.Size()
			for k := j + 1; k < len(rest); k++ {
				if p.Overlaps(rest[k]) {
					t.Fatalf("pieces overlap: %v %v from %v - %v", p, rest[k], g, b)
				}
			}
		}
		cut, ok := g.Intersect(b)
		cutArea := 0
		if ok {
			cutArea = cut.Size()
		}
		if area != g.Size()-cutArea {
			t.Fatalf("area mismatch: %d + %d != %d for %v - %v", area, cutArea, g.Size(), g, b)
		}
	}
}

// TestSubtractAllProperty: the pieces SubtractAll appends are disjoint and
// cover exactly the cells of g that no subtracted range holds, and a dst
// reused across calls keeps its prefix.
func TestSubtractAllProperty(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	var dst []Range
	for i := 0; i < 300; i++ {
		g := randRange(r)
		bs := make([]Range, r.Intn(5))
		for k := range bs {
			bs[k] = randRange(r)
		}
		prefix := randRange(r)
		dst = g.SubtractAll(append(dst[:0], prefix), bs)
		if dst[0] != prefix {
			t.Fatalf("prefix %v overwritten: %v", prefix, dst)
		}
		rest := dst[1:]
		g.Cells(func(c Ref) bool {
			inB := slices.ContainsFunc(bs, func(b Range) bool { return b.Contains(c) })
			n := 0
			for _, p := range rest {
				if p.Contains(c) {
					n++
				}
			}
			if inB && n != 0 || !inB && n != 1 {
				t.Fatalf("%v - %v: cell %v in %d pieces of %v", g, bs, c, n, rest)
			}
			return true
		})
		for _, p := range rest {
			if !g.ContainsRange(p) {
				t.Fatalf("%v - %v: piece %v outside g", g, bs, p)
			}
		}
	}
}

func TestRefOrderAndOffsets(t *testing.T) {
	a := Ref{3, 5}
	b := Ref{1, 2}
	o := a.Sub(b)
	if o != (Offset{2, 3}) || b.Add(o) != a {
		t.Error("Sub/Add mismatch")
	}
	if o.T() != (Offset{3, 2}) {
		t.Error("Offset.T wrong")
	}
	if !b.Before(a) || a.Before(b) {
		t.Error("Before wrong")
	}
	if !(Ref{5, 2}).Before(Ref{1, 3}) {
		t.Error("Before must order by row first")
	}
}

func TestValid(t *testing.T) {
	if (Ref{0, 1}).Valid() || (Ref{1, 0}).Valid() || !(Ref{1, 1}).Valid() {
		t.Error("Ref.Valid wrong")
	}
	if (Range{Ref{2, 2}, Ref{1, 1}}).Valid() {
		t.Error("inverted range must be invalid")
	}
}

func TestCellsEarlyStop(t *testing.T) {
	n := 0
	MustRange("A1:C3").Cells(func(Ref) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Errorf("early stop visited %d cells", n)
	}
}

func randRange(r *rand.Rand) Range {
	a := Ref{1 + r.Intn(12), 1 + r.Intn(12)}
	b := Ref{1 + r.Intn(12), 1 + r.Intn(12)}
	return RangeOf(a, b)
}
