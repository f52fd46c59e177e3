// Package ref provides the cell and range geometry underlying spreadsheet
// formula graphs: positions in the tabular layout, A1-style notation,
// rectangular ranges with bounding union (the paper's ⨁ operator),
// intersection, containment, rectangle subtraction, and transposition.
//
// Columns and rows are 1-based, matching spreadsheet conventions: cell A1 is
// (Col 1, Row 1). A Range is identified by its top-left (Head) and
// bottom-right (Tail) cells, like the paper's head/tail terminology.
package ref

import (
	"errors"
	"fmt"
	"strings"
)

// Ref is the position of a single cell: column and row indices, both 1-based.
type Ref struct {
	Col int
	Row int
}

// Offset is a relative displacement between two cells, as used by the RR/RF/FR
// pattern metadata (the paper's (p, q) pairs: p = column distance, q = row
// distance).
type Offset struct {
	DCol int
	DRow int
}

// Add returns r displaced by o.
func (r Ref) Add(o Offset) Ref { return Ref{r.Col + o.DCol, r.Row + o.DRow} }

// Sub returns the offset from b to r, i.e. r = b.Add(r.Sub(b)).
func (r Ref) Sub(b Ref) Offset { return Offset{r.Col - b.Col, r.Row - b.Row} }

// T transposes the reference, swapping column and row. Transposition lets all
// pattern algorithms be written once for the column-major orientation.
func (r Ref) T() Ref { return Ref{r.Row, r.Col} }

// T transposes the offset.
func (o Offset) T() Offset { return Offset{o.DRow, o.DCol} }

// Valid reports whether the reference lies in the spreadsheet space
// (both indices >= 1).
func (r Ref) Valid() bool { return r.Col >= 1 && r.Row >= 1 }

// Before reports whether r precedes b in row-major order. It provides a total
// order used for deterministic iteration and testing.
func (r Ref) Before(b Ref) bool {
	if r.Row != b.Row {
		return r.Row < b.Row
	}
	return r.Col < b.Col
}

// String renders the cell in A1 notation.
func (r Ref) String() string { return FormatA1(r) }

// ColumnMajorCompare orders cells column by column, top to bottom — the
// load order that hands the bulk compressor its adjacent runs and that
// keeps snapshots deterministic. Every sorter feeding either path must use
// it (directly or via ColumnMajorLess) so the orderings cannot diverge.
func ColumnMajorCompare(a, b Ref) int {
	if a.Col != b.Col {
		return a.Col - b.Col
	}
	return a.Row - b.Row
}

// ColumnMajorLess is ColumnMajorCompare as a less function.
func ColumnMajorLess(a, b Ref) bool { return ColumnMajorCompare(a, b) < 0 }

// Range is a rectangular region of cells identified by its top-left (Head)
// and bottom-right (Tail) corners, inclusive on all sides.
type Range struct {
	Head Ref
	Tail Ref
}

// RangeOf returns the range with the given corners normalised so that Head is
// the top-left and Tail the bottom-right.
func RangeOf(a, b Ref) Range {
	return Range{
		Head: Ref{minInt(a.Col, b.Col), minInt(a.Row, b.Row)},
		Tail: Ref{maxInt(a.Col, b.Col), maxInt(a.Row, b.Row)},
	}
}

// CellRange returns the 1x1 range holding a single cell.
func CellRange(r Ref) Range { return Range{r, r} }

// Valid reports whether the range is a well-formed rectangle inside the
// spreadsheet space.
func (g Range) Valid() bool {
	return g.Head.Valid() && g.Head.Col <= g.Tail.Col && g.Head.Row <= g.Tail.Row
}

// IsCell reports whether the range covers exactly one cell.
func (g Range) IsCell() bool { return g.Head == g.Tail }

// Cols returns the number of columns spanned.
func (g Range) Cols() int { return g.Tail.Col - g.Head.Col + 1 }

// Rows returns the number of rows spanned.
func (g Range) Rows() int { return g.Tail.Row - g.Head.Row + 1 }

// Size returns the number of cells in the range.
func (g Range) Size() int { return g.Cols() * g.Rows() }

// T transposes the range (reflection across the main diagonal).
func (g Range) T() Range { return Range{g.Head.T(), g.Tail.T()} }

// Shift returns the range displaced by o.
func (g Range) Shift(o Offset) Range { return Range{g.Head.Add(o), g.Tail.Add(o)} }

// Contains reports whether cell r lies inside the range.
func (g Range) Contains(r Ref) bool {
	return r.Col >= g.Head.Col && r.Col <= g.Tail.Col &&
		r.Row >= g.Head.Row && r.Row <= g.Tail.Row
}

// ContainsRange reports whether the whole of b lies inside g.
func (g Range) ContainsRange(b Range) bool {
	return g.Contains(b.Head) && g.Contains(b.Tail)
}

// Overlaps reports whether the two ranges share at least one cell.
func (g Range) Overlaps(b Range) bool {
	return g.Head.Col <= b.Tail.Col && b.Head.Col <= g.Tail.Col &&
		g.Head.Row <= b.Tail.Row && b.Head.Row <= g.Tail.Row
}

// Intersect returns the common sub-rectangle of g and b. ok is false when the
// ranges do not overlap.
func (g Range) Intersect(b Range) (Range, bool) {
	if !g.Overlaps(b) {
		return Range{}, false
	}
	return Range{
		Head: Ref{maxInt(g.Head.Col, b.Head.Col), maxInt(g.Head.Row, b.Head.Row)},
		Tail: Ref{minInt(g.Tail.Col, b.Tail.Col), minInt(g.Tail.Row, b.Tail.Row)},
	}, true
}

// Bound returns the minimal bounding range of g and b — the paper's ⨁
// operator used to merge precedents and dependents of compressed edges.
func (g Range) Bound(b Range) Range {
	return Range{
		Head: Ref{minInt(g.Head.Col, b.Head.Col), minInt(g.Head.Row, b.Head.Row)},
		Tail: Ref{maxInt(g.Tail.Col, b.Tail.Col), maxInt(g.Tail.Row, b.Tail.Row)},
	}
}

// Subtract removes b from g, returning the remaining region as a list of at
// most four disjoint rectangles (top, bottom, left, right bands). If the
// ranges do not overlap the result is {g}; if b covers g the result is empty.
// This is the primitive behind removeDep and the visited-set bookkeeping of
// the compressed BFS.
func (g Range) Subtract(b Range) []Range {
	return g.appendSubtract(nil, b)
}

// appendSubtract appends the bands of Subtract(b) to dst.
func (g Range) appendSubtract(dst []Range, b Range) []Range {
	cut, ok := g.Intersect(b)
	if !ok {
		return append(dst, g)
	}
	// Top band: rows above the cut.
	if cut.Head.Row > g.Head.Row {
		dst = append(dst, Range{
			Head: g.Head,
			Tail: Ref{g.Tail.Col, cut.Head.Row - 1},
		})
	}
	// Bottom band: rows below the cut.
	if cut.Tail.Row < g.Tail.Row {
		dst = append(dst, Range{
			Head: Ref{g.Head.Col, cut.Tail.Row + 1},
			Tail: g.Tail,
		})
	}
	// Left band: columns left of the cut, limited to the cut's rows.
	if cut.Head.Col > g.Head.Col {
		dst = append(dst, Range{
			Head: Ref{g.Head.Col, cut.Head.Row},
			Tail: Ref{cut.Head.Col - 1, cut.Tail.Row},
		})
	}
	// Right band: columns right of the cut, limited to the cut's rows.
	if cut.Tail.Col < g.Tail.Col {
		dst = append(dst, Range{
			Head: Ref{cut.Tail.Col + 1, cut.Head.Row},
			Tail: Ref{g.Tail.Col, cut.Tail.Row},
		})
	}
	return dst
}

// SubtractAll removes every range in bs from g and appends the remaining
// disjoint rectangles to dst. It works in dst's spare capacity only, so a
// caller that keeps dst across calls subtracts without allocating.
func (g Range) SubtractAll(dst, bs []Range) []Range {
	base := len(dst)
	dst = append(dst, g)
	for _, b := range bs {
		end := len(dst)
		for i := base; i < end; i++ {
			dst = dst[i].appendSubtract(dst, b)
		}
		dst = append(dst[:base], dst[end:]...)
		if len(dst) == base {
			break
		}
	}
	return dst
}

// Cells calls fn for every cell in the range in row-major order. It stops
// early if fn returns false.
func (g Range) Cells(fn func(Ref) bool) {
	for row := g.Head.Row; row <= g.Tail.Row; row++ {
		for col := g.Head.Col; col <= g.Tail.Col; col++ {
			if !fn(Ref{col, row}) {
				return
			}
		}
	}
}

// String renders the range in A1 notation ("A1" for single cells, "A1:B3"
// otherwise).
func (g Range) String() string {
	if g.IsCell() {
		return FormatA1(g.Head)
	}
	return FormatA1(g.Head) + ":" + FormatA1(g.Tail)
}

// Adjacent reports whether b touches g along the given axis without
// overlapping: for AxisCol, b is directly above or below g; for AxisRow,
// directly left or right.
func (g Range) Adjacent(b Range, axis Axis) bool {
	if axis == AxisCol {
		sameCols := g.Head.Col == b.Head.Col && g.Tail.Col == b.Tail.Col
		return sameCols && (b.Head.Row == g.Tail.Row+1 || b.Tail.Row == g.Head.Row-1)
	}
	sameRows := g.Head.Row == b.Head.Row && g.Tail.Row == b.Tail.Row
	return sameRows && (b.Head.Col == g.Tail.Col+1 || b.Tail.Col == g.Head.Col-1)
}

// Axis identifies the orientation along which a run of formula cells is
// compressed: AxisCol for a vertical run within one column (the paper's
// default presentation), AxisRow for a horizontal run within one row.
type Axis uint8

const (
	// AxisCol compresses adjacent formula cells stacked in a column.
	AxisCol Axis = iota
	// AxisRow compresses adjacent formula cells laid out in a row.
	AxisRow
)

// String returns a human-readable axis name.
func (a Axis) String() string {
	if a == AxisCol {
		return "column"
	}
	return "row"
}

// ErrBadA1 is returned by ParseA1/ParseRangeA1 for malformed notation.
var ErrBadA1 = errors.New("ref: malformed A1 notation")

// MaxA1Row and MaxA1Col bound parseable references. Spreadsheets bound both
// axes (far below these), and the caps keep the cell space overflow-safe:
// the digit and letter accumulation loops below would otherwise wrap on
// adversarial inputs like a 600-digit row number, producing coordinates
// near MaxInt64 whose range iteration never terminates.
const (
	MaxA1Row = 1 << 30
	MaxA1Col = 1 << 20
)

// FormatA1 renders a cell reference in A1 notation (e.g. {1,1} -> "A1",
// {28,12} -> "AB12").
func FormatA1(r Ref) string {
	return ColName(r.Col) + itoa(r.Row)
}

// ColName converts a 1-based column index to its spreadsheet letters:
// 1 -> "A", 26 -> "Z", 27 -> "AA".
func ColName(col int) string {
	if col < 1 {
		return "?"
	}
	var buf [8]byte
	i := len(buf)
	for col > 0 {
		col--
		i--
		buf[i] = byte('A' + col%26)
		col /= 26
	}
	return string(buf[i:])
}

// ColIndex converts spreadsheet column letters to a 1-based index:
// "A" -> 1, "Z" -> 26, "AA" -> 27. It returns 0 for invalid input.
func ColIndex(name string) int {
	col := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c < 'A' || c > 'Z' {
			return 0
		}
		col = col*26 + int(c-'A'+1)
		if col > MaxA1Col {
			return 0
		}
	}
	return col
}

// ParseA1 parses a single-cell A1 reference, accepting and ignoring `$`
// absolute markers ("$B$2" parses as B2).
func ParseA1(s string) (Ref, error) {
	r, _, _, err := ParseA1Flags(s)
	return r, err
}

// ParseA1Flags parses a single-cell A1 reference and reports whether the
// column and row carried `$` absolute markers. The markers are the autofill
// cues the greedy compressor's heuristics consume (Sec. IV-A).
func ParseA1Flags(s string) (r Ref, colFixed, rowFixed bool, err error) {
	i := 0
	if i < len(s) && s[i] == '$' {
		colFixed = true
		i++
	}
	j := i
	for j < len(s) && isLetter(s[j]) {
		j++
	}
	if j == i {
		return Ref{}, false, false, fmt.Errorf("%w: %q", ErrBadA1, s)
	}
	col := ColIndex(s[i:j])
	if col == 0 {
		return Ref{}, false, false, fmt.Errorf("%w: %q", ErrBadA1, s)
	}
	i = j
	if i < len(s) && s[i] == '$' {
		rowFixed = true
		i++
	}
	j = i
	row := 0
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		row = row*10 + int(s[j]-'0')
		if row > MaxA1Row {
			return Ref{}, false, false, fmt.Errorf("%w: %q", ErrBadA1, s)
		}
		j++
	}
	if j == i || j != len(s) || row == 0 {
		return Ref{}, false, false, fmt.Errorf("%w: %q", ErrBadA1, s)
	}
	return Ref{col, row}, colFixed, rowFixed, nil
}

// ParseRangeA1 parses "A1" or "A1:B3" (with optional `$` markers) into a
// normalised Range.
func ParseRangeA1(s string) (Range, error) {
	if k := strings.IndexByte(s, ':'); k >= 0 {
		a, err := ParseA1(s[:k])
		if err != nil {
			return Range{}, err
		}
		b, err := ParseA1(s[k+1:])
		if err != nil {
			return Range{}, err
		}
		return RangeOf(a, b), nil
	}
	a, err := ParseA1(s)
	if err != nil {
		return Range{}, err
	}
	return CellRange(a), nil
}

// MustRange parses a range in A1 notation and panics on error. Intended for
// tests and examples.
func MustRange(s string) Range {
	g, err := ParseRangeA1(s)
	if err != nil {
		panic(err)
	}
	return g
}

// MustCell parses a cell in A1 notation and panics on error. Intended for
// tests and examples.
func MustCell(s string) Ref {
	r, err := ParseA1(s)
	if err != nil {
		panic(err)
	}
	return r
}

func isLetter(c byte) bool {
	return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
