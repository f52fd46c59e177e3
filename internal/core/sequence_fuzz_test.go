package core_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"taco/internal/core"
	"taco/internal/nocomp"
	"taco/internal/ref"
)

// FuzzGraphSequence drives a TACO graph and a NoComp graph through one random
// program of formula writes on a small grid: fills down a column or across a
// row in every pattern shape (RR, RR-Chain either way, RF, FR, FF, cells with
// two references, cells that read one cell twice), rewrite-and-restores of one
// cell, clears of one cell and clears of a range that cuts runs anywhere.
// After every step the compressed graph must pass Check, decompress to exactly
// the live dependency multiset, and answer FindDependents and FindPrecedents
// of every cell with NoComp's cell sets — the paper's contract that
// compression changes no answer, held under maintenance. At the end of the
// program the live dependencies, bulk-built in column-major load order, are
// held to the same contract.
func FuzzGraphSequence(f *testing.F) {
	// A ledger in small: C reads its row's A and B and the rate, D is a running
	// balance of C, E a sliding window; then column C's rewrite-and-restores.
	f.Add(seqProgram(
		fillCol(3, 1, seqRows, shapeLedgerC, 0),
		fillCol(4, 1, seqRows, shapeBalance, 0),
		fillCol(5, 1, seqRows, shapeWindow, 0),
		rewriteRestore(3, 5, shapeCell),
		rewriteRestore(3, 2, shapeCell),
		rewriteRestore(3, 5, shapeCell),
		rewriteRestore(3, seqRows, shapeCell),
	))
	// Clear a run's middle cell, then refill it with the same shape.
	f.Add(seqProgram(
		fillCol(2, 1, seqRows, shapeCell, 0),
		clearCell(2, 5),
		fillCol(2, 5, 1, shapeCell, 0),
		fillRow(7, 1, seqCols, shapeChainPrev, 0),
		clearCell(3, 7),
		fillRow(7, 3, 1, shapeChainPrev, 0),
	))
	// One cell read twice: the parallel edge on the merged side is no bridge.
	f.Add(seqProgram(
		fillCol(3, 1, seqRows, shapeTwice, 0),
		clearCell(3, 5),
		fillCol(3, 5, 1, shapeTwice, 0),
		clearRange(3, 4, 3, 6),
		fillCol(3, 4, 3, shapeTwice, 1),
	))
	// A run's edge changed in place, on each axis: a run grown a cell at a
	// time, its end cell cleared (one piece left), a middle cell cleared (two
	// pieces), that cell re-added (the pieces bridged), and a two-cell run
	// cleared down to a Single.
	f.Add(seqProgram(
		fillCol(2, 1, seqRows, shapeCell, 0),
		clearCell(2, seqRows),
		clearCell(2, 5),
		fillCol(2, 5, 1, shapeCell, 0),
		fillCol(4, 1, 2, shapeFixed, 0),
		clearCell(4, 2),
	))
	f.Add(seqProgram(
		fillRow(2, 1, seqCols, shapeCell, 0),
		clearCell(seqCols, 2),
		clearCell(3, 2),
		fillRow(2, 3, 1, shapeCell, 0),
		fillRow(6, 1, 2, shapeFixed, 0),
		clearCell(2, 6),
	))
	// Every shape once down a column and once across a row, installed
	// bottom-up, then a range clear cutting all of them.
	var every [][]byte
	for s := 0; s < numShapes; s++ {
		every = append(every, fillCol(1+s%seqCols, 1, seqRows, s, 1), fillRow(1+s%seqRows, 1, seqCols, s, 0))
	}
	f.Add(seqProgram(append(every, clearRange(2, 3, 5, 8))...))

	f.Fuzz(func(t *testing.T, program []byte) {
		s := seqState{
			taco: core.NewGraph(core.DefaultOptions()),
			nc:   nocomp.NewGraph(),
			live: map[ref.Ref][]core.Dependency{},
		}
		in := seqReader{data: program}
		for op := 0; op < seqMaxOps && len(in.data) > 0; op++ {
			switch kind := in.next() % numOps; kind {
			case opFillCol, opFillRow:
				axis := ref.AxisCol
				if kind == opFillRow {
					axis = ref.AxisRow
				}
				at := ref.Ref{Col: 1 + in.next()%seqCols, Row: 1 + in.next()%seqRows}
				n, shape, reversed := 1+in.next()%seqRows, in.next()%numShapes, in.next()%2 == 1
				var line []ref.Ref
				for i := 0; i < n && at.Col <= seqCols && at.Row <= seqRows; i++ {
					line = append(line, at)
					at = step(at, axis, 1)
				}
				for i := range line {
					if reversed {
						i = len(line) - 1 - i
					}
					s.set(t, line[i], shapeDeps(shape, line[i], axis), fmt.Sprintf("fill %v %v shape %d", line[i], axis, shape))
				}
			case opClearCell:
				at := ref.Ref{Col: 1 + in.next()%seqCols, Row: 1 + in.next()%seqRows}
				s.clear(t, ref.CellRange(at))
			case opClearRange:
				a := ref.Ref{Col: 1 + in.next()%seqCols, Row: 1 + in.next()%seqRows}
				b := ref.Ref{Col: 1 + in.next()%seqCols, Row: 1 + in.next()%seqRows}
				s.clear(t, ref.RangeOf(a, b))
			case opRewriteRestore:
				at := ref.Ref{Col: 1 + in.next()%seqCols, Row: 1 + in.next()%seqRows}
				shape := in.next() % numShapes
				old := s.live[at]
				s.set(t, at, shapeDeps(shape, at, ref.AxisCol), fmt.Sprintf("rewrite %v shape %d", at, shape))
				s.set(t, at, old, fmt.Sprintf("restore %v", at))
			}
		}
		cells := slices.SortedFunc(maps.Keys(s.live), ref.ColumnMajorCompare)
		var deps []core.Dependency
		for _, at := range cells {
			deps = append(deps, s.live[at]...)
		}
		s.log = append(s.log, "bulk build")
		s.check(t, core.BuildBulk(deps, core.DefaultOptions()))
	})
}

const (
	seqCols   = 6
	seqRows   = 10
	seqMaxOps = 32
)

// Operations of a program, one byte each, followed by their arguments.
const (
	opFillCol = iota
	opFillRow
	opClearCell
	opClearRange
	opRewriteRestore
	numOps
)

// Formula shapes. A fill writes one shape at every cell of its line, each
// cell's references shifted with it, so a fill down a column and one across
// a row build the same patterns transposed.
const (
	shapeWindow    = iota // RR: a two-cell window on the previous line
	shapeCell             // RR: the cell beside, as A[r] in C[r] = A[r]*2
	shapeChainPrev        // RR-Chain: the cell before along the fill
	shapeChainNext        // RR-Chain: the cell after along the fill
	shapeShrink           // RF: from the cell beside to the end of its line
	shapeExpand           // FR: from the start of the beside line to the cell beside
	shapeFixed            // FF: $A$1:$B$2
	shapeLedgerC          // two lines back, the cell beside, and the rate
	shapeTwice            // the cell beside, read twice
	shapeBalance          // the cell before plus the cell beside
	shapeSelf             // the cell itself
	shapeNext             // the cell on the line after: RR the other way
	numShapes
)

// seqRate is the fixed cell every shapeLedgerC cell reads.
var seqRate = ref.Ref{Col: seqCols + 1, Row: 1}

// step moves n cells along the axis.
func step(at ref.Ref, axis ref.Axis, n int) ref.Ref {
	if axis == ref.AxisCol {
		return ref.Ref{Col: at.Col, Row: at.Row + n}
	}
	return ref.Ref{Col: at.Col + n, Row: at.Row}
}

// shapeDeps returns the dependencies of shape written at at by a fill along
// axis, in the formula's reference order. References off the sheet are
// dropped.
func shapeDeps(shape int, at ref.Ref, axis ref.Axis) []core.Dependency {
	// rel is the cell along steps down the fill and across lines beside it;
	// end is the cell across lines beside it at the last position of the
	// grid along the fill, start the one at the first.
	rel := func(along, across int) ref.Ref {
		if axis == ref.AxisCol {
			return ref.Ref{Col: at.Col + across, Row: at.Row + along}
		}
		return ref.Ref{Col: at.Col + along, Row: at.Row + across}
	}
	end, start := rel(seqRows-at.Row, -1), rel(1-at.Row, -1)
	if axis == ref.AxisRow {
		end, start = rel(seqCols-at.Col, -1), rel(1-at.Col, -1)
	}
	var out []core.Dependency
	add := func(a, b ref.Ref, headFixed, tailFixed bool) {
		if a.Valid() && b.Valid() {
			out = append(out, core.Dependency{Prec: ref.RangeOf(a, b), Dep: at, HeadFixed: headFixed, TailFixed: tailFixed})
		}
	}
	cell := func(c ref.Ref) { add(c, c, false, false) }
	switch shape {
	case shapeWindow:
		add(rel(-1, -1), rel(0, -1), false, false)
	case shapeCell:
		cell(rel(0, -1))
	case shapeChainPrev:
		cell(rel(-1, 0))
	case shapeChainNext:
		cell(rel(1, 0))
	case shapeShrink:
		add(rel(0, -1), end, false, true)
	case shapeExpand:
		add(start, rel(0, -1), true, false)
	case shapeFixed:
		add(ref.Ref{Col: 1, Row: 1}, ref.Ref{Col: 2, Row: 2}, true, true)
	case shapeLedgerC:
		cell(rel(0, -2))
		cell(rel(0, -1))
		add(seqRate, seqRate, true, true)
	case shapeTwice:
		cell(rel(0, -1))
		cell(rel(0, -1))
	case shapeBalance:
		cell(rel(-1, 0))
		cell(rel(0, -1))
	case shapeSelf:
		cell(at)
	case shapeNext:
		cell(rel(0, 1))
	}
	return out
}

// seqState is the pair of graphs under test and the model both must match:
// the live dependencies of every formula cell, in insertion order.
type seqState struct {
	taco *core.Graph
	nc   *nocomp.Graph
	live map[ref.Ref][]core.Dependency
	log  []string
}

// set writes a formula the way the engine does: clear the cell's old
// dependencies, then add the new formula's one by one.
func (s *seqState) set(t *testing.T, at ref.Ref, deps []core.Dependency, what string) {
	cell := ref.CellRange(at)
	s.taco.Clear(cell)
	s.nc.Clear(cell)
	delete(s.live, at)
	for _, d := range deps {
		s.taco.AddDependency(d)
		s.nc.AddDependency(d)
	}
	if len(deps) > 0 {
		s.live[at] = deps
	}
	s.log = append(s.log, what)
	s.check(t, s.taco)
}

func (s *seqState) clear(t *testing.T, r ref.Range) {
	s.taco.Clear(r)
	s.nc.Clear(r)
	for at := range s.live {
		if r.Contains(at) {
			delete(s.live, at)
		}
	}
	s.log = append(s.log, fmt.Sprintf("clear %v", r))
	s.check(t, s.taco)
}

type depKey struct {
	prec ref.Range
	dep  ref.Ref
}

// check holds g, the TACO graph or one bulk-built from the live
// dependencies, to the model and to NoComp.
func (s *seqState) check(t *testing.T, g *core.Graph) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after %s:\n%s\nedges:\n%s", strings.Join(s.log, "; "), fmt.Sprintf(format, args...), edgeList(g))
	}
	if err := g.Check(); err != nil {
		fail("Check: %v", err)
	}
	want := map[depKey]int{}
	n := 0
	for _, deps := range s.live {
		for _, d := range deps {
			want[depKey{d.Prec, d.Dep}]++
			n++
		}
	}
	if got := g.NumDependencies(); got != n {
		fail("NumDependencies %d, live dependencies %d", got, n)
	}
	for _, d := range g.Dependencies() {
		k := depKey{d.Prec, d.Dep}
		if want[k] == 0 {
			fail("Dependencies holds %v -> %v beyond the live ones", d.Prec, d.Dep)
		}
		want[k]--
	}
	for k, left := range want {
		if left != 0 {
			fail("Dependencies misses %v -> %v (%d times)", k.prec, k.dep, left)
		}
	}
	for col := 1; col <= seqCols+1; col++ {
		for row := 1; row <= seqRows+1; row++ {
			q := ref.CellRange(ref.Ref{Col: col, Row: row})
			if got, want := cellSet(g.FindDependents(q)), cellSet(s.nc.FindDependents(q)); !sameCells(got, want) {
				fail("FindDependents(%v): TACO %v, NoComp %v", q, got, want)
			}
			if got, want := cellSet(g.FindPrecedents(q)), cellSet(s.nc.FindPrecedents(q)); !sameCells(got, want) {
				fail("FindPrecedents(%v): TACO %v, NoComp %v", q, got, want)
			}
		}
	}
}

// cellSet expands a traversal's ranges; a cell counted twice (ranges that
// overlap, against the traversal's contract) is kept with its count.
func cellSet(rs []ref.Range) map[ref.Ref]int {
	out := map[ref.Ref]int{}
	for _, r := range rs {
		r.Cells(func(c ref.Ref) bool {
			out[c]++
			return true
		})
	}
	return out
}

func sameCells(a, b map[ref.Ref]int) bool {
	if len(a) != len(b) {
		return false
	}
	for c, n := range a {
		if n != 1 || b[c] != 1 {
			return false
		}
	}
	return true
}

func edgeList(g *core.Graph) string {
	var b strings.Builder
	g.Edges(func(e *core.Edge) bool {
		fmt.Fprintf(&b, "  %v\n", e)
		return true
	})
	return b.String()
}

type seqReader struct{ data []byte }

// next consumes one byte; an exhausted program reads zeros.
func (r *seqReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// Program encoders for the seed corpus: cells are 1-based, as on the sheet.
func fillCol(col, row, n, shape, reversed int) []byte {
	return []byte{opFillCol, byte(col - 1), byte(row - 1), byte(n - 1), byte(shape), byte(reversed)}
}

func fillRow(row, col, n, shape, reversed int) []byte {
	return []byte{opFillRow, byte(col - 1), byte(row - 1), byte(n - 1), byte(shape), byte(reversed)}
}

func clearCell(col, row int) []byte { return []byte{opClearCell, byte(col - 1), byte(row - 1)} }

func clearRange(col0, row0, col1, row1 int) []byte {
	return []byte{opClearRange, byte(col0 - 1), byte(row0 - 1), byte(col1 - 1), byte(row1 - 1)}
}

func rewriteRestore(col, row, shape int) []byte {
	return []byte{opRewriteRestore, byte(col - 1), byte(row - 1), byte(shape)}
}

func seqProgram(ops ...[]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}
