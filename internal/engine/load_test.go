package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/workload"
)

// TestBulkLoadMatchesSequentialWrites: a load orders and deduplicates its
// input as if its cells were written one at a time. Random cell lists of
// numbers, text, booleans and formulas, with every kind of repeated ref (a
// value then a formula, a formula then a value, a formula then another
// shape), shuffled, with cells at ref.MaxA1Col and ref.MaxA1Row, load
// through LoadBulkParsed and, as the sheet the writes leave, through Load
// with the uncompressed graph. After RecalculateAll both match the same
// cells written in turn through SetValue and SetFormulaShape: the cell and
// formula counts, every formula, every value bit for bit, nothing pending,
// and every cell's dependents.
func TestBulkLoadMatchesSequentialWrites(t *testing.T) {
	// The coordinates, column-major, the far corners last: a formula reads
	// only coordinates before its own, so no load holds a cycle.
	var pool []ref.Ref
	for c := 1; c <= 4; c++ {
		for r := 1; r <= 6; r++ {
			pool = append(pool, ref.Ref{Col: c, Row: r})
		}
	}
	pool = append(pool, ref.Ref{Col: ref.MaxA1Col, Row: 1}, ref.Ref{Col: 1, Row: ref.MaxA1Row},
		ref.Ref{Col: ref.MaxA1Col, Row: ref.MaxA1Row - 1}, ref.Ref{Col: ref.MaxA1Col, Row: ref.MaxA1Row})
	type write struct {
		at  ref.Ref
		src string // "" for a value
		v   formula.Value
	}
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// before names a cell before pool[i]; a formula names no column past
		// three letters, so not one at ref.MaxA1Col.
		before := func(i int) string {
			for {
				if at := pool[rng.Intn(i)]; at.Col != ref.MaxA1Col {
					return ref.FormatA1(at)
				}
			}
		}
		// column returns a range of one grid column wholly before pool[i], or
		// a single earlier cell when there is none.
		column := func(i int) string {
			at := pool[i]
			col, last := 1+rng.Intn(4), 6
			if at.Col <= 4 {
				col = 1 + rng.Intn(at.Col)
				if col == at.Col {
					last = at.Row - 1
				}
			}
			if last < 1 {
				return before(i)
			}
			r0 := 1 + rng.Intn(last)
			r1 := r0 + rng.Intn(last-r0+1)
			return ref.FormatA1(ref.Ref{Col: col, Row: r0}) + ":" + ref.FormatA1(ref.Ref{Col: col, Row: r1})
		}
		cell := func(i int, asFormula bool) write {
			w := write{at: pool[i]}
			switch {
			case asFormula && i == 0:
				w.src = "2*3"
			case asFormula:
				w.src = [...]string{
					before(i) + "+1",
					before(i) + "*" + before(i),
					before(i) + `&"t"`,
					"IF(" + before(i) + ">2," + before(i) + `,"no")`,
					"SUM(" + column(i) + ")",
					"-" + before(i),
				}[rng.Intn(6)]
			default:
				w.v = [...]formula.Value{
					formula.Num(float64(rng.Intn(2000)-1000) / 8),
					formula.Str(fmt.Sprintf("s%d", rng.Intn(9))),
					formula.Boolean(rng.Intn(2) == 0),
				}[rng.Intn(3)]
			}
			return w
		}
		var writes []write
		for k := 0; k < 30; k++ {
			writes = append(writes, cell(rng.Intn(len(pool)), rng.Intn(2) == 0))
		}
		// A value and a formula, and two formulas, at one ref each; the
		// shuffle decides which comes later.
		a, b := rng.Intn(len(pool)), rng.Intn(len(pool))
		writes = append(writes, cell(a, false), cell(a, true), cell(b, true), cell(b, true))
		writes = append(writes, cell(len(pool)-1, true), cell(len(pool)-4, false))
		rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })

		seq, sheet := New(nil), workload.NewSheet("writes")
		var pcells []ParsedCell
		for _, w := range writes {
			if w.src == "" {
				seq.SetValue(w.at, w.v)
				sheet.Cells[w.at] = workload.Cell{Value: w.v}
				pcells = append(pcells, ParsedCell{At: w.at, Value: w.v})
				continue
			}
			shape := formula.MustParseShape(w.src, w.at)
			seq.SetFormulaShape(w.at, shape)
			sheet.SetFormula(w.at, w.src)
			pcells = append(pcells, ParsedCell{At: w.at, Shape: shape})
		}
		seq.RecalculateAll()
		uncompressed, err := Load(sheet, NoComp{G: nocomp.NewGraph()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, l := range []struct {
			name string
			e    *Engine
		}{{"LoadBulkParsed", LoadBulkParsed(pcells)}, {"Load(NoComp)", uncompressed}} {
			e := l.e
			e.RecalculateAll()
			if e.NumCells() != seq.NumCells() || e.NumFormulas() != seq.NumFormulas() || e.Pending() != 0 {
				t.Fatalf("seed %d, %s: %d cells, %d formulas, %d pending; the writes leave %d cells, %d formulas",
					seed, l.name, e.NumCells(), e.NumFormulas(), e.Pending(), seq.NumCells(), seq.NumFormulas())
			}
			for _, at := range pool {
				if got, want := e.Formula(at), seq.Formula(at); got != want {
					t.Fatalf("seed %d, %s: %v holds %q, the writes leave %q", seed, l.name, at, got, want)
				}
				if got, want := e.Value(at), seq.Value(at); !sameBits(got, want) {
					t.Fatalf("seed %d, %s: %v = %#v, the writes leave %#v", seed, l.name, at, got, want)
				}
				if got, want := dependentCells(e, at), dependentCells(seq, at); !slices.Equal(got, want) {
					t.Fatalf("seed %d, %s: dependents of %v are %v, the writes leave %v", seed, l.name, at, got, want)
				}
			}
		}
	}
}

// sameBits reports whether two values are one value, a number's bits included.
func sameBits(a, b formula.Value) bool {
	return a.Kind == b.Kind && math.Float64bits(a.Num) == math.Float64bits(b.Num) &&
		a.Str == b.Str && a.Bool == b.Bool && a.Err == b.Err
}

// dependentCells lists the transitive dependents of at, cell by cell,
// column-major: graphs that cut the same cells into other ranges agree.
func dependentCells(e *Engine, at ref.Ref) (cells []ref.Ref) {
	for _, r := range e.Dependents(ref.CellRange(at)) {
		r.Cells(func(c ref.Ref) bool {
			cells = append(cells, c)
			return true
		})
	}
	slices.SortFunc(cells, ref.ColumnMajorCompare)
	return cells
}
