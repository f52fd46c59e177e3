package engine

import (
	"fmt"
	"testing"
	"time"

	"taco/internal/formula"
	"taco/internal/ref"
)

// The evaluation shapes: sheets the engine answers two ways, the path it
// takes and the slower path that path exists to beat.
//
//   - Range shapes: one aggregate over a 10k- or 20k-cell range, resolved
//     through the column slabs' bulk folds (ValueResolver) and through one
//     Value probe per cell.
//   - Pattern shapes: formula columns of shift-identical formulas, re-dirtied
//     by one edit of $F$1 and drained by the levelled scheduler's vectorized
//     run sweeps, and cell by cell on the serial walk with pattern runs off.
//
// BenchmarkEvalShape times both paths of every shape; TestEvalShapesAgree
// holds them equal at a reduced size, since benchmarks do not run under
// go test.

// evalShape is one shape. floor is the least ratio of the slow path's ns/op
// to the fast path's that `make perf-check` accepts, 0 for none: the two
// paths run in one process on one host, so the floor holds on any host.
type evalShape struct {
	name       string
	fast, slow string // the paths' names in the reported metrics
	floor      float64
	// setup builds the sheet with its rows divided by div (1 is the
	// benchmark's size) and returns its two paths.
	setup func(tb testing.TB, div int) evalPaths
}

// evalPaths is one operation of each path of a built shape, and check, which
// fails tb unless the two paths give the same answer.
type evalPaths struct {
	fast, slow func()
	check      func(tb testing.TB)
}

var evalSink formula.Value

// evalF1 is the pattern shapes' $F$1, whose edit re-dirties every formula.
var evalF1 = ref.Ref{Col: 6, Row: 1}

func evalShapes() []evalShape {
	sum := func(grid ref.Range, _ int) string { return fmt.Sprintf("=SUM(%s)", grid) }
	return []evalShape{
		rangeShape("range_sum_dense", 10, 1000, 1, sum),   // 10k cells, all populated
		rangeShape("range_sum_sparse", 10, 1000, 10, sum), // 10k cells, 1 in 10 populated
		rangeShape("range_sum_column", 1, 10000, 1, sum),  // one 10k-row column
		// The conditional folds: SUMIF on a 10k-row column pair, about half
		// of it matching, and SUMPRODUCT on a pair of 2x5000 rectangles.
		rangeShape("range_sumif_column", 2, 10000, 1, func(_ ref.Range, rows int) string {
			return fmt.Sprintf(`=SUMIF(A1:A%d,">%d",B1:B%d)`, rows, rows*7/100, rows)
		}),
		rangeShape("range_sumproduct_rect", 4, 5000, 1, func(_ ref.Range, rows int) string {
			return fmt.Sprintf("=SUMPRODUCT(A1:B%d,C1:D%d)", rows, rows)
		}),
		// The column drain of the compressed graph's RR-chain patterns: two
		// data columns, a scale column off $F$1 and a column combining all
		// three. Both formula columns drain as full-column runs, which skip
		// the walk's per-cell dispatch: 3x is that saving's floor.
		patternShape("pattern_mul_add_column", 3, 100_000, func(tb testing.TB, e *Engine, rows int) {
			e.SetValue(evalF1, formula.Num(1.5))
			for r := 1; r <= rows; r++ {
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)/7))
				e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r%97)+0.5))
				evalSetFormula(tb, e, ref.Ref{Col: 3, Row: r}, fmt.Sprintf("B%d*$F$1", r))
				evalSetFormula(tb, e, ref.Ref{Col: 4, Row: r}, fmt.Sprintf("A%d*B%d+C%d", r, r, r))
			}
		}),
		// A sliding SUMPRODUCT rectangle, each row folding a 10-row window of
		// two columns. Both paths spend their time in the same slab fold, so
		// the shape declares no floor.
		patternShape("pattern_sumproduct_rect", 0, 20_000, func(tb testing.TB, e *Engine, rows int) {
			e.SetValue(evalF1, formula.Num(2))
			for r := 1; r <= rows+10; r++ {
				e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r%13)-3))
				e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r%7)+0.25))
			}
			for r := 1; r <= rows; r++ {
				evalSetFormula(tb, e, ref.Ref{Col: 4, Row: r},
					fmt.Sprintf("SUMPRODUCT(A%d:A%d,B%d:B%d)*$F$1", r, r+9, r, r+9))
			}
		}),
	}
}

// rangeShape is src over a cols×rows block of numbers keeping every
// strideth cell, column by column; src gets the block and its row count.
func rangeShape(name string, cols, rows, stride int, src func(grid ref.Range, rows int) string) evalShape {
	return evalShape{name: name, fast: "bulk", slow: "percell", floor: 2,
		setup: func(tb testing.TB, div int) evalPaths {
			rows := rows / div
			var pcells []ParsedCell
			i := 0
			for col := 1; col <= cols; col++ {
				for row := 1; row <= rows; row++ {
					if i++; i%stride == 0 {
						pcells = append(pcells, ParsedCell{At: ref.Ref{Col: col, Row: row}, Value: formula.Num(float64(col*row) / 7)})
					}
				}
			}
			e := LoadBulkParsed(pcells)
			ast := formula.MustParse(src(ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: cols, Row: rows}}, rows))
			bulk, percell := e.ValueResolver(), formula.ResolverFunc(e.Value)
			return evalPaths{
				fast: func() { evalSink = formula.Eval(ast, bulk) },
				slow: func() { evalSink = formula.Eval(ast, percell) },
				check: func(tb testing.TB) {
					if b, p := formula.Eval(ast, bulk), formula.Eval(ast, percell); b != p || b.Kind != formula.KindNumber || b.Num == 0 {
						tb.Fatalf("%s: bulk = %v, per-cell = %v, want one nonzero number", name, b, p)
					}
				},
			}
		}}
}

// patternShape builds the sheet twice, once drained by the levelled
// scheduler's run sweeps and once pinned to the walk with pattern runs off;
// an operation of either path is one edit of $F$1 and the drain it dirties.
func patternShape(name string, floor float64, rows int, build func(tb testing.TB, e *Engine, rows int)) evalShape {
	return evalShape{name: name, fast: "vectorized", slow: "walk", floor: floor,
		setup: func(tb testing.TB, div int) evalPaths {
			rows := rows / div
			load := func(vectorized bool) *Engine {
				e := New(nil)
				if !vectorized {
					e.SetPatternRuns(false)
					e.SetSerial(true)
				}
				build(tb, e, rows)
				e.RecalculateAll()
				return e
			}
			vec, walk := load(true), load(false)
			drain := func(e *Engine) func() {
				tick := 0.0
				return func() {
					tick++
					e.SetValue(evalF1, formula.Num(tick))
					e.RecalculateAll()
				}
			}
			return evalPaths{
				fast: drain(vec),
				slow: drain(walk),
				check: func(tb testing.TB) {
					for _, e := range []*Engine{vec, walk} {
						e.SetValue(evalF1, formula.Num(42))
						e.RecalculateAll()
					}
					walk.ScanRange(ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: 64, Row: 1 << 20}},
						func(at ref.Ref, v formula.Value, _ string, _ bool) bool {
							if got := vec.Value(at); got != v {
								tb.Fatalf("%s: %v: vectorized = %v, walk = %v", name, at, got, v)
							}
							return true
						})
				},
			}
		}}
}

func evalSetFormula(tb testing.TB, e *Engine, at ref.Ref, src string) {
	if _, err := e.SetFormula(at, src); err != nil {
		tb.Fatalf("%v: %v", at, err)
	}
}

// BenchmarkEvalShape reports, per shape, each path's ns/op, the slow path's
// over the fast path's (speedup) and the shape's floor. Its own ns/op is the
// two paths' sum. `make perf-check` holds speedup to floor; `make eval-pairs`
// compares each path's ns/op against a parent checkout's on the same host.
func BenchmarkEvalShape(b *testing.B) {
	for _, s := range evalShapes() {
		var p *evalPaths
		b.Run(s.name, func(b *testing.B) {
			if p == nil { // built and checked once, reused as b.N grows
				ps := s.setup(b, 1)
				ps.check(b)
				p = &ps
				b.ResetTimer()
			}
			fast, slow := timeOp(b.N, p.fast), timeOp(b.N, p.slow)
			b.ReportMetric(fast, s.fast+"-ns/op")
			b.ReportMetric(slow, s.slow+"-ns/op")
			b.ReportMetric(slow/fast, "speedup")
			b.ReportMetric(s.floor, "floor")
		})
	}
}

// timeOp runs op n times and returns its mean ns.
func timeOp(n int, op func()) float64 {
	start := time.Now()
	for range n {
		op()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// TestEvalShapesAgree builds every BenchmarkEvalShape shape at a twentieth of
// its rows and checks its two paths agree: bulk folds ≡ per-cell probes, and
// the vectorized drain ≡ the walk, cell for cell, with the runs taken.
func TestEvalShapesAgree(t *testing.T) {
	for _, s := range evalShapes() {
		t.Run(s.name, func(t *testing.T) {
			p := s.setup(t, 20)
			runCells := mPatternRunCells.Value()
			p.check(t)
			if s.fast == "vectorized" && mPatternRunCells.Value() == runCells {
				t.Fatal("no cell drained inside a pattern run")
			}
		})
	}
}
