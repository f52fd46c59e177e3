// Command tacoeval measures the evaluation-side hot paths of the engine:
//
//   - Range aggregation: an aggregate over a 10k-cell range resolved
//     through the engine's columnar bulk path (formula.RangeResolver /
//     CondFolder) versus the per-cell CellValue probe path, on dense,
//     sparse, single-column, SUMIF, and SUMPRODUCT-rectangle shapes.
//   - Pattern runs: columns of shift-identical formulas drained through
//     the levelled, run-vectorized scheduler (one interned bytecode program
//     swept across contiguous rows) versus per-cell AST evaluation on the
//     pinned-serial resolver.
//
// Usage:
//
//	tacoeval [-json] [-mintime 300ms]
//
// With -json it emits the BENCH_eval.json report that CI's perf-regression
// job feeds to benchdiff: absolute ns/op per path plus the speedups, which
// are host-independent and therefore the primary gates. A pattern shape
// may carry a min_speedup floor that holds on any host (the column drain
// does: it is algorithmically cheaper than the AST walk).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
)

// Result is one benchmark shape's measurement.
type Result struct {
	Cells       int     `json:"cells"`     // range size
	Populated   int     `json:"populated"` // cells actually stored
	Iters       int     `json:"iters"`
	NsOpBulk    float64 `json:"ns_op_bulk"`
	NsOpPercell float64 `json:"ns_op_percell"`
	Speedup     float64 `json:"speedup"` // percell / bulk
}

// PatternResult is one pattern-run shape's measurement: the same dirtied
// sheet drained with run vectorization on (interned bytecode programs swept
// over contiguous rows against the column slabs) and fully off (per-cell
// AST tree-walk through the serial resolver).
type PatternResult struct {
	Rows  int `json:"rows"`
	Cells int `json:"cells"` // formula cells drained per iteration
	CPUs  int `json:"cpus"`
	Iters int `json:"iters"`
	// NsOpAst is per-cell AST evaluation (pattern runs off, serial drain);
	// NsOpVectorized is the run-batched bytecode drain of the same edit.
	NsOpAst        float64 `json:"ns_op_ast"`
	NsOpVectorized float64 `json:"ns_op_vectorized"`
	Speedup        float64 `json:"speedup"` // ast / vectorized
	// MinSpeedup is the floor benchdiff enforces for this shape, zero for
	// none: where the vectorized drain beats the AST walk by doing less
	// work per cell, the floor binds on any host.
	MinSpeedup float64 `json:"min_speedup,omitempty"`
}

// Report is the BENCH_eval.json schema.
type Report struct {
	Bench    string                   `json:"bench"`
	Config   map[string]any           `json:"config"`
	Results  map[string]Result        `json:"results"`
	Patterns map[string]PatternResult `json:"patterns"`
}

// buildGrid populates a cols×rows block keeping every strideth cell.
func buildGrid(cols, rows, stride int) (*engine.Engine, ref.Range, int) {
	var pcells []engine.ParsedCell
	i := 0
	for col := 1; col <= cols; col++ {
		for row := 1; row <= rows; row++ {
			if i++; i%stride != 0 {
				continue
			}
			pcells = append(pcells, engine.ParsedCell{
				At:    ref.Ref{Col: col, Row: row},
				Value: formula.Num(float64(col*row) / 7),
			})
		}
	}
	e := engine.LoadBulkParsed(pcells)
	rng := ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: cols, Row: rows}}
	return e, rng, len(pcells)
}

// measure times fn until it has run for at least minTime, testing.B-style.
func measure(minTime time.Duration, fn func()) (nsOp float64, iters int) {
	fn() // warm up caches and any lazy state
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed >= minTime {
			return float64(elapsed.Nanoseconds()) / float64(n), n
		}
		if next := n * 4; elapsed <= 0 {
			n = next
		} else {
			// Aim past minTime with 1.5x headroom, capped at 4x growth.
			target := int(float64(n) * 1.5 * float64(minTime) / float64(elapsed))
			if target > n*4 {
				target = n * 4
			}
			if target <= n {
				target = n + 1
			}
			n = target
		}
	}
}

// runShape measures one range-aggregation shape. src, when non-empty, is
// the formula to evaluate instead of the default SUM over the whole grid —
// the hook the SUMIF/SUMPRODUCT shapes use to steer into the conditional
// folds.
func runShape(cols, rows, stride int, src string, minTime time.Duration) Result {
	e, rng, populated := buildGrid(cols, rows, stride)
	if src == "" {
		src = fmt.Sprintf("=SUM(%s)", rng)
	}
	ast := formula.MustParse(src)
	bulkRes := e.ValueResolver()
	percellRes := formula.ResolverFunc(e.Value)
	if b, p := formula.Eval(ast, bulkRes), formula.Eval(ast, percellRes); b != p {
		fmt.Fprintf(os.Stderr, "tacoeval: paths disagree: bulk=%v percell=%v\n", b, p)
		os.Exit(1)
	}
	var r Result
	r.Cells = rng.Size()
	r.Populated = populated
	r.NsOpBulk, r.Iters = measure(minTime, func() { formula.Eval(ast, bulkRes) })
	r.NsOpPercell, _ = measure(minTime, func() { formula.Eval(ast, percellRes) })
	r.Speedup = r.NsOpPercell / r.NsOpBulk
	return r
}

func mustSetFormula(e *engine.Engine, at ref.Ref, src string) {
	if _, err := e.SetFormula(at, src); err != nil {
		fmt.Fprintf(os.Stderr, "tacoeval: %v: %v\n", at, err)
		os.Exit(1)
	}
}

// patternShape is one pattern-run benchmark: a sheet whose formula columns
// are shift-copies of a single template, so the levelled drain can intern
// one bytecode program per column and drain each as a vectorized sweep.
type patternShape struct {
	name       string
	minSpeedup float64
	rows       int
	build      func(e *engine.Engine, rows int)
	dirty      func(e *engine.Engine, v float64)
}

func patternShapes() []patternShape {
	f1 := ref.Ref{Col: 6, Row: 1}
	bumpF1 := func(e *engine.Engine, v float64) {
		e.SetValue(f1, formula.Num(v))
	}
	return []patternShape{
		{
			// The canonical column drain from the compressed graph's
			// RR-chain patterns: two data columns, a scale column off $F$1,
			// and a combine column over all three. Editing F1 re-dirties
			// both formula columns, which the scheduler recovers as two
			// full-column runs — 3x is the algorithmic floor for skipping
			// the per-cell walk + interface dispatch, CPU count regardless.
			name:       "pattern_mul_add_column",
			minSpeedup: 3.0,
			rows:       100_000,
			build: func(e *engine.Engine, rows int) {
				e.SetValue(f1, formula.Num(1.5))
				for r := 1; r <= rows; r++ {
					e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)/7))
					e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r%97)+0.5))
					mustSetFormula(e, ref.Ref{Col: 3, Row: r}, fmt.Sprintf("B%d*$F$1", r))
					mustSetFormula(e, ref.Ref{Col: 4, Row: r}, fmt.Sprintf("A%d*B%d+C%d", r, r, r))
				}
			},
			dirty: bumpF1,
		},
		{
			// A sliding SUMPRODUCT rectangle: every row folds a 10-row
			// window of two columns. The heavy lifting is the slab fold on
			// both paths, so the vectorized margin is only the dispatch
			// around it: no floor, the shape is gated on ns/op alone.
			name: "pattern_sumproduct_rect",
			rows: 20_000,
			build: func(e *engine.Engine, rows int) {
				e.SetValue(f1, formula.Num(2))
				for r := 1; r <= rows+10; r++ {
					e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r%13)-3))
					e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r%7)+0.25))
				}
				for r := 1; r <= rows; r++ {
					mustSetFormula(e, ref.Ref{Col: 4, Row: r},
						fmt.Sprintf("SUMPRODUCT(A%d:A%d,B%d:B%d)*$F$1", r, r+9, r, r+9))
				}
			},
			dirty: bumpF1,
		},
	}
}

// runPatternShape measures one pattern shape: identical engines drained
// with the run-vectorized levelled scheduler and with per-cell AST
// evaluation (pattern runs off, pinned to the serial resolver), verified
// value-identical first.
func runPatternShape(s patternShape, minTime time.Duration) PatternResult {
	build := func(vectorized bool) *engine.Engine {
		e := engine.New(nil)
		if !vectorized {
			e.SetPatternRuns(false)
			e.SetRecalcParallelism(1)
		}
		s.build(e, s.rows)
		e.RecalculateAll()
		return e
	}
	ast := build(false)
	vec := build(true)

	// Equivalence gate: the vectorized drain must stay byte-identical to
	// the per-cell AST walk on every cell it touches.
	s.dirty(ast, 42)
	s.dirty(vec, 42)
	dirty := ast.Pending()
	ast.RecalculateAll()
	vec.RecalculateAll()
	ast.ScanRange(ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: 64, Row: 1 << 20}},
		func(at ref.Ref, v formula.Value, _ string, _ bool) bool {
			if pv := vec.Value(at); pv != v {
				fmt.Fprintf(os.Stderr, "tacoeval: %s: %v ast=%v vectorized=%v\n", s.name, at, v, pv)
				os.Exit(1)
			}
			return true
		})

	var r PatternResult
	r.Rows = s.rows
	r.Cells = dirty
	r.CPUs = runtime.NumCPU()
	r.MinSpeedup = s.minSpeedup
	tick := 0.0
	r.NsOpAst, r.Iters = measure(minTime, func() {
		tick++
		s.dirty(ast, tick)
		ast.RecalculateAll()
	})
	tick = 0
	r.NsOpVectorized, _ = measure(minTime, func() {
		tick++
		s.dirty(vec, tick)
		vec.RecalculateAll()
	})
	r.Speedup = r.NsOpAst / r.NsOpVectorized
	return r
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report")
	minTime := flag.Duration("mintime", 300*time.Millisecond, "minimum measurement time per path")
	flag.Parse()

	shapes := []struct {
		name               string
		cols, rows, stride int
		formula            string // "" = SUM over the whole grid
	}{
		{"range_sum_dense", 10, 1000, 1, ""},   // 10k cells, all populated
		{"range_sum_sparse", 10, 1000, 10, ""}, // 10k cells, 1 in 10 populated
		{"range_sum_column", 1, 10000, 1, ""},  // one 10k-row column
		// Conditional folds: SUMIF on a 10k-row column pair and SUMPRODUCT
		// on a 2x5000 rectangle pair, both resolved through the CondFolder
		// slab folds on the bulk path.
		{"range_sumif_column", 2, 10000, 1, "=SUMIF(A1:A10000,\">700\",B1:B10000)"},
		{"range_sumproduct_rect", 4, 5000, 1, "=SUMPRODUCT(A1:B5000,C1:D5000)"},
	}
	rep := Report{
		Bench: "eval",
		Config: map[string]any{
			"mintime_ms": minTime.Milliseconds(),
		},
		Results:  map[string]Result{},
		Patterns: map[string]PatternResult{},
	}
	for _, s := range shapes {
		rep.Results[s.name] = runShape(s.cols, s.rows, s.stride, s.formula, *minTime)
	}
	pshapes := patternShapes()
	for _, s := range pshapes {
		rep.Patterns[s.name] = runPatternShape(s, *minTime)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "tacoeval:", err)
			os.Exit(1)
		}
		return
	}
	for _, s := range shapes {
		r := rep.Results[s.name]
		fmt.Printf("%-22s %6d cells (%5d populated)  bulk %10.0f ns/op  percell %10.0f ns/op  speedup %.2fx\n",
			s.name, r.Cells, r.Populated, r.NsOpBulk, r.NsOpPercell, r.Speedup)
	}
	for _, s := range pshapes {
		r := rep.Patterns[s.name]
		fmt.Printf("%-22s %6d dirty (%d rows)          ast %12.0f ns/op  vectorized %9.0f ns/op  speedup %.2fx (floor %.2fx)\n",
			s.name, r.Cells, r.Rows, r.NsOpAst, r.NsOpVectorized, r.Speedup, r.MinSpeedup)
	}
}
