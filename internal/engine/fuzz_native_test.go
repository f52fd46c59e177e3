package engine

import (
	"fmt"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// FuzzRecalcParallel: for any parseable formula dropped into a populated
// sheet, three drains must produce byte-identical values — the pinned-serial
// walk, the default engine drained in fuzz-chosen chunks (RecalculateN(1 +
// chunk) loops, which cut levels, spans and the walk's stack across calls),
// and the recursive resolver the walk replaced (walk_test.go). It is the
// engine-level extension of formula.FuzzEval's bulk≡percell property to the
// scheduler. (The name predates the single-goroutine drain; the corpus
// directory and the fuzz jobs refer to it.) Reference cycles included: the
// sheet carries a look-down chain D1:D40 whose last row reads G20, so a
// formula there that reads D1 closes a cycle under it.
func FuzzRecalcParallel(f *testing.F) {
	seeds := []string{
		"=SUM(A1:A40)+B3",
		"=IF(A2>5,SUM(B1:B20),MAX(A1:A10))",
		"=VLOOKUP(A3,A1:B40,2)",
		"=C1*2",
		"=AVERAGE(C1:C30)&COUNTIF(A1:A40,\">3\")",
		"=IFERROR(1/A5,99)",
		"=E5+1",      // self-reference once placed at E5
		"=((A1:X1))", // a bare range: a graph edge through F1 no evaluation reads
		"=D1+1",      // at G20, a cycle through the whole look-down chain
		"=SUM(D1:D40)-F1",
		"=COUNTIF(D1:D40,\">0\")", // at G20, a scan of the chain its foot reads back
	}
	for i, s := range seeds {
		f.Add(s, uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, src string, chunk uint8) {
		node, err := formula.Parse(src)
		if err != nil {
			return
		}
		// Bound the referenced area: evaluation cost is linear in it for
		// some builtins, and fuzzing wants many small executions.
		area := 0
		for _, r := range formula.Refs(node) {
			area += r.At.Size()
			if area > 1<<20 {
				return
			}
		}
		drain := func(e *Engine, arm string) {
			switch arm {
			case "serial":
				e.RecalculateAll() // pinned: the walk
			case "chunked":
				for e.Pending() > 0 {
					if e.RecalculateN(1+int(chunk)) == 0 {
						t.Fatalf("RecalculateN(%d) made no progress with %d pending", 1+int(chunk), e.Pending())
					}
				}
			default:
				drainRecursive(e)
			}
		}
		build := func(arm string) *Engine {
			e := New(nil)
			if arm == "serial" {
				e.SetRecalcParallelism(1)
			}
			for row := 1; row <= 40; row++ {
				switch row % 4 {
				case 0: // gaps: sparse columns
				case 1:
					e.SetValue(ref.Ref{Col: 1, Row: row}, formula.Num(float64(row)/2))
				case 2:
					e.SetValue(ref.Ref{Col: 2, Row: row}, formula.Str("t"))
				default:
					e.SetValue(ref.Ref{Col: 1, Row: row}, formula.Num(-float64(row)))
					e.SetValue(ref.Ref{Col: 2, Row: row}, formula.Num(float64(row*row)))
				}
			}
			// A formula tier over the data, a look-down chain reading the
			// fuzzed formula at its foot, and padding wide enough to push
			// every drain over the wavefront threshold.
			for row := 1; row <= 40; row++ {
				mustFormula(t, e, fmt.Sprintf("C%d", row), fmt.Sprintf("SUM(A$1:B$%d)+%d", row, row))
				if row < 40 {
					mustFormula(t, e, fmt.Sprintf("D%d", row), fmt.Sprintf("D%d+A%d", row+1, row))
				}
			}
			mustFormula(t, e, "D40", "IFERROR($G$20,2)+1")
			for i := 1; i <= minLevelledDirty; i++ {
				mustFormula(t, e, fmt.Sprintf("H%d", i), fmt.Sprintf("$A$1+%d", i))
			}
			// The fuzzed formula, twice, so it can also feed itself.
			if _, err := e.SetFormula(ref.MustCell("E5"), src); err != nil {
				t.Fatalf("parsed but rejected by SetFormula: %v", err)
			}
			if _, err := e.SetFormula(ref.MustCell("G20"), src); err != nil {
				t.Fatalf("parsed but rejected by SetFormula: %v", err)
			}
			mustFormula(t, e, "F1", "E5+G20")
			drain(e, arm)
			// Re-dirty through the shared input and drain again: the second
			// drain exercises invalidate-driven dirty sets, not load-time ones.
			e.SetValue(ref.MustCell("A1"), formula.Num(17))
			drain(e, arm)
			return e
		}
		serial := build("serial")
		for _, arm := range []string{"chunked", "recursive"} {
			e := build(arm)
			if p := e.Pending(); p != 0 {
				t.Fatalf("%s drain left %d pending", arm, p)
			}
			serial.store.eachColumnMajor(func(at ref.Ref, c cell) error {
				if v := e.Value(at); v != c.value() {
					t.Errorf("%v: serial=%v %s=%v (formula %q, chunk %d)", at, c.value(), arm, v, src, 1+int(chunk))
				}
				return nil
			})
		}
	})
}
