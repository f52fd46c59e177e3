package engine

import (
	"fmt"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// FuzzRecalcParallel: for any parseable formula dropped into a populated
// sheet, the levelled drain must produce byte-identical values to the
// pinned-serial one — the engine-level extension of formula.FuzzEval's
// bulk≡percell property to the scheduler. (The name predates the
// single-goroutine drain; the corpus directory and the fuzz jobs refer to
// it.) Reference cycles included: a levelled drain that stalls on a
// reference cycle hands the rest to the serial resolver, so a cycle's values
// are the reference's too.
func FuzzRecalcParallel(f *testing.F) {
	seeds := []string{
		"=SUM(A1:A40)+B3",
		"=IF(A2>5,SUM(B1:B20),MAX(A1:A10))",
		"=VLOOKUP(A3,A1:B40,2)",
		"=C1*2",
		"=AVERAGE(C1:C30)&COUNTIF(A1:A40,\">3\")",
		"=IFERROR(1/A5,99)",
		"=E5+1",      // self-reference once placed at E5
		"=((A1:X1))", // a bare range: a graph edge through F1 the walker never reads
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
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
		build := func(pinSerial bool) *Engine {
			e := New(nil)
			if pinSerial {
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
			// A formula tier over the data plus padding wide enough to push
			// every drain over the wavefront threshold.
			for row := 1; row <= 40; row++ {
				mustFormula(t, e, fmt.Sprintf("C%d", row), fmt.Sprintf("SUM(A$1:B$%d)+%d", row, row))
			}
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
			e.RecalculateAll()
			// Re-dirty through the shared input and drain again: the second
			// drain exercises invalidate-driven dirty sets, not load-time ones.
			e.SetValue(ref.MustCell("A1"), formula.Num(17))
			e.RecalculateAll()
			return e
		}
		serial := build(true)
		levelled := build(false)
		if p := levelled.Pending(); p != 0 {
			t.Fatalf("levelled drain left %d pending", p)
		}
		serial.store.eachColumnMajor(func(at ref.Ref, c *cell) error {
			if pv := levelled.Value(at); pv != c.value {
				t.Errorf("%v: serial=%v levelled=%v (formula %q)", at, c.value, pv, src)
			}
			return nil
		})
	})
}
