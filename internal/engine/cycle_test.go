package engine

import (
	"bytes"
	"fmt"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// A reference cycle has one semantics, the serial resolver's, whichever path
// drains it: these sheets hold values that depend on the cell a drain enters
// the cycle by, and each must come out bit-identical to a pinned-serial twin
// however many other cells the edit dirtied and whatever the budget.

// TestCycleValuesIndependentOfDrainPath: a guarded self-reference, whose
// guard never takes the looping branch, and a cycle its own entry cell
// rescues, each bare (a dirty set the serial resolver drains) and padded
// past minLevelledDirty (one the levelled drain stalls on).
func TestCycleValuesIndependentOfDrainPath(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells [][2]string
		at    string
		want  float64 // at's value while Z1 is positive
	}{
		{"guarded_self_reference", [][2]string{{"B1", "IF($Z$1>0,10,C1)"}, {"C1", "B1+1"}}, "B1", 10},
		{"in_cycle_rescue", [][2]string{{"D1", "IFERROR(E1,5)"}, {"E1", "D1+1"}}, "D1", 5},
	} {
		for _, pad := range []int{0, 2 * minLevelledDirty} {
			t.Run(fmt.Sprintf("%s/pad_%d", tc.name, pad), func(t *testing.T) {
				build := func(e *Engine) {
					e.SetValue(ref.MustCell("Z1"), formula.Num(1))
					for _, c := range tc.cells {
						mustFormula(t, e, c[0], c[1])
					}
					for r := 1; r <= pad; r++ {
						mustFormula(t, e, fmt.Sprintf("J%d", r), fmt.Sprintf("$Z$1+%d", r))
					}
				}
				serial, e := New(nil), New(nil)
				serial.SetSerial(true)
				build(serial)
				build(e)
				// The load drains, then an edit that keeps the guard and one
				// that flips it.
				for _, z := range []float64{0, 2, -1} {
					for _, eng := range []*Engine{serial, e} {
						if z != 0 {
							eng.SetValue(ref.MustCell("Z1"), formula.Num(z))
						}
						eng.RecalculateAll()
					}
					enginesEqual(t, serial, e)
					if v := e.Value(ref.MustCell(tc.at)); z >= 0 && v != formula.Num(tc.want) {
						t.Fatalf("Z1=%v: %s = %v, want %v", z, tc.at, v, tc.want)
					}
				}
			})
		}
	}
}

// TestCycleAboveColumnDrainsLikeSerial: a rescued cycle (H1 = IFERROR(H2,1),
// H2 = H1+$Z$1) above a 200-row column reading $H$1, with a 14-row span
// beside it that the levelled drain publishes first. The serial resolver
// enters the cycle from C1 and leaves H1 = 1 and C[r] = A[r]; drained whole
// or seven cells a call, the default engine must agree — the budgeted drain
// spends a call's whole budget on the span and returns with only the loop
// left, and the next call resumes the cached schedule into the stall, releases
// it and drains the rest on the walk. Only H2 becomes #CYCLE!.
func TestCycleAboveColumnDrainsLikeSerial(t *testing.T) {
	const rows = 200
	build := func(e *Engine) {
		e.SetValue(ref.MustCell("Z1"), formula.Num(1))
		mustFormula(t, e, "H1", "IFERROR(H2,1)")
		mustFormula(t, e, "H2", "H1+$Z$1")
		for r := 1; r <= rows; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)+0.5))
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*$H$1", r))
		}
		for r := 1; r <= 14; r++ {
			mustFormula(t, e, fmt.Sprintf("J%d", r), fmt.Sprintf("A%d+$Z$1", r))
		}
		e.RecalculateAll()
		e.SetValue(ref.MustCell("Z1"), formula.Num(2))
	}
	serial := New(nil)
	serial.SetSerial(true)
	build(serial)
	serial.RecalculateAll()
	if v := serial.Value(ref.MustCell("C7")); v != formula.Num(7.5) {
		t.Fatalf("serial C7 = %v, want A7 times the rescued H1", v)
	}

	whole := New(nil)
	build(whole)
	stalled := mCycleCells.Value()
	whole.RecalculateAll()
	enginesEqual(t, serial, whole)
	if got := mCycleCells.Value() - stalled; got != 1 {
		t.Fatalf("%d cells counted as #CYCLE!, want H2 alone", got)
	}

	e := New(nil)
	build(e)
	pending := e.Pending()
	if pending != rows+16 {
		t.Fatalf("the edit dirtied %d cells, want %d", pending, rows+16)
	}
	for call := 1; e.Pending() > 0; call++ {
		if e.RecalculateN(7) == 0 {
			t.Fatalf("call %d: no progress with %d pending", call, e.Pending())
		}
		if call == 2 {
			// J1:J14 is published; only the loop and what reads it are left.
			if e.sched == nil || len(e.sched.frontier) != 0 || e.Pending() != rows+2 {
				t.Fatalf("after the span: live schedule %v, %d pending; want a stalled one and %d", e.sched != nil, e.Pending(), rows+2)
			}
		}
		if call == 3 && e.sched != nil {
			t.Fatal("the stall left a live schedule")
		}
		if call > rows {
			t.Fatal("the budgeted drain did not converge")
		}
	}
	enginesEqual(t, serial, e)
}

// TestCycleReadsEveryOperand: A1 = IFERROR(B1*2-C1,1) over B1 = A1 and
// C1 = COUNTIF(A1:A1,">0"). The walk enters the cycle at A1, whose evaluation
// reads B1 — #CYCLE!, since B1 reads A1 — and then C1, though the left operand
// is already an error. So C1 is evaluated while A1 is, and it counts the
// #CYCLE! it reads as no match. C1 is 0 on every drain path, and after a
// snapshot round trip. A walk that skipped the right operand gave C1 a root
// of its own, after A1 had settled at 1, and C1 = 1.
func TestCycleReadsEveryOperand(t *testing.T) {
	cells := [][2]string{{"A1", "IFERROR(B1*2-C1,1)"}, {"B1", "A1"}, {"C1", `COUNTIF(A1:A1,">0")`}}
	build := func(pad int) *Engine {
		e := New(nil)
		e.SetValue(ref.MustCell("Z1"), formula.Num(1))
		for _, c := range cells {
			mustFormula(t, e, c[0], c[1])
		}
		for r := 1; r <= pad; r++ {
			mustFormula(t, e, fmt.Sprintf("J%d", r), fmt.Sprintf("$Z$1+%d", r))
		}
		return e
	}
	check := func(path string, e *Engine) {
		t.Helper()
		if e.Pending() != 0 {
			t.Fatalf("%s: %d pending", path, e.Pending())
		}
		for at, want := range map[string]formula.Value{
			"A1": formula.Num(1), "B1": formula.Error(formula.ErrCycle), "C1": formula.Num(0),
		} {
			if v := e.Value(ref.MustCell(at)); v != want {
				t.Errorf("%s: %s = %v, want %v", path, at, v, want)
			}
		}
	}
	pinned := build(0)
	pinned.SetSerial(true)
	pinned.RecalculateAll()
	check("pinned walk", pinned)

	stalled := build(2 * minLevelledDirty)
	stalled.RecalculateAll()
	if stalled.RecalcStats().ScheduleBuilds == 0 {
		t.Fatal("the padded sheet was not levelled")
	}
	check("levelled stall hand-off", stalled)

	chunked := build(2 * minLevelledDirty)
	for calls := 0; chunked.Pending() > 0; calls++ {
		if chunked.RecalculateN(1) != 1 || calls > 4*minLevelledDirty {
			t.Fatalf("RecalculateN(1) did not run one evaluation a call (call %d)", calls)
		}
	}
	check("RecalculateN(1) chunks", chunked)

	var buf bytes.Buffer
	if err := stalled.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
	mustFormula(t, restored, "A1", cells[0][1]) // the cycle dirty again
	restored.RecalculateAll()
	check("restored, then re-entered", restored)
}
