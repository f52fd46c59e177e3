package engine

import (
	"fmt"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// buildTieredFanout populates a two-tier sheet wide enough to engage the
// wavefront path: A1/A2 inputs, a 400-cell middle tier, and a 60-cell
// aggregation tier over it.
func buildTieredFanout(t testing.TB, e *Engine) {
	t.Helper()
	e.SetValue(ref.MustCell("A1"), formula.Num(3))
	e.SetValue(ref.MustCell("A2"), formula.Num(5))
	for i := 1; i <= 400; i++ {
		mustFormula(t, e, fmt.Sprintf("C%d", i), fmt.Sprintf("$A$1*%d+$A$2", i))
	}
	for i := 1; i <= 60; i++ {
		mustFormula(t, e, fmt.Sprintf("E%d", i), fmt.Sprintf("SUM(C%d:C%d)+%d", i, i+300, i))
	}
	e.RecalculateAll()
}

// TestScheduleResumesAcrossBudgets pins the resumable-schedule contract:
// a budgeted drain levels the dirty set exactly once, and every subsequent
// RecalculateN chunk consumes the remaining levels from the cached schedule
// instead of re-running Kahn — while converging to the serial fixpoint.
func TestScheduleResumesAcrossBudgets(t *testing.T) {
	serial := New(nil)
	serial.SetSerial(true)
	levelled := New(nil)
	for _, e := range []*Engine{serial, levelled} {
		buildTieredFanout(t, e)
		e.SetValue(ref.MustCell("A1"), formula.Num(11))
	}
	serial.RecalculateAll()

	builds0 := levelled.RecalcStats().ScheduleBuilds
	dirty0 := levelled.Pending()
	if levelled.RecalculateN(37) == 0 {
		t.Fatal("first chunk made no progress")
	}
	st := levelled.RecalcStats()
	if st.ScheduleBuilds != builds0+1 {
		t.Fatalf("first chunk built %d schedules, want 1", st.ScheduleBuilds-builds0)
	}
	if st.Scheduled != dirty0 {
		t.Fatalf("live schedule covers %d cells, want the %d dirtied", st.Scheduled, dirty0)
	}
	for i := 0; levelled.Pending() > 0; i++ {
		if levelled.RecalculateN(37) == 0 {
			t.Fatalf("drain stalled with %d pending", levelled.Pending())
		}
		if i > 1000 {
			t.Fatal("drain did not converge")
		}
	}
	if got := levelled.RecalcStats().ScheduleBuilds; got != builds0+1 {
		t.Fatalf("budgeted drain built %d schedules, want exactly 1 (resumed otherwise)", got-builds0)
	}
	if st := levelled.RecalcStats(); st.Scheduled != 0 {
		t.Fatalf("exhausted drain left a live schedule: %+v", st)
	}
	enginesEqual(t, serial, levelled)
}

// TestEditMidDrainInvalidatesSchedule interleaves an edit between budgeted
// chunks: the mutation starts a new dirty generation, the cached schedule is
// discarded and rebuilt over the remaining dirty set, and the drain still
// converges to the same fixpoint as a serial engine that applied the same
// edits (recalculation is confluent on acyclic sheets — the interleaving
// cannot change the result, only the schedule shapes).
func TestEditMidDrainInvalidatesSchedule(t *testing.T) {
	serial := New(nil)
	serial.SetSerial(true)
	levelled := New(nil)
	for _, e := range []*Engine{serial, levelled} {
		buildTieredFanout(t, e)
	}
	// Serial reference: both edits applied, fully drained.
	serial.SetValue(ref.MustCell("A1"), formula.Num(21))
	serial.SetValue(ref.MustCell("A2"), formula.Num(-4))
	serial.RecalculateAll()

	levelled.SetValue(ref.MustCell("A1"), formula.Num(21))
	builds0 := levelled.RecalcStats().ScheduleBuilds
	if levelled.RecalculateN(50) == 0 {
		t.Fatal("first chunk made no progress")
	}
	// The edit lands mid-drain: part of A1's dirty set is still scheduled.
	levelled.SetValue(ref.MustCell("A2"), formula.Num(-4))
	if st := levelled.RecalcStats(); st.Scheduled != 0 {
		t.Fatalf("edit left a stale schedule live: %+v", st)
	}
	for i := 0; levelled.Pending() > 0; i++ {
		if levelled.RecalculateN(50) == 0 {
			t.Fatalf("drain stalled with %d pending", levelled.Pending())
		}
		if i > 1000 {
			t.Fatal("drain did not converge")
		}
	}
	if got := levelled.RecalcStats().ScheduleBuilds; got < builds0+2 {
		t.Fatalf("schedule builds %d, want >= 2 (one per dirty generation)", got-builds0)
	}
	enginesEqual(t, serial, levelled)
}

// TestRecalcStatsQuiescent: a settled engine reports empty scheduler state.
func TestRecalcStatsQuiescent(t *testing.T) {
	e := New(nil)
	buildTieredFanout(t, e)
	st := e.RecalcStats()
	if st.Pending != 0 || st.Scheduled != 0 || st.FrontierWidth != 0 {
		t.Fatalf("quiescent stats = %+v", st)
	}
	if st.LevelsDrained == 0 || st.ScheduleBuilds == 0 {
		t.Fatalf("load drain left no scheduler trace: %+v", st)
	}
}
