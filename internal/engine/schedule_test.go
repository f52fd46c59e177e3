package engine

import (
	"fmt"
	"testing"

	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
)

// recalcFixture builds one dependency shape twice — once per engine under
// comparison — and names the edit that dirties it.
type recalcFixture struct {
	name  string
	build func(e *Engine)
	// edit re-dirties the sheet after the initial load settles.
	edit func(e *Engine)
}

func mustFormula(t testing.TB, e *Engine, at, src string) {
	t.Helper()
	if _, err := e.SetFormula(ref.MustCell(at), src); err != nil {
		t.Fatalf("SetFormula(%s, %q): %v", at, src, err)
	}
}

// recalcFixtures covers the shapes the wavefront scheduler's leveling must
// get right: pure depth (every level width 1), pure width (one giant level),
// reconvergence (diamonds), reference cycles with downstream dependents, and
// a mixed sheet combining all of them over ranges.
func recalcFixtures(t testing.TB) []recalcFixture {
	deepChain := func(n int) recalcFixture {
		return recalcFixture{
			name: fmt.Sprintf("deep_chain_%d", n),
			build: func(e *Engine) {
				e.SetValue(ref.MustCell("A1"), formula.Num(1))
				mustFormula(t, e, "B1", "A1+1")
				for i := 2; i <= n; i++ {
					mustFormula(t, e, fmt.Sprintf("B%d", i), fmt.Sprintf("B%d*1.0001+1", i-1))
				}
			},
			edit: func(e *Engine) { e.SetValue(ref.MustCell("A1"), formula.Num(7)) },
		}
	}
	wideFanout := func(n int) recalcFixture {
		return recalcFixture{
			name: fmt.Sprintf("wide_fanout_%d", n),
			build: func(e *Engine) {
				e.SetValue(ref.MustCell("A1"), formula.Num(3))
				for i := 1; i <= n; i++ {
					mustFormula(t, e, fmt.Sprintf("C%d", i), fmt.Sprintf("$A$1*%d+SQRT(%d)", i, i))
				}
			},
			edit: func(e *Engine) { e.SetValue(ref.MustCell("A1"), formula.Num(11)) },
		}
	}
	diamond := func(blocks, width int) recalcFixture {
		return recalcFixture{
			name: fmt.Sprintf("diamond_%dx%d", blocks, width),
			build: func(e *Engine) {
				// A column of join cells: each fans out to `width` middle
				// cells, which reconverge into the next join via SUM.
				e.SetValue(ref.MustCell("A1"), formula.Num(2))
				join := "A1"
				for b := 0; b < blocks; b++ {
					col := string(rune('C' + b))
					for i := 1; i <= width; i++ {
						mustFormula(t, e, fmt.Sprintf("%s%d", col, i), fmt.Sprintf("%s+%d", join, i))
					}
					next := fmt.Sprintf("B%d", b+2)
					mustFormula(t, e, next, fmt.Sprintf("SUM(%s1:%s%d)/%d", col, col, width, width))
					join = next
				}
			},
			edit: func(e *Engine) { e.SetValue(ref.MustCell("A1"), formula.Num(9)) },
		}
	}
	cycle := recalcFixture{
		name: "cycle_with_downstream",
		build: func(e *Engine) {
			// D1 <-> D2 is a pure cycle; E1..E40 hang off it (propagating the
			// error), F1 rescues it, and G1..G40 are an unrelated clean fanout
			// that must still evaluate.
			e.SetValue(ref.MustCell("A1"), formula.Num(5))
			mustFormula(t, e, "D1", "D2+A1")
			mustFormula(t, e, "D2", "D1+1")
			for i := 1; i <= 40; i++ {
				mustFormula(t, e, fmt.Sprintf("E%d", i), fmt.Sprintf("D2+%d", i))
			}
			mustFormula(t, e, "F1", "IFERROR(D1,123)+A1")
			mustFormula(t, e, "H1", "H1+A1") // direct self-reference
			for i := 1; i <= 40; i++ {
				mustFormula(t, e, fmt.Sprintf("G%d", i), fmt.Sprintf("$A$1+%d", i))
			}
		},
		edit: func(e *Engine) { e.SetValue(ref.MustCell("A1"), formula.Num(6)) },
	}
	mixed := recalcFixture{
		name: "mixed_ranges",
		build: func(e *Engine) {
			for i := 1; i <= 60; i++ {
				e.SetValue(ref.Ref{Col: 1, Row: i}, formula.Num(float64(i)/3))
			}
			for i := 1; i <= 60; i++ {
				mustFormula(t, e, fmt.Sprintf("B%d", i), fmt.Sprintf("SUM(A$1:A$%d)+A%d", i, i))
			}
			mustFormula(t, e, "C1", "SUM(B1:B60)")
			mustFormula(t, e, "C2", "AVERAGE(B1:B30)*C1")
			for i := 3; i <= 40; i++ {
				mustFormula(t, e, fmt.Sprintf("C%d", i), fmt.Sprintf("C%d+MAX(B1:B10)", i-1))
			}
			mustFormula(t, e, "D1", "COUNTIF(B1:B60,\">10\")+VLOOKUP(A5,A1:B60,2)")
		},
		edit: func(e *Engine) {
			e.SetValue(ref.MustCell("A1"), formula.Num(42))
			e.SetValue(ref.MustCell("A30"), formula.Num(-3))
		},
	}
	return []recalcFixture{
		deepChain(300), wideFanout(500), diamond(4, 80), cycle, mixed,
	}
}

// enginesEqual compares every populated cell of two engines.
func enginesEqual(t *testing.T, serial, levelled *Engine) {
	t.Helper()
	if sn, pn := serial.NumCells(), levelled.NumCells(); sn != pn {
		t.Fatalf("cell counts diverge: serial %d, levelled %d", sn, pn)
	}
	serial.store.eachColumnMajor(func(at ref.Ref, c *cell) error {
		pv := levelled.Value(at)
		if pv != c.value {
			t.Errorf("%v: serial=%v levelled=%v", at, c.value, pv)
		}
		if levelled.Dirty(at) {
			t.Errorf("%v: still dirty after levelled drain", at)
		}
		return nil
	})
	if p := levelled.Pending(); p != 0 {
		t.Fatalf("levelled engine still has %d pending cells", p)
	}
}

// TestWavefrontMatchesSerial drives every fixture through a serial engine
// and a levelled one (fixtures sized past the threshold, so the scheduler
// actually runs) and requires identical values everywhere — the
// scheduler's core contract.
func TestWavefrontMatchesSerial(t *testing.T) {
	for _, fx := range recalcFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			serial := New(nil)
			serial.SetRecalcParallelism(1)
			levelled := New(nil)
			for _, e := range []*Engine{serial, levelled} {
				fx.build(e)
				e.RecalculateAll()
				fx.edit(e)
			}
			serial.RecalculateAll()
			levelled.RecalculateAll()
			enginesEqual(t, serial, levelled)
		})
	}
}

// TestWavefrontNoCompBackend runs the same equivalence over the NoComp
// baseline graph: the dirty sets come from the uncompressed index, the
// schedule from the formulas as ever.
func TestWavefrontNoCompBackend(t *testing.T) {
	for _, fx := range recalcFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			serial := New(NoComp{G: nocomp.NewGraph()})
			serial.SetRecalcParallelism(1)
			levelled := New(NoComp{G: nocomp.NewGraph()})
			for _, e := range []*Engine{serial, levelled} {
				fx.build(e)
				e.RecalculateAll()
				fx.edit(e)
			}
			serial.RecalculateAll()
			levelled.RecalculateAll()
			enginesEqual(t, serial, levelled)
		})
	}
}

// TestWavefrontRecalculateN checks the budgeted levelled drain: partial
// drains make progress, never evaluate a cell before its precedents, and
// converge to the serial fixpoint.
func TestWavefrontRecalculateN(t *testing.T) {
	for _, fx := range recalcFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			serial := New(nil)
			serial.SetRecalcParallelism(1)
			levelled := New(nil)
			for _, e := range []*Engine{serial, levelled} {
				fx.build(e)
				e.RecalculateAll()
				fx.edit(e)
			}
			serial.RecalculateAll()
			for i := 0; levelled.Pending() > 0; i++ {
				if levelled.RecalculateN(70) == 0 {
					t.Fatalf("drain stalled with %d pending", levelled.Pending())
				}
				if i > 10000 {
					t.Fatal("drain did not converge")
				}
			}
			enginesEqual(t, serial, levelled)
		})
	}
}

// TestWavefrontCycleValues pins the cycle semantics: every cell on a cycle
// is #CYCLE!, downstream arithmetic propagates the error, and IFERROR
// rescues it — for both drain paths.
func TestWavefrontCycleValues(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("A1"), formula.Num(5))
	mustFormula(t, e, "D1", "D2+A1")
	mustFormula(t, e, "D2", "D1+1")
	mustFormula(t, e, "E1", "D2*2")
	mustFormula(t, e, "F1", "IFERROR(D1,123)")
	mustFormula(t, e, "H1", "H1+1")
	// Pad the dirty set past the serial-fallback threshold so the wavefront
	// path actually runs.
	for i := 1; i <= 2*minLevelledDirty; i++ {
		mustFormula(t, e, fmt.Sprintf("J%d", i), "$A$1")
	}
	e.RecalculateAll()
	for _, at := range []string{"D1", "D2", "E1", "H1"} {
		if v := e.Value(ref.MustCell(at)); v.Err != "#CYCLE!" {
			t.Errorf("%s = %v, want #CYCLE!", at, v)
		}
	}
	if v := e.Value(ref.MustCell("F1")); v.Num != 123 {
		t.Errorf("F1 = %v, want rescued 123", v)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", e.Pending())
	}
}

// TestWavefrontSmallSetStaysSerial documents the fallback: below the
// threshold an unpinned engine takes the serial path and builds no schedule.
func TestWavefrontSmallSetStaysSerial(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("A1"), formula.Num(2))
	mustFormula(t, e, "B1", "A1*10")
	if e.RecalculateAll() == 0 {
		t.Fatal("nothing recalculated")
	}
	if v := e.Value(ref.MustCell("B1")); v.Num != 20 {
		t.Fatalf("B1 = %v", v)
	}
	if st := e.RecalcStats(); st.ScheduleBuilds != 0 {
		t.Fatalf("a 1-cell dirty set was levelled: %+v", st)
	}
}

// TestSerialPin: SetRecalcParallelism(1) is the serial-reference pin — a
// 10k-cell drain, far past the levelling threshold, builds no schedule, and
// its cells are bit-identical to the unpinned engine's levelled drain.
func TestSerialPin(t *testing.T) {
	build := func() *Engine {
		e := New(nil)
		e.SetValue(ref.MustCell("F1"), formula.Num(2))
		for r := 1; r <= 5000; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)/7))
			mustFormula(t, e, fmt.Sprintf("B%d", r), fmt.Sprintf("A%d*$F$1", r))
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("B%d+SUM(A$1:A%d)", r, min(r, 20)))
		}
		return e
	}
	pinned, levelled := build(), build()
	pinned.SetRecalcParallelism(1)
	for _, e := range []*Engine{pinned, levelled} {
		e.RecalculateAll()
		e.SetValue(ref.MustCell("F1"), formula.Num(3))
		if e.Pending() != 10000 {
			t.Fatalf("edit dirtied %d cells, want 10000", e.Pending())
		}
		e.RecalculateAll()
	}
	if st := pinned.RecalcStats(); st.ScheduleBuilds != 0 || st.LevelsDrained != 0 {
		t.Fatalf("pinned engine levelled a drain: %+v", st)
	}
	if st := levelled.RecalcStats(); st.ScheduleBuilds == 0 {
		t.Fatalf("unpinned engine never levelled: %+v", st)
	}
	enginesEqual(t, pinned, levelled)
}

// TestFreshLoadStaysSerial: the first full recalculation of a loaded sheet
// runs on the serial resolver whatever its size, leaving neither a live nor
// a warm schedule behind (see LoadBulkParsed).
func TestFreshLoadStaysSerial(t *testing.T) {
	pcells := []ParsedCell{{At: ref.MustCell("F1"), Value: formula.Num(2)}}
	for r := 1; r <= 5000; r++ {
		src := fmt.Sprintf("A%d*$F$1", r)
		pcells = append(pcells,
			ParsedCell{At: ref.Ref{Col: 1, Row: r}, Value: formula.Num(float64(r))},
			ParsedCell{At: ref.Ref{Col: 2, Row: r}, Src: src, AST: formula.MustParse(src)})
	}
	e := LoadBulkParsed(pcells)
	if v := e.Value(ref.MustCell("B5000")); e.Pending() != 0 || v.Num != 10000 {
		t.Fatalf("load left %d pending, B5000 = %v", e.Pending(), v)
	}
	if st := e.RecalcStats(); st.ScheduleBuilds != 0 || st.Scheduled != 0 || e.warm != nil {
		t.Fatalf("fresh load went through the levelled drain: %+v warm=%v", st, e.warm != nil)
	}
}

// TestWarmScheduleReuse pins the warm-schedule cache's contract: repeating
// the same value edit re-arms the retired schedule (no re-levelling), the
// results stay identical to a cold drain, and anything that changes the
// epoch's shape — a different edit root, a structural mutation — falls back
// to a fresh build.
func TestWarmScheduleReuse(t *testing.T) {
	build := func() *Engine {
		e := New(nil)
		e.SetValue(ref.MustCell("F1"), formula.Num(1.5))
		e.SetValue(ref.MustCell("G1"), formula.Num(2))
		for r := 1; r <= 200; r++ {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
			mustFormula(t, e, fmt.Sprintf("B%d", r), fmt.Sprintf("A%d*$F$1", r))
			mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("B%d+$G$1", r))
		}
		e.RecalculateAll()
		return e
	}
	e := build()

	check := func(f1 float64) {
		t.Helper()
		for _, r := range []int{1, 57, 200} {
			want := float64(r)*f1 + 2
			if v := e.Value(ref.Ref{Col: 3, Row: r}); v.Num != want {
				t.Fatalf("C%d = %v, want %v", r, v, want)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("pending = %d after drain", e.Pending())
		}
	}

	// Cold drain: builds and retires the schedule.
	builds0, warm0 := mSchedBuilds.Value(), mSchedWarmReuses.Value()
	e.SetValue(ref.MustCell("F1"), formula.Num(3))
	e.RecalculateAll()
	check(3)
	if d := mSchedBuilds.Value() - builds0; d != 1 {
		t.Fatalf("cold drain: %d schedule builds, want 1", d)
	}

	// Same root again: the retired schedule re-arms, nothing re-levels.
	builds0 = mSchedBuilds.Value()
	for i, f1 := range []float64{4, 5, 6} {
		e.SetValue(ref.MustCell("F1"), formula.Num(f1))
		e.RecalculateAll()
		check(f1)
		if d := mSchedWarmReuses.Value() - warm0; d != uint64(i+1) {
			t.Fatalf("edit %d: %d warm reuses, want %d", i, d, i+1)
		}
	}
	if d := mSchedBuilds.Value() - builds0; d != 0 {
		t.Fatalf("warm edits: %d schedule builds, want 0", d)
	}

	// A different root: same structure, different epoch — must rebuild and
	// still be exact.
	builds0, warm0 = mSchedBuilds.Value(), mSchedWarmReuses.Value()
	e.SetValue(ref.MustCell("G1"), formula.Num(10))
	e.RecalculateAll()
	for _, r := range []int{1, 200} {
		want := float64(r)*6 + 10
		if v := e.Value(ref.Ref{Col: 3, Row: r}); v.Num != want {
			t.Fatalf("C%d = %v, want %v after G1 edit", r, v, want)
		}
	}
	if mSchedWarmReuses.Value() != warm0 {
		t.Fatal("G1 edit reused the F1 epoch's schedule")
	}
	if d := mSchedBuilds.Value() - builds0; d != 1 {
		t.Fatalf("G1 edit: %d schedule builds, want 1", d)
	}

	// A structural mutation invalidates the warm cache even for the same
	// root: the re-pointed formula must see fresh levels, not stale links.
	e.SetValue(ref.MustCell("G1"), formula.Num(10)) // retire a G1-rooted schedule
	e.RecalculateAll()
	mustFormula(t, e, "C1", "B1-$G$1")
	e.RecalculateAll()
	e.SetValue(ref.MustCell("G1"), formula.Num(20))
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("C1")); v.Num != 6-20 {
		t.Fatalf("C1 = %v, want %v after formula change", v, 6-20)
	}
	if v := e.Value(ref.MustCell("C2")); v.Num != 2*6+20 {
		t.Fatalf("C2 = %v, want %v after formula change", v, 2*6+20)
	}
}

// TestWarmScheduleSerialInterference: a serial evaluation (a read-through
// Recalculate on a small budget, or any evalResolver recursion) drains
// cells the root model cannot account for, so the next drain must not trust
// the warm cache.
func TestWarmScheduleSerialInterference(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("F1"), formula.Num(1))
	for r := 1; r <= 100; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		mustFormula(t, e, fmt.Sprintf("B%d", r), fmt.Sprintf("A%d*$F$1", r))
	}
	e.RecalculateAll()
	e.SetValue(ref.MustCell("F1"), formula.Num(2))
	e.RecalculateAll() // retire a warm schedule for root F1

	e.SetValue(ref.MustCell("F1"), formula.Num(3))
	// Serial drain of part of the epoch: pinned for one call.
	e.SetRecalcParallelism(1)
	e.RecalculateN(10)
	e.SetRecalcParallelism(0)
	e.RecalculateAll()
	for _, r := range []int{1, 50, 100} {
		if v := e.Value(ref.Ref{Col: 2, Row: r}); v.Num != float64(r)*3 {
			t.Fatalf("B%d = %v, want %v", r, v, float64(r)*3)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

// TestWarmScheduleSlabReshape: a retired schedule's span windows alias the
// column slabs, so a cell entering or leaving a slab — even a plain value,
// which changes no formula — must drop the warm cache: the same root edited
// again rebuilds, and reads the records that are there now.
func TestWarmScheduleSlabReshape(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("F1"), formula.Num(2))
	for r := 1; r <= 200; r++ {
		if r == 101 {
			continue // the hole a value will fill
		}
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("A%d*$F$1", r))
	}
	e.RecalculateAll()
	edit := func(f1 float64) (warm uint64) {
		warm0 := mSchedWarmReuses.Value()
		e.SetValue(ref.MustCell("F1"), formula.Num(f1))
		e.RecalculateAll()
		for _, r := range []int{1, 100, 102, 200} {
			if v := e.Value(ref.Ref{Col: 3, Row: r}); v.Num != float64(r)*f1 {
				t.Fatalf("F1=%v: C%d = %v, want %v", f1, r, v, float64(r)*f1)
			}
		}
		return mSchedWarmReuses.Value() - warm0
	}
	edit(3)
	if edit(4) != 1 {
		t.Fatal("repeating the root did not re-arm the retired schedule")
	}
	e.SetValue(ref.MustCell("C101"), formula.Num(-1)) // shifts C102.. one slot down the slab
	if edit(5) != 0 {
		t.Fatal("a reshaped slab left the warm schedule armed")
	}
	e.ClearCell(ref.MustCell("C101"))
	if edit(6) != 0 {
		t.Fatal("a reshaped slab left the warm schedule armed")
	}
	if edit(7) != 1 {
		t.Fatal("the rebuilt schedule was not retired")
	}
}
