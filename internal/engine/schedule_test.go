package engine

import (
	"fmt"
	"slices"
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
	serial.store.eachColumnMajor(func(at ref.Ref, c cell) error {
		pv := levelled.Value(at)
		if pv != c.value() {
			t.Errorf("%v: serial=%v levelled=%v", at, c.value(), pv)
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
		if v := e.Value(ref.MustCell(at)); v.Err != formula.ErrCycle {
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

// installByEdits writes cells into e one edit at a time, the values first,
// with a drain after every edit when each is set and one at the end.
func installByEdits(e *Engine, cells []ParsedCell, each bool) {
	for _, formulas := range []bool{false, true} {
		for _, c := range cells {
			switch {
			case (c.Shape != nil) != formulas:
				continue
			case formulas:
				e.SetFormulaShape(c.At, c.Shape)
			default:
				e.SetValue(c.At, c.Value)
			}
			if each {
				e.RecalculateAll()
			}
		}
	}
	e.RecalculateAll()
}

// TestFreshLoadDrainsLevelled: a 5 000-row load drains like any dirty set of
// its size — through a schedule, whose carve over whole columns leaves their
// run tables — and comes out bit-identical to the same cells installed by
// edits on a pinned engine.
func TestFreshLoadDrainsLevelled(t *testing.T) {
	const rows = 5000
	pcells := []ParsedCell{{At: ref.MustCell("F1"), Value: formula.Num(2)}}
	form := func(col, row int, src string) {
		pcells = append(pcells, ParsedCell{At: ref.Ref{Col: col, Row: row}, Shape: formula.MustParseShape(src, ref.Ref{Col: col, Row: row})})
	}
	for r := 1; r <= rows; r++ {
		pcells = append(pcells, ParsedCell{At: ref.Ref{Col: 1, Row: r}, Value: formula.Num(float64(r))})
		form(2, r, fmt.Sprintf("A%d*$F$1", r))
		if r == 1 {
			form(3, r, "B1")
		} else {
			form(3, r, fmt.Sprintf("C%d+B%d", r-1, r))
		}
		form(4, r, fmt.Sprintf("SUM(B$1:B%d)-C%d", r, r))
	}
	e := LoadBulkParsed(pcells)
	if v := e.Value(ref.MustCell("B5000")); e.Pending() != 0 || v.Num != 10000 {
		t.Fatalf("load left %d pending, B5000 = %v", e.Pending(), v)
	}
	if st := e.RecalcStats(); st.ScheduleBuilds != 1 || st.Scheduled != 0 {
		t.Fatalf("the load did not drain through one schedule: %+v", st)
	}
	for _, col := range []string{"B", "C", "D"} {
		if len(stretches(e, col)) == 0 {
			t.Fatalf("the load left column %s without a run table", col)
		}
	}
	checkRunTables(t, e, "after the load")
	pinned := New(nil)
	pinned.SetRecalcParallelism(1)
	installByEdits(pinned, pcells, false)
	enginesEqual(t, pinned, e)
}

// runTableSheet is two formula columns over a data column, B[r] = A[r]*$F$1
// and C[r] = B[r]+$G$1, 200 rows each.
func runTableSheet(t *testing.T) *Engine {
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

// stretches is a column's run table as row ranges, nil when it has none.
func stretches(e *Engine, col string) (list []ref.Range) {
	c := e.store.cols[ref.MustCell(col+"1").Col]
	if c == nil || !c.runsOK {
		return nil
	}
	for _, st := range c.runs {
		list = append(list, ref.Range{Head: ref.Ref{Col: 0, Row: st.row}, Tail: ref.Ref{Col: 0, Row: st.row + st.n - 1}})
	}
	return list
}

func rows(spans ...[2]int) (list []ref.Range) {
	for _, sp := range spans {
		list = append(list, ref.Range{Head: ref.Ref{Row: sp[0]}, Tail: ref.Ref{Row: sp[1]}})
	}
	return list
}

// TestRunTableRepairsOwnColumn: the first levelled drain builds the run tables
// of the columns it carves, and the next edits reuse them. A formula written
// over one of a column's records repairs that column's table alone — the
// stretch splits around it, and a restore joins the pieces again — and every
// drain's values stay exact.
func TestRunTableRepairsOwnColumn(t *testing.T) {
	e := runTableSheet(t)
	check := func(f1, g1 float64) {
		t.Helper()
		e.SetValue(ref.MustCell("F1"), formula.Num(f1))
		e.RecalculateAll()
		for _, r := range []int{1, 57, 200} {
			if v, want := e.Value(ref.Ref{Col: 3, Row: r}), float64(r)*f1+g1; v.Num != want {
				t.Fatalf("C%d = %v, want %v", r, v, want)
			}
		}
		checkRunTables(t, e, fmt.Sprintf("F1=%v", f1))
	}
	check(3, 2)
	whole := rows([2]int{1, 200})
	if b, c := stretches(e, "B"), stretches(e, "C"); !slices.Equal(b, whole) || !slices.Equal(c, whole) {
		t.Fatalf("after the first rate edit: B %v, C %v; want one stretch each", b, c)
	}
	bRuns := e.store.cols[2].runs
	mustFormula(t, e, "C57", "B57-$G$1")
	if c := stretches(e, "C"); !slices.Equal(c, rows([2]int{1, 56}, [2]int{58, 200})) {
		t.Fatalf("C57 rewritten: C %v, want the stretch split around it", c)
	}
	if b := e.store.cols[2].runs; !slices.Equal(b, bRuns) || &b[0] != &bRuns[0] {
		t.Fatal("a write to C touched B's run table")
	}
	e.RecalculateAll()
	if v := e.Value(ref.MustCell("C57")); v.Num != 57*3-2 {
		t.Fatalf("C57 = %v, want %v", v, 57*3-2)
	}
	mustFormula(t, e, "C57", "B57+$G$1")
	if c := stretches(e, "C"); !slices.Equal(c, whole) {
		t.Fatalf("C57 restored: C %v, want one stretch again", c)
	}
	check(4, 2)
	mustFormula(t, e, "C3", "B3-$G$1") // a piece too short to keep above
	if c := stretches(e, "C"); !slices.Equal(c, rows([2]int{4, 200})) {
		t.Fatalf("C3 rewritten: C %v, want C4:C200 alone", c)
	}
	check(5, 2)
}

// TestRunTableSurvivesWalk: a walk (a pinned serial drain of part of an epoch)
// cleans cells, which leaves the dirty spans no longer dense, but changes no
// record's program: the run tables stay valid, and once an edit hands the rest
// to the levelled drain, its carve reads them with the flags.
func TestRunTableSurvivesWalk(t *testing.T) {
	e := runTableSheet(t)
	serial := runTableSheet(t)
	serial.SetRecalcParallelism(1)
	for _, eng := range []*Engine{e, serial} {
		eng.SetValue(ref.MustCell("F1"), formula.Num(2))
		eng.RecalculateAll()
		eng.SetValue(ref.MustCell("F1"), formula.Num(3))
	}
	e.SetRecalcParallelism(1)
	e.RecalculateN(10)
	e.SetRecalcParallelism(0)
	for _, eng := range []*Engine{e, serial} {
		eng.SetValue(ref.MustCell("G1"), formula.Num(2))
	}
	for _, sp := range e.store.cols[2].dirty {
		if sp.dense == e.store.cuts+1 {
			t.Fatalf("span %v still dense after the walk cleaned part of it", sp)
		}
	}
	if b := stretches(e, "B"); !slices.Equal(b, rows([2]int{1, 200})) {
		t.Fatalf("after the walk: B %v, want the one stretch", b)
	}
	builds := e.RecalcStats().ScheduleBuilds
	e.RecalculateAll()
	serial.RecalculateAll()
	if e.RecalcStats().ScheduleBuilds == builds {
		t.Fatal("the rest of the epoch was not levelled")
	}
	checkRunTables(t, e, "after the walk")
	enginesEqual(t, serial, e)
}

// TestRunTableBuiltFromWholeColumn: a column installed by edits, each drained
// on the walk, has no run table, and a levelled drain over a few of its rows
// does not build one — it cuts the span against the stretches of its own
// flagged records and still sweeps them — while a drain that flags every
// record of a column (a rate edit; the one-record G too) builds its table.
func TestRunTableBuiltFromWholeColumn(t *testing.T) {
	e, serial := New(nil), New(nil)
	serial.SetRecalcParallelism(1)
	for _, eng := range []*Engine{e, serial} {
		installByEdits(eng, ledgerCells(2000), true)
	}
	for ci, col := range e.store.cols {
		if col.runsOK {
			t.Fatalf("column %d: the walk's drains built a run table", ci)
		}
	}
	for _, eng := range []*Engine{e, serial} {
		eng.SetValue(ref.MustCell("A1300"), formula.Num(7)) // D1300:D1536 and a few more
		eng.SetValue(ref.MustCell("A1700"), formula.Num(8)) // D1700:D1792
	}
	swept := e.swept
	e.RecalculateAll()
	serial.RecalculateAll()
	if e.RecalcStats().ScheduleBuilds == 0 {
		t.Fatal("the point edits were not levelled")
	}
	if got := e.swept; got.chain-swept.chain != 237+93 || got.loop-swept.loop != 237+93 {
		t.Fatalf("rows by path %+v after %+v, want D1300:D1536 and D1700:D1792 carried on the recurrence", got, swept)
	}
	for _, col := range []string{"C", "D", "E"} {
		if c := e.store.cols[ref.MustCell(col+"7").Col]; c.runsOK {
			t.Fatalf("point edits built %s's run table", col)
		}
	}
	enginesEqual(t, serial, e)
	for _, eng := range []*Engine{e, serial} {
		eng.SetValue(ref.MustCell("H1"), formula.Num(1.5))
		eng.RecalculateAll()
	}
	for _, col := range []string{"C", "D", "E"} {
		if c := e.store.cols[ref.MustCell(col+"7").Col]; !c.runsOK {
			t.Fatalf("the rate edit left %s without a run table", col)
		}
	}
	checkRunTables(t, e, "after the rate edit")
	enginesEqual(t, serial, e)
}

// TestRunTableFollowsSlabReshape: a run table indexes the slab, so a record
// entering or leaving it mid-column — even a plain value, which changes no
// formula — moves the slab indexes of the stretches below it. The table
// shifts them and repairs the stretches through the record's row: a delete
// inside a stretch splits it, a value filling the gap leaves the pieces, and
// a formula filling it joins them. No other column's table moves.
func TestRunTableFollowsSlabReshape(t *testing.T) {
	e := runTableSheet(t)
	edit := func(f1 float64) {
		t.Helper()
		e.SetValue(ref.MustCell("F1"), formula.Num(f1))
		e.RecalculateAll()
		for _, r := range []int{1, 49, 100, 102, 200} {
			if v, want := e.Value(ref.Ref{Col: 3, Row: r}), float64(r)*f1+2; v.Num != want {
				t.Fatalf("F1=%v: C%d = %v, want %v", f1, r, v, want)
			}
		}
		checkRunTables(t, e, fmt.Sprintf("F1=%v", f1))
	}
	want := func(when string, spans ...[2]int) {
		t.Helper()
		checkRunTables(t, e, when)
		if c := stretches(e, "C"); !slices.Equal(c, rows(spans...)) {
			t.Fatalf("%s: C %v, want %v", when, c, rows(spans...))
		}
	}
	edit(3)
	want("built", [2]int{1, 200})
	bRuns := e.store.cols[2].runs
	e.ClearCell(ref.MustCell("C101")) // shifts C102.. one slot up the slab
	want("C101 cleared", [2]int{1, 100}, [2]int{102, 200})
	edit(4)
	e.SetValue(ref.MustCell("C101"), formula.Num(-1)) // and back down
	want("a value in the gap", [2]int{1, 100}, [2]int{102, 200})
	if b := e.store.cols[2].runs; !slices.Equal(b, bRuns) || &b[0] != &bRuns[0] {
		t.Fatal("a reshape of C touched B's run table")
	}
	edit(5)
	e.ClearCell(ref.MustCell("C101"))
	e.ClearCell(ref.MustCell("C50"))
	want("C50 cleared", [2]int{1, 49}, [2]int{51, 100}, [2]int{102, 200})
	mustFormula(t, e, "C101", "B101+$G$1") // an insert that joins two stretches
	want("the gap filled", [2]int{1, 49}, [2]int{51, 200})
	mustFormula(t, e, "C50", "B50+$G$1")
	want("C50 back", [2]int{1, 200})
	edit(6)
}
