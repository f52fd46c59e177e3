package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
)

// The column slabs are the engine's only cell index, so the flat map they
// replaced survives here, as the oracle: storeModel is a map[ref.Ref] sheet
// with its own (naive) dependents closure and evaluator, and FuzzColStore
// holds every point read and every counter of the engine to it after every
// step of a random edit program.

// The model's window. Columns from modelNarrowFrom on only ever use their
// first three rows, so a program empties and re-creates them all the time.
const (
	modelCols       = 20
	modelRows       = 60
	modelNarrowFrom = 16
	modelMaxSteps   = 128 // a step re-reads the whole window: keep executions short
)

// Program steps, four bytes each: op, column, row, argument. The op byte mod
// 16 selects the last op not above it, so one step in sixteen is a drain and
// the dirty sets in between grow past the levelled drain's threshold. The
// other ops fill down: the argument's top three bits are how many further
// rows get the same write, formulae shifted row by row as a copy would.
const (
	modelOpValue = 0  // at := arg
	modelOpText  = 3  // at := modelText(arg): text, a boolean or an error
	modelOpRef   = 5  // at := <one earlier cell> + arg
	modelOpSum   = 9  // at := SUM(<a window of earlier cells>) + arg
	modelOpClear = 12 // clear at
	modelOpDrain = 15 // RecalculateAll
)

// modelText is what a text write stores, picked by arg: a string that is not
// a number, numeric text (which AsNumber parses), TRUE or FALSE, or an error.
func modelText(arg int) formula.Value {
	switch arg % 4 {
	case 0:
		return formula.Str(fmt.Sprintf("s%d", arg))
	case 1:
		return formula.Str(fmt.Sprintf(" %d ", arg))
	case 2:
		return formula.Boolean(arg/4%2 == 1)
	}
	return formula.Error([...]formula.ErrCode{formula.ErrDiv0, formula.ErrNA, formula.ErrValue}[arg/4%3])
}

// modelCell is the oracle's record: the last computed value, and for a
// formula its source, the window it sums and the constant it adds.
type modelCell struct {
	value formula.Value
	src   string
	prec  ref.Range // the zero Range for a value or a constant formula
	k     float64
	dirty bool
}

type storeModel map[ref.Ref]*modelCell

// modelPrecedents picks what a formula at `at` reads, relative to at so a
// fill-down stamps one pattern: only cells before it in column-major order, so
// no program can close a cycle and a column-major pass is a topological one.
// one asks for a single cell; ok is false where nothing precedes at.
func modelPrecedents(at ref.Ref, arg int, one bool) (prec ref.Range, ok bool) {
	above := at.Row > 1 && (at.Col == 1 || arg%2 == 0)
	switch {
	case above && one:
		return ref.CellRange(ref.Ref{Col: at.Col, Row: max(1, at.Row-1-arg%3)}), true
	case above:
		return ref.Range{Head: ref.Ref{Col: at.Col, Row: max(1, at.Row-1-arg%7)}, Tail: ref.Ref{Col: at.Col, Row: at.Row - 1}}, true
	case at.Col == 1:
		return ref.Range{}, false // A1
	case one:
		return ref.CellRange(ref.Ref{Col: 1 + arg%(at.Col-1), Row: at.Row}), true
	}
	return ref.Range{Head: ref.Ref{Col: max(1, at.Col-1-arg%3), Row: at.Row},
		Tail: ref.Ref{Col: at.Col - 1, Row: min(modelRows, at.Row+arg%5)}}, true
}

// step applies one program step to the engine and to the model.
func (m storeModel) step(t *testing.T, e *Engine, op, cb, rb, ab byte) {
	if op %= 16; op >= modelOpDrain {
		e.RecalculateAll()
		m.drain()
		return
	}
	at, rows := ref.Ref{Col: 1 + int(cb)%modelCols}, modelRows
	if at.Col >= modelNarrowFrom {
		rows = 3
	}
	at.Row = 1 + int(rb)%rows
	arg := int(ab) % 32
	for last := min(rows, at.Row+int(ab)/32); at.Row <= last; at.Row++ {
		switch {
		case op < modelOpRef:
			v := formula.Num(float64(arg))
			if op >= modelOpText {
				v = modelText(arg)
			}
			e.SetValue(at, v)
			m[at] = &modelCell{value: v}
		case op < modelOpClear:
			mc := &modelCell{src: fmt.Sprintf("%d", arg), k: float64(arg), dirty: true}
			if prec, ok := modelPrecedents(at, arg, op < modelOpSum); ok && prec.IsCell() {
				mc.src, mc.prec = fmt.Sprintf("%v+%d", prec, arg), prec
			} else if ok {
				mc.src, mc.prec = fmt.Sprintf("SUM(%v)+%d", prec, arg), prec
			}
			mustFormula(t, e, at.String(), mc.src)
			m[at] = mc
		default:
			e.ClearCell(at)
			delete(m, at)
		}
		m.invalidate(at)
	}
}

// invalidate flags every formula that transitively reads at.
func (m storeModel) invalidate(at ref.Ref) {
	var hit [modelCols + 1][modelRows + 1]bool
	hit[at.Col][at.Row] = true
	for col := at.Col; col <= modelCols; col++ {
		for row := 1; row <= modelRows; row++ {
			mc := m[ref.Ref{Col: col, Row: row}]
			if mc == nil || !mc.prec.Valid() {
				continue
			}
			mc.prec.Cells(func(r ref.Ref) bool {
				if hit[r.Col][r.Row] {
					mc.dirty, hit[col][row] = true, true
				}
				return !hit[col][row]
			})
		}
	}
}

// drain evaluates the flagged formulae, precedents first: a reference plus
// k as arithmetic coerces (an error propagates, what AsNumber refuses is
// #VALUE!), a SUM plus k as the range fold does (numbers add, the first error
// in row-major order wins, text and booleans count for nothing).
func (m storeModel) drain() {
	for col := 1; col <= modelCols; col++ {
		for row := 1; row <= modelRows; row++ {
			mc := m[ref.Ref{Col: col, Row: row}]
			if mc == nil || !mc.dirty {
				continue
			}
			mc.value, mc.dirty = m.eval(mc), false
		}
	}
}

// eval is the value of the formula mc over the model's current values.
func (m storeModel) eval(mc *modelCell) formula.Value {
	read := func(r ref.Ref) formula.Value {
		if pc := m[r]; pc != nil {
			return pc.value
		}
		return formula.Empty()
	}
	switch {
	case !mc.prec.Valid():
		return formula.Num(mc.k)
	case mc.prec.IsCell():
		v := read(mc.prec.Head)
		if v.IsError() {
			return v
		}
		if f, ok := v.AsNumber(); ok {
			return formula.Num(f + mc.k)
		}
		return formula.Error(formula.ErrValue)
	}
	sum, err := 0.0, formula.Value{}
	mc.prec.Cells(func(r ref.Ref) bool { // row-major, the order SUM folds in
		switch v := read(r); v.Kind {
		case formula.KindNumber:
			sum += v.Num
		case formula.KindError:
			err = v
		}
		return !err.IsError()
	})
	if err.IsError() {
		return err
	}
	return formula.Num(sum + mc.k)
}

// check holds every read path and counter of e to the model, at every ref of
// the window and a margin around it — the record behind each ref included,
// re-fetched here, after the step — and the slabs to their shape invariants.
func (m storeModel) check(t *testing.T, e *Engine, when string) {
	t.Helper()
	formulas, pending := 0, 0
	for _, mc := range m {
		if mc.src != "" {
			formulas++
		}
		if mc.dirty {
			pending++
		}
	}
	if e.NumCells() != len(m) || e.NumFormulas() != formulas || e.Pending() != pending {
		t.Fatalf("%s: engine counts %d cells, %d formulas, %d pending; model %d, %d, %d",
			when, e.NumCells(), e.NumFormulas(), e.Pending(), len(m), formulas, pending)
	}
	unpopulated := &modelCell{}
	for col := 1; col <= modelCols+1; col++ {
		for row := 1; row <= modelRows+1; row++ {
			at := ref.Ref{Col: col, Row: row}
			want := m[at]
			if want == nil {
				want = unpopulated
			}
			peek, clean := e.Peek(at)
			if e.Value(at) != want.value || peek != want.value || clean == want.dirty ||
				e.Dirty(at) != want.dirty || e.Formula(at) != want.src {
				t.Fatalf("%s: %v reads value %v, peek (%v, clean %v), dirty %v, formula %q; model %+v",
					when, at, e.Value(at), peek, clean, e.Dirty(at), e.Formula(at), *want)
			}
			// The record itself, through a handle taken after the step: one
			// from before it may name another row's record, or a dead slab.
			if r, ok := storedRecord(e, at); ok != (m[at] != nil) ||
				ok && (r.value != want.value || r.dirty != want.dirty || (r.shape != nil) != (want.src != "")) {
				t.Fatalf("%s: %v holds record %+v; model %+v", when, at, r, *want)
			}
		}
	}
	if slabbed := slabbedCells(t, e, when); slabbed != len(m) {
		t.Fatalf("%s: slabs hold %d cells, model %d", when, slabbed, len(m))
	}
	checkRunTables(t, e, when)
}

// storedRecord is the record at at, read through a handle taken now.
func storedRecord(e *Engine, at ref.Ref) (record, bool) {
	if c, ok := e.store.get(at); ok {
		return c.col.record(c.i), true
	}
	return record{}, false
}

// slabbedCells counts the records on e's slabs, holding each column to its
// shape — never empty, rows, floats and metas parallel, rows strictly
// ascending, every slot of the string table either one string record's or
// free — and the engine's three counters to a recount of the records
// themselves.
func slabbedCells(t *testing.T, e *Engine, when string) (n int) {
	t.Helper()
	dirty, formulas := 0, 0
	for ci, col := range e.store.cols {
		if len(col.rows) == 0 || len(col.rows) != len(col.num) || len(col.rows) != len(col.meta) {
			t.Fatalf("%s: column %d holds %d rows, %d floats and %d metas", when, ci, len(col.rows), len(col.num), len(col.meta))
		}
		owner := make([]int, len(col.strs)) // 1 + the slab index holding each slot, -1 when free
		for _, slot := range col.free {
			if slot >= uint32(len(owner)) || owner[slot] != 0 {
				t.Fatalf("%s: column %d frees slot %d twice or past its %d strings", when, ci, slot, len(col.strs))
			}
			owner[slot] = -1
		}
		for i, row := range col.rows {
			if i > 0 && row <= col.rows[i-1] {
				t.Fatalf("%s: column %d rows not strictly ascending: %v", when, ci, col.rows)
			}
			if m := col.meta[i]; m.kind == formula.KindString {
				if m.slot >= uint32(len(owner)) || owner[m.slot] != 0 {
					t.Fatalf("%s: column %d row %d holds slot %d, free or another record's", when, ci, row, m.slot)
				}
				owner[m.slot] = 1 + i
			}
			if col.meta[i].dirty {
				dirty++
			}
			if col.meta[i].shape != nil {
				formulas++
			}
		}
		for slot, o := range owner {
			if o == 0 || o < 0 && col.strs[slot] != "" {
				t.Fatalf("%s: column %d's slot %d is neither held nor free and empty (%q)", when, ci, slot, col.strs[slot])
			}
		}
		n += len(col.rows)
	}
	if n != e.store.ncells || dirty != e.store.ndirty || formulas != e.nformulas {
		t.Fatalf("%s: slabs hold %d records, %d dirty, %d formulas; the engine counts %d, %d, %d",
			when, n, dirty, formulas, e.store.ncells, e.store.ndirty, e.nformulas)
	}
	return n
}

// checkRunTables holds every valid run table of e to one derived afresh from
// the records (see runTable).
func checkRunTables(t *testing.T, e *Engine, when string) {
	t.Helper()
	for ci, col := range e.store.cols {
		if !col.runsOK {
			continue
		}
		var want []colRun
		for i := 0; i < len(col.meta); {
			p, j := col.meta[i].program(), i+1
			for ; p != nil && j < len(col.meta) && col.rows[j] == col.rows[j-1]+1; j++ {
				if col.meta[j].program() != p {
					break
				}
			}
			if j-i >= minPatternRun {
				want = append(want, colRun{row: col.rows[i], i: i, n: j - i, p: p})
			}
			i = j
		}
		if !slices.Equal(col.runs, want) {
			t.Fatalf("%s: column %d's run table is %v, derived afresh %v", when, ci, col.runs, want)
		}
	}
}

func modelProg(ops ...[4]byte) (prog []byte) {
	for _, op := range ops {
		prog = append(prog, op[:]...)
	}
	return prog
}

// FuzzColStore: under any program of value writes — numbers, text, booleans
// and errors — formula writes, clears and drains over a 20×60 window — gapped
// columns, first and last rows, columns emptied and re-created — Value, Peek,
// Dirty, Formula, NumCells, NumFormulas and Pending agree with the map model
// after every step, the slabs stay strictly ascending with no empty column and
// every string slot held once or free, every column's run table — each is
// kept built, so every write repairs one — equals one derived afresh,
// and a snapshot round trip preserves all of it.
func FuzzColStore(f *testing.F) {
	const q, a, fill = modelNarrowFrom, 0, 32 // column bytes Q (narrow) and A; one more row filled
	// A narrow column filled, emptied, re-created by a formula, then a row
	// inserted above it.
	f.Add(modelProg([4]byte{modelOpValue, q, 0, 2*fill + 5}, [4]byte{modelOpClear, q, 0, 2 * fill}, [4]byte{modelOpSum, q, 1, 3},
		[4]byte{modelOpDrain}, [4]byte{modelOpValue, q, 0, 9}))
	// First and last row: A60 sums the rows above it, then the slab under the
	// window changes at both ends and in the middle, values and formulae
	// replacing each other.
	f.Add(modelProg([4]byte{modelOpValue, a, 0, 7*fill + 1}, [4]byte{modelOpValue, a, 30, 2}, [4]byte{modelOpSum, a, 59, 6},
		[4]byte{modelOpDrain}, [4]byte{modelOpClear, a, 0, 0}, [4]byte{modelOpValue, a, 15, 4},
		[4]byte{modelOpRef, a, 30, 3*fill + 15}, [4]byte{modelOpValue, a, 59, 8}, [4]byte{modelOpClear, a, 59, 0}))
	// A string overwritten by a number and back in the middle of a filled
	// column that a filled reference column reads, drained in between.
	f.Add(modelProg([4]byte{modelOpValue, a, 0, 7*fill + 2}, [4]byte{modelOpRef, 1, 0, 7*fill + 1},
		[4]byte{modelOpText, a, 3, 0}, [4]byte{modelOpDrain}, [4]byte{modelOpValue, a, 3, 5}, [4]byte{modelOpDrain},
		[4]byte{modelOpText, a, 3, 4}, [4]byte{modelOpDrain}))
	// A column of strings under sliding SUMs: a number into the middle and a
	// string back, then a record deleted and a string inserted mid-slab.
	f.Add(modelProg([4]byte{modelOpText, a, 0, 7 * fill}, [4]byte{modelOpSum, 1, 0, 7*fill + 3},
		[4]byte{modelOpValue, a, 4, 9}, [4]byte{modelOpDrain}, [4]byte{modelOpText, a, 4, 4},
		[4]byte{modelOpClear, a, 2, 0}, [4]byte{modelOpText, a, 2, 8}, [4]byte{modelOpDrain}))
	for seed := int64(1); seed <= 4; seed++ {
		prog := make([]byte, 4*modelMaxSteps)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		e, m := New(nil), storeModel{}
		for i := 0; i+4 <= len(prog) && i < 4*modelMaxSteps; i += 4 {
			m.step(t, e, prog[i], prog[i+1], prog[i+2], prog[i+3])
			m.check(t, e, fmt.Sprintf("step %d", i/4))
			for _, col := range e.store.cols {
				col.runTable()
			}
		}
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf); err != nil { // drains first
			t.Fatal(err)
		}
		m.drain()
		m.check(t, e, "after the snapshot's drain")
		r, err := RestoreSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		m.check(t, r, "restored")
	})
}

// coarseGraph is a Graph that answers every dependents query with one fixed
// range, however few formulae it holds — the coarsest answer the interface
// allows.
type coarseGraph struct {
	NoComp
	all ref.Range
}

func (g coarseGraph) Dependents(ref.Range) []ref.Range { return []ref.Range{g.all} }

// TestRecordLayout pins the slab record's size: a mark or a carve steps
// through metas one at a time, so every byte of one is paid per cell.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(formula.Value{}); got != 32 {
		t.Errorf("formula.Value is %d bytes, want 32: Kind, Bool and Err share its first word", got)
	}
	if got := unsafe.Sizeof(cellMeta{}); got != 16 {
		t.Errorf("cellMeta is %d bytes, want 16: see the layout comment on cellMeta in engine.go, slot and the four bytes share the word after shape", got)
	}
}

// slabBytes is what the slabs of e hold — capacity times element size, over
// rows, floats, metas and string tables — and the cells they hold.
func slabBytes(e *Engine) (bytes, cells int) {
	for _, col := range e.store.cols {
		bytes += cap(col.rows)*int(unsafe.Sizeof(int(0))) + cap(col.num)*int(unsafe.Sizeof(float64(0))) +
			cap(col.meta)*int(unsafe.Sizeof(cellMeta{})) + cap(col.strs)*int(unsafe.Sizeof(""))
		cells += len(col.rows)
	}
	return bytes, cells
}

// TestLedgerStoreBytesPerCell: a 2 000-row ledger loaded from text through
// LoadBulk holds at most 33 bytes a cell on its slabs — a row, a float and a
// meta, 32 bytes, each array sized exactly, and no string table.
func TestLedgerStoreBytesPerCell(t *testing.T) {
	e, err := LoadBulk(ledgerSheet(2000))
	if err != nil {
		t.Fatal(err)
	}
	b, cells := slabBytes(e)
	if cells != e.NumCells() || float64(b)/float64(cells) > 33 {
		t.Fatalf("the ledger's slabs hold %d bytes for %d cells (%d counted), %.1f a cell; want at most 33",
			b, e.NumCells(), cells, float64(b)/float64(cells))
	}
}

// TestRecycledColumnPinsNothing: a column goes back to the pool with every meta
// zeroed up to its capacity — a delete's vacated tail included — and an empty
// string table, so a pooled column keeps no shape and no string reachable.
func TestRecycledColumnPinsNothing(t *testing.T) {
	e := New(nil)
	for r := 1; r <= 40; r++ {
		at := ref.Ref{Col: 1, Row: r}
		switch r % 3 {
		case 0:
			e.SetValue(at, formula.Str(fmt.Sprintf("text %d", r)))
		case 1:
			mustFormula(t, e, at.String(), fmt.Sprintf("B%d*2", r))
		default:
			e.SetValue(at, formula.Num(float64(r)))
		}
	}
	e.RecalculateAll()
	e.ClearCell(ref.MustCell("A3")) // a string's slot freed
	e.ClearCell(ref.MustCell("A4")) // a shape moved off the slab's end
	col := e.store.cols[1]
	if len(col.strs) == 0 || len(col.free) == 0 {
		t.Fatalf("the column holds %d strings, %d free: want both", len(col.strs), len(col.free))
	}
	delete(e.store.cols, 1)
	recycleColumn(col)
	for i, m := range col.meta[:cap(col.meta)] {
		if m != (cellMeta{}) {
			t.Fatalf("meta %d of %d is %+v after recycling, want zero", i, cap(col.meta), m)
		}
	}
	for i, s := range col.strs[:cap(col.strs)] {
		if s != "" {
			t.Fatalf("string slot %d of %d holds %q after recycling", i, cap(col.strs), s)
		}
	}
	if len(col.strs) != 0 || len(col.free) != 0 || len(col.rows) != 0 || len(col.num) != 0 || len(col.meta) != 0 {
		t.Fatalf("a recycled column holds %d rows, %d floats, %d metas, %d strings and %d free slots",
			len(col.rows), len(col.num), len(col.meta), len(col.strs), len(col.free))
	}
}

// TestMarkCoarseRange: a dependents range that is a whole column of values
// with a few formulae in it marks exactly the formulae, under one dirty span
// from the first to the last, and both drains settle them across the values
// in between.
func TestMarkCoarseRange(t *testing.T) {
	for _, every := range []int{400, 12} { // 3 formulae (serial drain), 84 (levelled)
		col := ref.MustRange("A1:A1002")
		e := New(coarseGraph{NoComp{G: nocomp.NewGraph()}, col})
		e.SetValue(ref.MustCell("B1"), formula.Num(1))
		var formulas []ref.Ref
		for row := 1; row <= 1002; row++ {
			at := ref.Ref{Col: 1, Row: row}
			if row%every == 1 {
				mustFormula(t, e, at.String(), fmt.Sprintf("$B$1*%d", row))
				formulas = append(formulas, at)
			} else {
				e.SetValue(at, formula.Num(float64(row)))
			}
		}
		e.RecalculateAll()
		if got := e.SetValue(ref.MustCell("B1"), formula.Num(3)); len(got) != 1 || got[0] != col {
			t.Fatalf("dirty ranges = %v, want the whole column", got)
		}
		if e.Pending() != len(formulas) || e.NumFormulas() != len(formulas) {
			t.Fatalf("every %d: %d pending of %d formulae, want %d", every, e.Pending(), e.NumFormulas(), len(formulas))
		}
		col.Cells(func(at ref.Ref) bool {
			if want := at.Row%every == 1; e.Dirty(at) != want {
				t.Fatalf("every %d: %v dirty = %v, want %v", every, at, e.Dirty(at), want)
			}
			return true
		})
		first, last := formulas[0].Row, formulas[len(formulas)-1].Row
		if spans := e.store.cols[1].dirty; len(spans) != 1 || spans[0] != (rowSpan{r0: first, r1: last}) {
			t.Fatalf("every %d: dirty spans %v, want one [%d,%d]", every, spans, first, last)
		}
		if n := e.RecalculateAll(); n != len(formulas) || e.Pending() != 0 {
			t.Fatalf("every %d: drain evaluated %d and left %d pending", every, n, e.Pending())
		}
		for _, at := range formulas {
			if v := e.Value(at); v.Num != float64(3*at.Row) {
				t.Fatalf("every %d: %v = %v, want %d", every, at, v, 3*at.Row)
			}
		}
		if v := e.Value(ref.MustCell("A2")); v.Num != 2 {
			t.Fatalf("every %d: the value cell A2 = %v, want 2", every, v)
		}
	}
}

// TestSlabReshapeBetweenBudgetedDrains: a span node is a window of the slab's
// records, not a list of pointers to them, so a write that moves records — an
// append that regrows the slab, an insert or a delete mid-column — under a
// schedule cut mid-span must leave nothing aliasing the old layout. On the
// 2 000-row ledger (E1000 cleared first, for the insert to fill) each reshape
// lands between two budgeted chunks of a rate edit's drain: the live schedule
// is dropped and rebuilt over what is still flagged, the column's run table is
// repaired, its stretches below an insert or a delete shifted, and the cells
// end bit-identical to a serial twin's.
func TestSlabReshapeBetweenBudgetedDrains(t *testing.T) {
	eachSpanChunk(func() { slabReshapeBetweenBudgetedDrains(t) })
}

func slabReshapeBetweenBudgetedDrains(t *testing.T) {
	const rows, budget = 2000, 700
	e, serial := ledgerEngine(t, rows), ledgerEngine(t, rows)
	serial.SetSerial(true)
	both := func(do func(*Engine)) { do(e); do(serial) }
	both(func(e *Engine) { e.ClearCell(ref.MustCell("E1000")); e.RecalculateAll() })
	for i, reshape := range []struct {
		name string
		do   func(*Engine)
	}{
		{"a row appended to C, which regrows", func(e *Engine) { mustFormula(t, e, "C2001", "A2001*B2001*$H$1") }},
		{"a record inserted mid-E", func(e *Engine) { mustFormula(t, e, "E1000", "SUM(C994:C1000)") }},
		{"a record deleted mid-D", func(e *Engine) { e.ClearCell(ref.MustCell("D1500")) }},
	} {
		both(func(e *Engine) { e.SetValue(ref.MustCell("H1"), formula.Num(1.06+float64(i)/100)) })
		if n := e.RecalculateN(budget); n != budget {
			t.Fatalf("%s: the first chunk drained %d cells, want %d", reshape.name, n, budget)
		}
		cut := e.sched != nil && len(e.sched.frontier) > 0
		if cut {
			nd := &e.sched.nodes[e.sched.frontier[0]]
			cut = nd.done > 0 && nd.done < nd.n
		}
		if !cut {
			t.Fatalf("%s: the budget did not end inside a span", reshape.name)
		}
		builds := e.schedBuilds
		both(reshape.do)
		if e.sched != nil {
			t.Fatalf("%s: the live schedule outlived the reshape", reshape.name)
		}
		for e.Pending() > 0 {
			if e.RecalculateN(budget) == 0 {
				t.Fatalf("%s: drain stalled with %d pending", reshape.name, e.Pending())
			}
		}
		serial.RecalculateAll()
		if e.schedBuilds == builds {
			t.Fatalf("%s: no rebuild after the reshape", reshape.name)
		}
		slabbedCells(t, e, reshape.name)
		checkRunTables(t, e, reshape.name)
		if g, w := e.NumCells(), serial.NumCells(); g != w {
			t.Fatalf("%s: %d cells, the serial twin %d", reshape.name, g, w)
		}
		serial.store.eachColumnMajor(func(at ref.Ref, c cell) error {
			g, clean := e.Peek(at)
			if w := c.value(); !clean || g.Kind != w.Kind || math.Float64bits(g.Num) != math.Float64bits(w.Num) || g.Err != w.Err {
				t.Errorf("%s, chunks of %d: %v = %v (clean %v), the serial twin has %v", reshape.name, sweepChunk, at, g, clean, w)
			}
			return nil
		})
	}
}

// TestBulkLoadAndRestoreAllocatePerColumn: the slab is the record allocator.
// A bulk load sizes each slab once, exactly, from its column's count; a restore
// stages a column and does the same, into the capacity a pooled column kept
// when that fits. Neither allocates per record — shown where nothing else allocates per cell either: the ledger with
// its values pasted over its formulas, and a restore around a pinned graph.
func TestBulkLoadAndRestoreAllocatePerColumn(t *testing.T) {
	runtime.GC()
	runtime.GC() // two collections empty the column pool: every slab below is allocated here
	e := ledgerEngine(t, 2000)
	var pasted []ParsedCell
	for ci, col := range e.store.cols {
		if len(col.meta) != cap(col.meta) || len(col.num) != cap(col.num) || len(col.rows) != cap(col.rows) {
			t.Errorf("column %d: %d metas in %d, %d floats in %d, %d rows in %d: want no slack after a bulk load",
				ci, len(col.meta), cap(col.meta), len(col.num), cap(col.num), len(col.rows), cap(col.rows))
		}
		for i, row := range col.rows {
			pasted = append(pasted, ParsedCell{At: ref.Ref{Col: ci, Row: row}, Value: col.value(i)})
		}
	}
	// A pooled slab is reused only where it fits: a short sheet loaded, or one
	// cell written, after a tall engine was recycled does not sit on its slabs.
	ledgerEngine(t, 2000).Recycle()
	short := ledgerEngine(t, 20)
	short.SetValue(ref.MustCell("Z1"), formula.Num(1))
	for ci, col := range short.store.cols {
		if n := len(col.rows); cap(col.meta) > n+n/8 || cap(col.num) > n+n/8 || cap(col.rows) > n+n/8 {
			t.Errorf("column %d: %d records in a slab of %d metas, %d floats, %d rows after a 2 000-row engine was recycled",
				ci, n, cap(col.meta), cap(col.num), cap(col.rows))
		}
	}
	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	cells, cols := e.NumCells(), len(e.store.cols)
	if allocs := testing.AllocsPerRun(5, func() { LoadBulkParsed(pasted) }); allocs > float64(cells/10) {
		t.Errorf("a bulk load of %d value cells in %d columns allocates %.0f times, want O(columns)", cells, cols, allocs)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g, prev := e.TACOGraph(), e
	allocs := testing.AllocsPerRun(5, func() {
		prev.Recycle()
		r, err := RestoreSnapshotWithGraph(bytes.NewReader(buf.Bytes()), g)
		if err != nil {
			t.Fatal(err)
		}
		prev = r
	})
	if prev.NumCells() != cells || allocs > float64(3*cols+64) { // one an array (rows, num, meta) of a column that fits no pooled slab, the stage's growth
		t.Errorf("a warm-pool restore of %d cells in %d columns allocates %.0f times (and holds %d), want none per record",
			cells, cols, allocs, prev.NumCells())
	}
}
