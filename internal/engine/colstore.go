package engine

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"taco/internal/formula"
	"taco/internal/ref"
)

// colStore is the engine's column-sliced cell storage: per column, a
// row-sorted slab of cell records, held by value as parallel arrays. It
// exploits the tabular regularity the TACO paper builds on — spreadsheet ranges
// are column-aligned rectangles, so a range read becomes a handful of
// contiguous per-column scans (one binary search each) instead of rows×cols
// map probes. It is also the engine's only cell index and the only holder of a
// record: a point read (get) is one column probe plus a binary search of that
// column's rows, and ncells counts the records.
//
// A record is split across the slab's arrays (see column): its row, its
// float and a 16-byte cellMeta — 32 bytes a cell with the row — plus, for the
// rare string value, a slot in the column's string table. A drain reads the
// floats as they lie: a numeric lane is a subslice of the slab, not a copy.
//
// Every cell handle and every window the store hands out is a slab index and
// is valid until that column's next insert or delete, which moves the records
// below it: nothing keeps one across a set of a new position or a delete (the
// engine drops its live schedule, whose nodes are such windows, on exactly
// those writes, and the column shifts its run table's slab indexes).
// Evaluation never reshapes a slab.
//
// The dirty set lives on the slabs too: membership is the dirty flag on the
// cell record, ndirty counts the flagged records, and each column keeps an
// ordered list of row spans that together cover its flagged cells (dirtyCols
// names, ascending, the columns whose list is non-empty). Enumerating the set
// is a column-major walk of those windows filtering on the flag — a span may
// still cover cells cleaned since it was noted — and the lists are dropped
// when the count reaches zero, so the bookkeeping is proportional to what was
// marked, never to the sheet's height.
//
// A span is dense when every record in it is flagged — what marking a window
// of formulas leaves — so a carve can take its records as they lie, without
// reading a flag. cuts counts the cleans that left the dirty set non-empty and
// the inserts into a column with spans; either may leave a hole in a dense
// span, so each one retires every dense mark at once: a span is dense while its
// stamp is cuts+1.
type colStore struct {
	cols      map[int]*column
	ncells    int
	ndirty    int
	dirtyCols []int
	cuts      uint64
}

// rowSpan is an inclusive row interval of one column; dense is the store's
// cuts+1 when it was noted dense (see colStore).
type rowSpan struct {
	r0, r1 int
	dense  uint64
}

// column is one row-ordered slab: rows sorted ascending and, parallel, the
// records — num the value of a number (zero for any other value), meta the
// rest. strs holds the string values, each at the slot its record's meta
// names, and free the slots an overwrite or a delete gave back: the slot rides
// in meta, so a record moved by an insert or a delete keeps it. dirty is the
// column's dirty-span list: ascending, disjoint, never touching. runs is the
// column's run table, valid while runsOK (see runTable).
type column struct {
	rows   []int
	num    []float64
	meta   []cellMeta
	strs   []string
	free   []uint32
	dirty  []rowSpan
	runs   []colRun
	runsOK bool
}

// colRun is one stretch of a column's run table: the n ≥ minPatternRun records
// from slab index i on, on contiguous rows from row on, that all intern to p.
type colRun struct {
	row, i, n int
	p         *formula.Program
}

// value builds the value of record i. A field at a time, from a Value holding
// the kind and the float (zero but for a number): one built in each arm of
// the switch is copied out through the stack, which stalls a read path on
// its partial writes.
func (c *column) value(i int) formula.Value {
	m := &c.meta[i]
	v := formula.Value{Kind: m.kind, Num: c.num[i]}
	switch m.kind {
	case formula.KindString:
		v.Str = c.strs[m.slot]
	case formula.KindBool:
		v.Bool = m.aux != 0
	case formula.KindError:
		v.Err = formula.ErrCode(m.aux)
	}
	return v
}

// number is value(i).AsNumber(), reading a number's float in place.
func (c *column) number(i int) (float64, bool) {
	if c.meta[i].kind == formula.KindNumber {
		return c.num[i], true
	}
	return c.value(i).AsNumber()
}

// numbers reports whether the records [lo, hi) all hold numbers, so their
// values are num[lo:hi] as they lie.
func (c *column) numbers(lo, hi int) bool {
	ms := c.meta[lo:hi]
	for i := range ms {
		if ms[i].kind != formula.KindNumber {
			return false
		}
	}
	return true
}

// put makes v the value of record i: a string into the slot the record holds
// or a free one, any other value into num and meta, giving a string's slot back.
func (c *column) put(i int, v formula.Value) {
	m := &c.meta[i]
	switch was := m.kind == formula.KindString; {
	case v.Kind == formula.KindString && !was:
		if n := len(c.free); n > 0 {
			m.slot, c.free = c.free[n-1], c.free[:n-1]
		} else {
			m.slot, c.strs = uint32(len(c.strs)), append(c.strs, "")
		}
	case v.Kind != formula.KindString && was:
		c.strs[m.slot], c.free = "", append(c.free, m.slot)
	}
	m.kind, m.aux, c.num[i] = v.Kind, 0, 0
	switch v.Kind {
	case formula.KindNumber:
		c.num[i] = v.Num
	case formula.KindString:
		c.strs[m.slot] = v.Str
	case formula.KindBool:
		if v.Bool {
			m.aux = 1
		}
	case formula.KindError:
		m.aux = uint8(v.Err)
	}
}

// record returns record i whole, its value built.
func (c *column) record(i int) record {
	m := &c.meta[i]
	return record{value: c.value(i), shape: m.shape, dirty: m.dirty}
}

// write replaces record i, which is on the slab, with r.
func (c *column) write(i int, r record) {
	c.meta[i].shape, c.meta[i].dirty, c.meta[i].evaluating = r.shape, r.dirty, 0
	c.put(i, r.value)
}

// columnPool and colMapPool recycle the store's containers across the
// spill/restore churn of a capped multi-tenant host: a restored session's
// column slabs come back from whatever engine was recycled last, so the
// eviction round-trip stops allocating once the pools warm up. Pooled
// columns keep their slab capacity (that is the point: it is the one record
// allocator there is) but are emptied — their metas zeroed to capacity and
// their string table cleared, so no shape or string stays reachable — before
// pooling.
var (
	columnPool = sync.Pool{New: func() any { return &column{} }}
	colMapPool = sync.Pool{New: func() any { return make(map[int]*column, 32) }}
)

func newColStore() colStore {
	return colStore{cols: colMapPool.Get().(map[int]*column)}
}

// recycle empties the store and returns its columns and column map to the
// package pools. Only for an owner discarding the whole engine (see
// Engine.Recycle); the store is unusable afterwards.
func (s *colStore) recycle() {
	for _, col := range s.cols {
		recycleColumn(col)
	}
	clear(s.cols)
	colMapPool.Put(s.cols)
	s.cols, s.ncells, s.ndirty, s.dirtyCols = nil, 0, 0, nil
}

func recycleColumn(col *column) {
	clear(col.meta[:cap(col.meta)]) // drop the shapes, whatever a reshape left past the end
	clear(col.strs[:cap(col.strs)]) // and the strings
	col.rows, col.num, col.meta = col.rows[:0], col.num[:0], col.meta[:0]
	col.strs, col.free = col.strs[:0], col.free[:0]
	col.dirty = col.dirty[:0]
	col.dropRuns()
	columnPool.Put(col)
}

// noteDirty records that n cells of col, all within rows r0..r1, were just
// flagged dirty — every record in r0..r1 when dense. The span is merged into
// the column's list, coalescing with every span it overlaps or touches, and
// stays dense if each of them is dense or lies inside r0..r1; marking walks a
// column top to bottom, so the common case appends to or extends the last span.
func (s *colStore) noteDirty(col, r0, r1, n int, dense bool) {
	c := s.cols[col]
	if len(c.dirty) == 0 {
		// A column deleted and re-created mid-epoch may still be listed.
		if i, listed := slices.BinarySearch(s.dirtyCols, col); !listed {
			s.dirtyCols = slices.Insert(s.dirtyCols, i, col)
		}
	}
	s.ndirty += n
	mark := uint64(0)
	if dense {
		mark = s.cuts + 1
	}
	d := c.dirty
	i, _ := slices.BinarySearchFunc(d, r0-1, func(sp rowSpan, row int) int { return sp.r1 - row })
	lo, hi, j := r0, r1, i
	for ; j < len(d) && d[j].r0 <= hi+1; j++ {
		if d[j].dense != mark && (d[j].r0 < r0 || d[j].r1 > r1) {
			mark = 0
		}
		lo, hi = min(lo, d[j].r0), max(hi, d[j].r1)
	}
	if i == j {
		c.dirty = slices.Insert(d, i, rowSpan{lo, hi, mark})
		return
	}
	d[i] = rowSpan{lo, hi, mark}
	c.dirty = slices.Delete(d, i+1, j)
}

// cleaned records that n flagged cells had their flag cleared (evaluated,
// overwritten or removed). When the last one goes, so do the span lists;
// otherwise the dense marks do.
func (s *colStore) cleaned(n int) {
	if s.ndirty -= n; s.ndirty > 0 {
		s.cuts++
		return
	}
	for _, ci := range s.dirtyCols {
		if c := s.cols[ci]; c != nil {
			c.dirty = c.dirty[:0]
		}
	}
	s.dirtyCols = s.dirtyCols[:0]
}

// dirtyWindows calls fn with the slab window [lo, hi) of each dirty span,
// column-major, until fn returns false; the flagged cells are the ones in
// those windows whose flag is still set — all of them when dense. fn may
// clean cells (never flag new ones): when it cleans the last one the span
// lists are dropped under the walk, which the length checks then end.
func (s *colStore) dirtyWindows(fn func(ci int, col *column, lo, hi int, dense bool) bool) {
	for i := 0; i < len(s.dirtyCols); i++ {
		ci := s.dirtyCols[i]
		col := s.cols[ci]
		if col == nil {
			continue // deleted since it was marked
		}
		for k := 0; k < len(col.dirty); k++ {
			sp := col.dirty[k]
			lo, hi := col.window(sp.r0, sp.r1)
			if !fn(ci, col, lo, hi, sp.dense == s.cuts+1) {
				return
			}
		}
	}
}

// get returns the record at the given position; ok is false when it is
// unpopulated.
func (s *colStore) get(at ref.Ref) (c cell, ok bool) {
	if col := s.cols[at.Col]; col != nil {
		if i, found := slices.BinarySearch(col.rows, at.Row); found {
			return cell{col, i}, true
		}
	}
	return cell{}, false
}

// column returns the slab of column ci, creating it with room for n records
// when the column is unpopulated — which is how a loader that knows a column's
// height sizes its slab once, with no growth copies and no growth slack. A
// pooled column keeps its capacity when that fits, at least n and at most an
// eighth over; otherwise its arrays are allocated exactly, one allocation
// each: a record is 32 bytes, and whatever capacity the pool happened to hand
// out would put a 2 000-row slab under a three-cell column for as long as the
// session is resident.
func (s *colStore) column(ci, n int) *column {
	col := s.cols[ci]
	if col == nil {
		col = columnPool.Get().(*column)
		caps := [...]int{cap(col.rows), cap(col.num), cap(col.meta)} // appends may have grown them apart
		if slices.Min(caps[:]) < n || slices.Max(caps[:]) > n+n/8 {
			col.rows, col.num, col.meta = make([]int, 0, n), make([]float64, 0, n), make([]cellMeta, 0, n)
		}
		s.cols[ci] = col
	}
	return col
}

// placed is a record at its position: what a whole-cell fill installs.
type placed struct {
	at  ref.Ref
	rec record
}

// fill installs cells, ascending column-major with no ref repeated, into
// columns not yet populated: each slab sized once for its column's run,
// every record through the append path. It returns the formula count.
func (s *colStore) fill(cells []placed) (nformulas int) {
	for i, p := range cells {
		if i == 0 || p.at.Col != cells[i-1].at.Col {
			n := 1
			for i+n < len(cells) && cells[i+n].at.Col == p.at.Col {
				n++
			}
			s.column(p.at.Col, n)
		}
		s.set(p.at, p.rec)
		if p.rec.shape != nil {
			nformulas++
		}
		if p.rec.dirty {
			s.noteDirty(p.at.Col, p.at.Row, p.at.Row, 1, true)
		}
	}
	return nformulas
}

// set installs the record at the given position and returns the one it
// replaced, had reporting whether there was one. Loaders feed cells in
// column-major order, so the append fast path handles bulk fills without a
// binary search per cell. A write that can change the column's run table
// repairs it; an insert mid-slab first shifts the stretches below it.
func (s *colStore) set(at ref.Ref, r record) (old record, had bool) {
	col := s.column(at.Col, 1)
	if n := len(col.rows); n == 0 || at.Row > col.rows[n-1] {
		col.rows = append(col.rows, at.Row)
		col.num = append(col.num, 0)
		col.meta = append(col.meta, cellMeta{})
		col.write(n, r)
		s.ncells++
		col.repairRuns(n)
		return record{}, false
	}
	i, found := slices.BinarySearch(col.rows, at.Row)
	if found {
		old = col.record(i)
		col.write(i, r)
		if old.shape != nil || r.shape != nil {
			col.repairRuns(i)
		}
		return old, true
	}
	if len(col.dirty) > 0 {
		s.cuts++ // the record may land inside a dense span
	}
	col.rows = slices.Insert(col.rows, i, at.Row)
	col.num = slices.Insert(col.num, i, 0)
	col.meta = slices.Insert(col.meta, i, cellMeta{})
	col.write(i, r)
	col.shiftRuns(i, 1)
	col.repairRuns(i)
	s.ncells++
	return record{}, false
}

// delete removes and returns the record at the given position, had reporting
// whether it was populated. The stretch that held it splits, and the ones
// below it shift up.
func (s *colStore) delete(at ref.Ref) (old record, had bool) {
	col := s.cols[at.Col]
	if col == nil {
		return record{}, false
	}
	i, found := slices.BinarySearch(col.rows, at.Row)
	if !found {
		return record{}, false
	}
	old = col.record(i)
	col.put(i, formula.Value{}) // gives a string's slot back
	col.cutRuns(i)
	col.shiftRuns(i+1, -1)
	col.rows = slices.Delete(col.rows, i, i+1)
	col.num = slices.Delete(col.num, i, i+1)
	col.meta = slices.Delete(col.meta, i, i+1) // zeroes the vacated tail meta
	s.ncells--
	if len(col.rows) == 0 {
		delete(s.cols, at.Col)
		recycleColumn(col)
	}
	return old, true
}

// window is the slab index interval [lo, hi) covering rows r1..r2.
func (c *column) window(r1, r2 int) (lo, hi int) {
	lo, _ = slices.BinarySearch(c.rows, r1)
	hi, _ = slices.BinarySearch(c.rows[lo:], r2+1)
	return lo, lo + hi
}

// The run table lists a column's stretches: every maximal run of at least
// minPatternRun records on contiguous rows that intern to one compiled program,
// and nothing else. It is what a carve intersects the dirty spans with (see
// runs.go), built by the first carve of a dense span over all of the
// column's records (see carve), and kept between epochs. A
// write of one record changes only the stretches through its row,
// and any stretch the table lacks is shorter than minPatternRun, so repairing
// one reads at most that many records on each side. An insert or a delete
// mid-slab also moves the slab indexes below it by one, and shifting them is
// all it costs the stretches it does not touch: no record changes its row, an
// insert fills a gap in the rows and a delete opens one, so neither lands
// inside another stretch.

// runTable returns the column's run table, building it if it is not valid.
func (c *column) runTable() []colRun {
	if !c.runsOK {
		c.runs, c.runsOK = c.appendStretches(c.runs[:0], 0, len(c.rows), false), true
	}
	return c.runs
}

// appendStretches appends to runs the stretches among the records at slab
// indexes lo..hi-1, counting only the flagged ones when flagged is set.
func (c *column) appendStretches(runs []colRun, lo, hi int, flagged bool) []colRun {
	prog := func(i int) *formula.Program {
		if flagged && !c.meta[i].dirty {
			return nil
		}
		return c.meta[i].program()
	}
	for i := lo; i < hi; {
		p, j := prog(i), i+1
		for p != nil && j < hi && c.rows[j] == c.rows[j-1]+1 && prog(j) == p {
			j++
		}
		if j-i >= minPatternRun {
			runs = append(runs, colRun{row: c.rows[i], i: i, n: j - i, p: p})
		}
		i = j
	}
	return runs
}

// formulas reports whether a valid run table shows the records [lo, hi) all
// formulas: stretches end to end across them.
func (c *column) formulas(lo, hi int) bool {
	if !c.runsOK {
		return false
	}
	k, _ := slices.BinarySearchFunc(c.runs, lo, func(st colRun, i int) int { return st.i + st.n - 1 - i })
	for ; k < len(c.runs) && c.runs[k].i <= lo; k++ {
		if lo = c.runs[k].i + c.runs[k].n; lo >= hi {
			return true
		}
	}
	return false
}

// dropRuns invalidates the run table, keeping its capacity.
func (c *column) dropRuns() {
	clear(c.runs)
	c.runs, c.runsOK = c.runs[:0], false
}

// repairRuns brings a valid run table up to date after the record at slab
// index i was written, every other record where it was: the stretch that held
// it splits, and the record joins what its program continues above and below.
func (c *column) repairRuns(i int) {
	if !c.runsOK {
		return
	}
	k := c.cutRuns(i)
	runs := c.runs
	if p := c.meta[i].program(); p != nil {
		lo, hi := i, i+1
		if k > 0 && runs[k-1].i+runs[k-1].n == i && runs[k-1].p == p && c.rows[i-1] == c.rows[i]-1 {
			k--
			lo = runs[k].i
			runs = slices.Delete(runs, k, k+1)
		} else {
			for lo > 0 && i-lo < minPatternRun && c.rows[lo-1] == c.rows[lo]-1 && c.meta[lo-1].program() == p {
				lo--
			}
		}
		if k < len(runs) && runs[k].i == i+1 && runs[k].p == p && c.rows[i+1] == c.rows[i]+1 {
			hi = i + 1 + runs[k].n
			runs = slices.Delete(runs, k, k+1)
		} else {
			for hi < len(c.rows) && hi-i <= minPatternRun && c.rows[hi] == c.rows[hi-1]+1 && c.meta[hi].program() == p {
				hi++
			}
		}
		if hi-lo >= minPatternRun {
			runs = slices.Insert(runs, k, colRun{row: c.rows[lo], i: lo, n: hi - lo, p: p})
		}
	}
	c.runs = runs
}

// cutRuns splits the stretch holding slab index i, if one does, into what is
// left of it above i and below, and returns the index of the first stretch
// below i.
func (c *column) cutRuns(i int) int {
	runs := c.runs
	k, _ := slices.BinarySearchFunc(runs, i, func(st colRun, i int) int { return st.i + st.n - 1 - i })
	if k < len(runs) && runs[k].i <= i {
		st := runs[k]
		runs = slices.Delete(runs, k, k+1)
		if up := i - st.i; up >= minPatternRun {
			runs = slices.Insert(runs, k, colRun{row: st.row, i: st.i, n: up, p: st.p})
			k++
		}
		if down := st.i + st.n - i - 1; down >= minPatternRun {
			runs = slices.Insert(runs, k, colRun{row: c.rows[i+1], i: i + 1, n: down, p: st.p})
		}
	}
	c.runs = runs
	return k
}

// shiftRuns moves the slab indexes of the stretches from index i on by d, as
// an insert (d = 1) or a delete (d = -1) at i moves their records.
func (c *column) shiftRuns(i, d int) {
	for k := len(c.runs) - 1; k >= 0 && c.runs[k].i >= i; k-- {
		c.runs[k].i += d
	}
}

// foldCursor is one column's slab window with a scan position, the slab
// index i: rows is the column's rows up to the window's end, r1 the window's
// first row. It is the unit of the row-major merge below and of a sweep's
// operand reads (runs.go). col is nil, and the window empty, over an
// unpopulated column.
type foldCursor struct {
	ci   int
	col  *column
	rows []int
	i    int
	r1   int
}

// cursor returns column ci's window of rows r1..r2.
func (s *colStore) cursor(ci, r1, r2 int) foldCursor {
	cu := foldCursor{ci: ci, col: s.cols[ci], r1: r1}
	if cu.col != nil {
		lo, hi := cu.col.window(r1, r2)
		cu.rows, cu.i = cu.col.rows[:hi], lo
	}
	return cu
}

// row is the row at the cursor's position, which must be inside the window.
func (cu *foldCursor) row() int { return cu.rows[cu.i] }

// cursors appends the populated column windows of rng to curs, in ascending
// column order; a range crossing empty columns costs one map probe each.
func (s *colStore) cursors(rng ref.Range, curs []foldCursor) []foldCursor {
	for c := rng.Head.Col; c <= rng.Tail.Col; c++ {
		if cu := s.cursor(c, rng.Head.Row, rng.Tail.Row); cu.i < len(cu.rows) {
			curs = append(curs, cu)
		}
	}
	return curs
}

// probe advances the cursor to row (monotonic: callers feed ascending rows)
// and returns the slab index of the record stored there; ok is false when the
// row is unpopulated.
func (cu *foldCursor) probe(row int) (i int, ok bool) {
	for cu.i < len(cu.rows) && cu.row() < row {
		cu.i++
	}
	return cu.i, cu.i < len(cu.rows) && cu.row() == row
}

// mergeScratch is a merge's memory on its caller's stack: a merge of up to
// 32 cursors — both sides of a 16-column SUMPRODUCT — allocates nothing.
type mergeScratch struct {
	curs [32]foldCursor
	h    [32]int
}

// rowMerge is the row-major merge every range read takes (scanRange and the
// folds): a binary min-heap of its cursors that are not exhausted, keyed by
// the offset of each one's cell from its window's first row, then by the
// cursor's index. The cursors of one rectangle, in column order, visit its
// cells in row-major order — the per-cell path's order, so a fold and
// per-cell iteration see a range's first error and add its floats
// identically; two equal-shape rectangles' cursors, paired per column, visit
// both rectangles' cells at each offset together, the first one's first. A
// heap entry is its key packed into one int, offset<<shift | index, so a cell
// costs O(log cursors) integer compares.
type rowMerge struct {
	curs        []foldCursor
	h           []int
	shift, mask int
}

// mergeOf starts a merge over curs, its heap in h's memory.
func mergeOf(curs []foldCursor, h []int) rowMerge {
	shift := bits.Len(uint(len(curs)))
	m := rowMerge{curs: curs, h: h[:0], shift: shift, mask: 1<<shift - 1}
	for k := range curs {
		if cu := &curs[k]; cu.i < len(cu.rows) {
			m.h = append(m.h, (cu.row()-cu.r1)<<shift|k)
		}
	}
	for j := len(m.h)/2 - 1; j >= 0; j-- {
		m.down(j)
	}
	return m
}

// merge starts a merge over rng's columns.
func (s *colStore) merge(rng ref.Range, sc *mergeScratch) rowMerge {
	return mergeOf(s.cursors(rng, sc.curs[:0]), sc.h[:0])
}

// head returns the index of the cursor at the next cell, -1 when every one
// is exhausted.
func (m *rowMerge) head() int {
	if len(m.h) == 0 {
		return -1
	}
	return m.h[0] & m.mask
}

// offset is the head cell's row offset in its window.
func (m *rowMerge) offset() int {
	cu := &m.curs[m.h[0]&m.mask]
	return cu.row() - cu.r1
}

// next moves the head cursor past its cell and returns the new head. A sole
// cursor just steps: nothing else reads its key.
func (m *rowMerge) next() int {
	k := m.h[0] & m.mask
	cu := &m.curs[k]
	if cu.i++; len(m.h) > 1 || cu.i == len(cu.rows) {
		return m.sift(k)
	}
	return k
}

// sift re-keys the head cursor k, which just stepped, and sifts its entry
// down, or takes it out of the heap when k is exhausted.
func (m *rowMerge) sift(k int) int {
	if cu := &m.curs[k]; cu.i < len(cu.rows) {
		m.h[0] = (cu.row()-cu.r1)<<m.shift | k
	} else {
		n := len(m.h) - 1
		m.h[0], m.h = m.h[n], m.h[:n]
	}
	m.down(0)
	return m.head()
}

// down sifts the heap entry at j down to its place.
func (m *rowMerge) down(j int) {
	h := m.h
	for {
		l, least := 2*j+1, j
		if l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := l + 1; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == j {
			return
		}
		h[j], h[least] = h[least], h[j]
		j = least
	}
}

// scanRange visits every populated cell of rng in row-major order — the
// order the per-cell evaluation path uses, so bulk and per-cell consumers
// observe values (and in particular a range's first error) identically.
// Unpopulated cells are skipped; that is the point. Returns false if fn
// stopped the scan early.
func (s *colStore) scanRange(rng ref.Range, fn func(at ref.Ref, c cell) bool) bool {
	var sc mergeScratch
	m := s.merge(rng, &sc)
	for k := m.head(); k >= 0; k = m.next() {
		cu := &m.curs[k]
		if !fn(ref.Ref{Col: cu.ci, Row: cu.row()}, cell{cu.col, cu.i}) {
			return false
		}
	}
	return true
}

// foldAcc accumulates one cell into a NumericFold with the exact per-cell
// semantics of the streaming path: dirty cells resolve through dirtyVal
// when non-nil (the eval resolver evaluates them; nil folds the stale
// value, matching the side-effect-free read path). sumOnly leaves Min and Max
// alone, for a consumer that reads neither: over a short fold their strict
// comparisons mispredict on most numbers.
type foldAcc struct {
	f        formula.NumericFold
	dirtyVal func(ref.Ref, cell) formula.Value
	sumOnly  bool
}

// add folds the record's value, a number's float read in place.
func (a *foldAcc) add(at ref.Ref, c cell) {
	switch m := c.meta(); {
	case m.dirty && a.dirtyVal != nil:
		a.addValue(a.dirtyVal(at, c))
	case m.kind == formula.KindNumber:
		a.addNum(c.col.num[c.i])
	default:
		a.addValue(c.value())
	}
}

// addRecords folds the records [lo, hi) of column ci, in order: each run of
// numbers through addNumbers, every other record through add.
func (a *foldAcc) addRecords(ci int, col *column, lo, hi int) {
	for i := lo; i < hi; i++ {
		if i = a.addNumbers(col, i, hi); i < hi {
			a.add(ref.Ref{Col: ci, Row: col.rows[i]}, cell{col, i})
		}
	}
}

// addNumbers folds the run of records from lo, short of hi, that hold
// numbers — clean ones, when a dirty record resolves through dirtyVal — their
// floats as they lie, and returns where the run ends. Four records at a time
// pay one branch for their four kinds, off the sum's dependency chain, so the
// run costs about what its additions cost; the extrema take a second pass.
func (a *foldAcc) addNumbers(col *column, lo, hi int) int {
	ms, ns := col.meta[lo:hi], col.num[lo:hi]
	ns = ns[:len(ms)]
	dirty, sum, n := a.dirtyVal != nil, a.f.Sum, 0 // dirty: a dirty record ends the run
	for ; n+4 <= len(ms); n += 4 {
		m := ms[n : n+4 : n+4]
		if m[0].kind != formula.KindNumber || m[1].kind != formula.KindNumber ||
			m[2].kind != formula.KindNumber || m[3].kind != formula.KindNumber ||
			dirty && (m[0].dirty || m[1].dirty || m[2].dirty || m[3].dirty) {
			break
		}
		v := ns[n : n+4 : n+4]
		sum = sum + v[0] + v[1] + v[2] + v[3]
	}
	for ; n < len(ms) && ms[n].kind == formula.KindNumber && !(dirty && ms[n].dirty); n++ {
		sum += ns[n]
	}
	f := &a.f
	f.Sum, f.Count, f.NonEmpty = sum, f.Count+n, f.NonEmpty+n
	if !a.sumOnly {
		for _, v := range ns[:n] {
			if v < f.Min {
				f.Min = v
			}
			if v > f.Max {
				f.Max = v
			}
		}
	}
	return lo + n
}

// addNum folds one number.
func (a *foldAcc) addNum(v float64) {
	f := &a.f
	f.Sum += v
	f.Count++
	f.NonEmpty++
	if a.sumOnly {
		return
	}
	if v < f.Min {
		f.Min = v
	}
	if v > f.Max {
		f.Max = v
	}
}

// addValue folds one value.
func (a *foldAcc) addValue(v formula.Value) {
	switch v.Kind {
	case formula.KindNumber:
		a.addNum(v.Num)
	case formula.KindEmpty:
		// A stored blank counts nowhere, like an unpopulated cell.
	case formula.KindError:
		a.f.NonEmpty++
		if !a.f.Err.IsError() {
			a.f.Err = v
		}
	default: // string, bool: non-blank, non-numeric
		a.f.NonEmpty++
	}
}

// foldRange is the batched numeric fold behind formula.RangeFolder: one
// pass over the range's slab windows accumulating everything the plain
// aggregates need (sum, counts, extrema, first error) without surfacing a
// callback per cell. A single column — the common aggregation shape — walks
// one window, adding each run of clean numbers' floats as they lie
// (addRecords, as the sweep's fold windows do); a rectangle takes the
// row-major merge. Either way the accumulation stays a sequential
// left-to-right chain (Go never reassociates float expressions), so the sum
// is bit-identical to per-cell iteration.
func (s *colStore) foldRange(rng ref.Range, dirtyVal func(ref.Ref, cell) formula.Value) formula.NumericFold {
	acc := foldAcc{f: formula.NumericFold{Min: math.Inf(1), Max: math.Inf(-1)}, dirtyVal: dirtyVal}
	if rng.Head.Col == rng.Tail.Col {
		cu := s.cursor(rng.Head.Col, rng.Head.Row, rng.Tail.Row) // over no column: no records
		acc.addRecords(cu.ci, cu.col, cu.i, len(cu.rows))
		return acc.f
	}
	var sc mergeScratch
	m := s.merge(rng, &sc)
	for k := m.head(); k >= 0; k = m.next() {
		cu := &m.curs[k]
		acc.add(ref.Ref{Col: cu.ci, Row: cu.row()}, cell{cu.col, cu.i})
	}
	return acc.f
}

// cellVal resolves one stored cell's value with the fold paths' dirty
// semantics (see foldAcc).
func cellVal(at ref.Ref, c cell, dirtyVal func(ref.Ref, cell) formula.Value) formula.Value {
	if dirtyVal != nil && c.meta().dirty {
		return dirtyVal(at, c)
	}
	return c.value()
}

// foldSumIf is the slab fold behind formula.RangeFolder.FoldSumIf. The
// criterion cells are merged in row-major order; each match reads the sum
// cell at its offset from sumRng's head, however far past sumRng's own tail
// that lies — the sum cells span the criterion range's shape, as on the
// per-cell path — through a monotonic cursor per column, and an unpopulated
// one adds 0 (Empty coerces to 0). The caller guarantees the criterion does
// not match blanks, so skipping unpopulated criterion cells is exact.
func (s *colStore) foldSumIf(critRng ref.Range, crit formula.Criterion, sumRng ref.Range, dirtyVal func(ref.Ref, cell) formula.Value) float64 {
	var sc mergeScratch
	curs := s.cursors(critRng, sc.curs[:0])
	var sums []foldCursor // sums[k] pairs curs[k]; nil when each criterion cell is its own sum cell
	if sumRng.Head != critRng.Head {
		sums = curs[len(curs):]
		for k := range curs {
			sums = append(sums, s.cursor(curs[k].ci-critRng.Head.Col+sumRng.Head.Col, sumRng.Head.Row, sumRng.Head.Row+critRng.Rows()-1))
		}
	}
	dRow := sumRng.Head.Row - critRng.Head.Row
	total := 0.0
	m := mergeOf(curs, sc.h[:0])
	for k := m.head(); k >= 0; k = m.next() {
		cu := &curs[k]
		row := cu.row()
		v := cellVal(ref.Ref{Col: cu.ci, Row: row}, cell{cu.col, cu.i}, dirtyVal)
		if !crit.Matches(v) {
			continue
		}
		if sums != nil {
			su, srow := &sums[k], row+dRow
			v = formula.Empty()
			if i, ok := su.probe(srow); ok {
				v = cellVal(ref.Ref{Col: su.ci, Row: srow}, cell{su.col, i}, dirtyVal)
			}
		}
		if f, ok := v.AsNumber(); ok {
			total += f
		}
	}
	return total
}

// foldSumProduct is the slab fold behind formula.RangeFolder.FoldSumProduct
// over two equal-shape rectangles (the caller checks shape). It merges both
// rectangles' cursors, paired per column, so it visits the union of their
// populated offsets in row-major order, reading a's cell before b's, and adds
// formula.SumProductFactor of each side's value — Empty's for a side
// unpopulated there — multiplied. That is the per-cell path's sum without its
// terms where both sides are unpopulated: each of those is 0·0 = +0, and a
// total that starts at +0 is never -0, so dropping them changes no bit.
func (s *colStore) foldSumProduct(a, b ref.Range, dirtyVal func(ref.Ref, cell) formula.Value) float64 {
	var sc mergeScratch
	curs := sc.curs[:0]
	for k := 0; k < a.Cols(); k++ {
		curs = append(curs, s.cursor(a.Head.Col+k, a.Head.Row, a.Tail.Row), s.cursor(b.Head.Col+k, b.Head.Row, b.Tail.Row))
	}
	factor := func(cu *foldCursor) float64 {
		return formula.SumProductFactor(cellVal(ref.Ref{Col: cu.ci, Row: cu.row()}, cell{cu.col, cu.i}, dirtyVal))
	}
	total := 0.0
	m := mergeOf(curs, sc.h[:0])
	for k := m.head(); k >= 0; {
		// One offset: a's cell, then b's, whichever of them is populated.
		var f [2]float64
		pair, off := k|1, m.offset()
		for ; k >= 0 && k|1 == pair && m.offset() == off; k = m.next() {
			f[k&1] = factor(&curs[k])
		}
		total += f[0] * f[1]
	}
	return total
}

// columnOrder returns the populated columns' indexes, ascending: the
// deterministic order snapshots are written in.
func (s *colStore) columnOrder() []int {
	cols := make([]int, 0, len(s.cols))
	for c := range s.cols {
		cols = append(cols, c)
	}
	slices.Sort(cols)
	return cols
}

// CellStoreStats describes the columnar store's shape — the stats seam the
// serving layer surfaces next to the graph's compression stats.
type CellStoreStats struct {
	Columns      int // populated columns
	Cells        int // stored cells
	LongestSlab  int // rows in the fullest column
	SlabCapacity int // total slab capacity (rows), incl. growth slack
}

// stats computes the store's shape summary.
func (s *colStore) stats() CellStoreStats {
	st := CellStoreStats{Columns: len(s.cols), Cells: s.ncells}
	for _, col := range s.cols {
		st.SlabCapacity += cap(col.rows)
		if len(col.rows) > st.LongestSlab {
			st.LongestSlab = len(col.rows)
		}
	}
	return st
}
