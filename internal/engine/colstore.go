package engine

import (
	"math"
	"slices"
	"sync"

	"taco/internal/formula"
	"taco/internal/ref"
)

// colStore is the engine's column-sliced cell storage: per column, a
// row-sorted slab of cell records, held by value. It exploits the tabular
// regularity the TACO paper builds on — spreadsheet ranges are column-aligned
// rectangles, so a range read becomes a handful of contiguous per-column
// scans (one binary search each) instead of rows×cols map probes. It is also
// the engine's only cell index and the only holder of a record: a point read
// (get) is one column probe plus a binary search of that column's rows, and
// ncells counts the records.
//
// Every *cell and every []cell window the store hands out points into a slab
// and is valid until that column's next insert or delete, which may move the
// records: nothing keeps one across a set of a new position or a delete (the
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

// column is one row-ordered slab: rows sorted ascending, cells — the records
// themselves — parallel. dirty is the column's dirty-span list: ascending,
// disjoint, never touching. runs is the column's run table, valid while
// runsOK (see runTable).
type column struct {
	rows   []int
	cells  []cell
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

// columnPool and colMapPool recycle the store's containers across the
// spill/restore churn of a capped multi-tenant host: a restored session's
// column slabs come back from whatever engine was recycled last, so the
// eviction round-trip stops allocating once the pools warm up. Pooled
// columns keep their slab capacity (that is the point: it is the one record
// allocator there is) but are emptied — and their records zeroed, so no shape
// or string stays reachable — before pooling.
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
	clear(col.cells) // drop the records' shape and string references before pooling
	col.rows = col.rows[:0]
	col.cells = col.cells[:0]
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

// dirtyWindows calls fn with the slab window col.cells[lo:hi] of each dirty
// span, column-major, until fn returns false; the flagged cells are the ones
// in those windows whose flag is still set — all of them when dense. fn may
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

// get returns the record at the given position, nil when it is unpopulated.
func (s *colStore) get(at ref.Ref) *cell {
	if col := s.cols[at.Col]; col != nil {
		if i, found := slices.BinarySearch(col.rows, at.Row); found {
			return &col.cells[i]
		}
	}
	return nil
}

// column returns the slab of column ci, creating it with room for n records
// when the column is unpopulated — which is how a loader that knows a column's
// height sizes its slab once, with no growth copies and no growth slack. A
// pooled column keeps its capacity when that fits, at least n and at most an
// eighth over; otherwise its slab is allocated exactly: a record is 48 bytes,
// and whatever capacity the pool happened to hand out would put a 2 000-row
// slab under a three-cell column for as long as the session is resident.
func (s *colStore) column(ci, n int) *column {
	col := s.cols[ci]
	if col == nil {
		col = columnPool.Get().(*column)
		if c := cap(col.cells); c < n || c > n+n/8 {
			col.rows, col.cells = make([]int, 0, n), make([]cell, 0, n)
		}
		s.cols[ci] = col
	}
	return col
}

// set installs the record at the given position and returns the one it
// replaced, had reporting whether there was one. Loaders feed cells in
// column-major order, so the append fast path handles bulk fills without a
// binary search per cell. A write that can change the column's run table
// repairs it; an insert mid-slab first shifts the stretches below it.
func (s *colStore) set(at ref.Ref, c cell) (old cell, had bool) {
	col := s.column(at.Col, 1)
	if n := len(col.rows); n == 0 || at.Row > col.rows[n-1] {
		col.rows = append(col.rows, at.Row)
		col.cells = append(col.cells, c)
		s.ncells++
		col.repairRuns(n)
		return cell{}, false
	}
	i, found := slices.BinarySearch(col.rows, at.Row)
	if found {
		old, col.cells[i] = col.cells[i], c
		if old.shape != nil || c.shape != nil {
			col.repairRuns(i)
		}
		return old, true
	}
	if len(col.dirty) > 0 {
		s.cuts++ // the record may land inside a dense span
	}
	col.rows = slices.Insert(col.rows, i, at.Row)
	col.cells = slices.Insert(col.cells, i, c)
	col.shiftRuns(i, 1)
	col.repairRuns(i)
	s.ncells++
	return cell{}, false
}

// delete removes and returns the record at the given position, had reporting
// whether it was populated. The stretch that held it splits, and the ones
// below it shift up.
func (s *colStore) delete(at ref.Ref) (old cell, had bool) {
	col := s.cols[at.Col]
	if col == nil {
		return cell{}, false
	}
	i, found := slices.BinarySearch(col.rows, at.Row)
	if !found {
		return cell{}, false
	}
	old = col.cells[i]
	col.cutRuns(i)
	col.shiftRuns(i+1, -1)
	col.rows = slices.Delete(col.rows, i, i+1)
	col.cells = slices.Delete(col.cells, i, i+1) // zeroes the vacated tail record
	s.ncells--
	if len(col.rows) == 0 {
		delete(s.cols, at.Col)
		recycleColumn(col)
	}
	return old, true
}

// view returns the slab window covering rows r1..r2: the rows populated
// there and, parallel, their records.
func (c *column) view(r1, r2 int) (rows []int, cells []cell) {
	lo, hi := c.window(r1, r2)
	return c.rows[lo:hi], c.cells[lo:hi]
}

// window is view's slab index interval [lo, hi).
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
		c.runs, c.runsOK = c.appendStretches(c.runs[:0], 0, len(c.cells), false), true
	}
	return c.runs
}

// appendStretches appends to runs the stretches among the records at slab
// indexes lo..hi-1, counting only the flagged ones when flagged is set.
func (c *column) appendStretches(runs []colRun, lo, hi int, flagged bool) []colRun {
	prog := func(i int) *formula.Program {
		if flagged && !c.cells[i].dirty {
			return nil
		}
		return c.cells[i].program()
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
	if p := c.cells[i].program(); p != nil {
		lo, hi := i, i+1
		if k > 0 && runs[k-1].i+runs[k-1].n == i && runs[k-1].p == p && c.rows[i-1] == c.rows[i]-1 {
			k--
			lo = runs[k].i
			runs = slices.Delete(runs, k, k+1)
		} else {
			for lo > 0 && i-lo < minPatternRun && c.rows[lo-1] == c.rows[lo]-1 && c.cells[lo-1].program() == p {
				lo--
			}
		}
		if k < len(runs) && runs[k].i == i+1 && runs[k].p == p && c.rows[i+1] == c.rows[i]+1 {
			hi = i + 1 + runs[k].n
			runs = slices.Delete(runs, k, k+1)
		} else {
			for hi < len(c.cells) && hi-i <= minPatternRun && c.rows[hi] == c.rows[hi-1]+1 && c.cells[hi].program() == p {
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

// foldCursor is one column's slab window with a scan position — the unit of
// the row-major merges below and of a sweep's operand reads (runs.go).
type foldCursor struct {
	col   int
	rows  []int
	cells []cell
	i     int
}

// cursors appends the populated column windows of rng to curs, in ascending
// column order; a range crossing empty columns costs one map probe each.
func (s *colStore) cursors(rng ref.Range, curs []foldCursor) []foldCursor {
	for c := rng.Head.Col; c <= rng.Tail.Col; c++ {
		if col := s.cols[c]; col != nil {
			if rows, cells := col.view(rng.Head.Row, rng.Tail.Row); len(rows) > 0 {
				curs = append(curs, foldCursor{col: c, rows: rows, cells: cells})
			}
		}
	}
	return curs
}

// minHead returns the cursor with the lowest current row, nil when every one
// is exhausted. Ties resolve to the lowest column because cursors are stored
// in column order and the comparison is strict, so taking minHead until nil
// visits cells in exactly the streaming scan's row-major order.
func minHead(curs []foldCursor) *foldCursor {
	var best *foldCursor
	for k := range curs {
		if cu := &curs[k]; cu.i < len(cu.rows) && (best == nil || cu.rows[cu.i] < best.rows[best.i]) {
			best = cu
		}
	}
	return best
}

// probe advances the cursor to row (monotonic: callers feed ascending rows)
// and returns the cell stored there, or nil when the row is unpopulated.
func (cu *foldCursor) probe(row int) *cell {
	for cu.i < len(cu.rows) && cu.rows[cu.i] < row {
		cu.i++
	}
	if cu.i < len(cu.rows) && cu.rows[cu.i] == row {
		return &cu.cells[cu.i]
	}
	return nil
}

// scanRange visits every populated cell of rng in row-major order — the
// order the per-cell evaluation path uses, so bulk and per-cell consumers
// observe values (and in particular a range's first error) identically.
// Unpopulated cells are skipped; that is the point. Returns false if fn
// stopped the scan early.
//
// A single-column range (the common aggregation shape) is one binary search
// plus a linear walk. Multi-column ranges merge the per-column windows with
// a small binary heap keyed on (row, col) — O(cells · log cols), no
// per-cell point reads.
func (s *colStore) scanRange(rng ref.Range, fn func(at ref.Ref, c *cell) bool) bool {
	if rng.Head.Col == rng.Tail.Col {
		col := s.cols[rng.Head.Col]
		if col == nil {
			return true
		}
		rows, cells := col.view(rng.Head.Row, rng.Tail.Row)
		for i := range cells {
			if !fn(ref.Ref{Col: rng.Head.Col, Row: rows[i]}, &cells[i]) {
				return false
			}
		}
		return true
	}
	curs := s.cursors(rng, nil)
	// Binary min-heap of cursor indices, ordered by (current row, column).
	less := func(a, b int) bool {
		ca, cb := &curs[a], &curs[b]
		if ca.rows[ca.i] != cb.rows[cb.i] {
			return ca.rows[ca.i] < cb.rows[cb.i]
		}
		return ca.col < cb.col
	}
	h := make([]int, len(curs))
	for i := range h {
		h[i] = i
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		c := &curs[h[0]]
		if !fn(ref.Ref{Col: c.col, Row: c.rows[c.i]}, &c.cells[c.i]) {
			return false
		}
		c.i++
		if c.i == len(c.rows) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			down(0)
		}
	}
	return true
}

// maxFoldCols bounds the column fan-in of the multi-column fold paths
// (foldRange rectangles, foldSumProduct): the cursor merge scans every
// column head per cell, so wider rectangles stay on the heap-merge
// streaming path, which is O(cells · log cols).
const maxFoldCols = 16

// foldAcc accumulates one cell into a NumericFold with the exact per-cell
// semantics of the streaming path: dirty cells resolve through dirtyVal
// when non-nil (the eval resolver evaluates them; nil folds the stale
// value, matching the side-effect-free read path). sumOnly leaves Min and Max
// alone, for a consumer that reads neither: over a short fold their strict
// comparisons mispredict on most numbers.
type foldAcc struct {
	f        formula.NumericFold
	dirtyVal func(ref.Ref, *cell) formula.Value
	sumOnly  bool
}

// add reads the record's value in place: 32 bytes, of which a number needs 8.
func (a *foldAcc) add(at ref.Ref, c *cell) {
	v := &c.value
	if c.dirty && a.dirtyVal != nil {
		dv := a.dirtyVal(at, c)
		v = &dv
	}
	switch v.Kind {
	case formula.KindNumber:
		a.f.Sum += v.Num
		a.f.Count++
		a.f.NonEmpty++
		if a.sumOnly {
			return
		}
		if v.Num < a.f.Min {
			a.f.Min = v.Num
		}
		if v.Num > a.f.Max {
			a.f.Max = v.Num
		}
	case formula.KindEmpty:
		// A stored blank counts nowhere, like an unpopulated cell.
	case formula.KindError:
		a.f.NonEmpty++
		if !a.f.Err.IsError() {
			a.f.Err = *v
		}
	default: // string, bool: non-blank, non-numeric
		a.f.NonEmpty++
	}
}

// foldRange is the batched numeric fold behind formula.RangeFolder: one
// tight pass over the range's slab windows accumulating everything the plain
// aggregates need (sum, counts, extrema, first error) without surfacing a
// callback per cell. Single columns — the common aggregation shape — walk
// one window; dense slab runs of four consecutive clean numeric cells take a
// blocked fast path that pays one branch per four cells. Multi-column
// rectangles up to maxFoldCols merge their per-column windows with a
// min-scan over the cursor heads, visiting cells in exactly the row-major
// order the streaming scan uses; wider rectangles report handled=false. On
// every path the accumulation stays a sequential left-to-right chain (Go
// never reassociates float expressions), so the sum is bit-identical to
// per-cell iteration.
func (s *colStore) foldRange(rng ref.Range, dirtyVal func(ref.Ref, *cell) formula.Value) (formula.NumericFold, bool) {
	if rng.Head.Col != rng.Tail.Col {
		return s.foldRect(rng, dirtyVal)
	}
	acc := foldAcc{f: formula.NumericFold{Min: math.Inf(1), Max: math.Inf(-1)}, dirtyVal: dirtyVal}
	col := s.cols[rng.Head.Col]
	if col == nil {
		return acc.f, true
	}
	rows, cells := col.view(rng.Head.Row, rng.Tail.Row)
	f := &acc.f
	slow := func(i int) {
		acc.add(ref.Ref{Col: rng.Head.Col, Row: rows[i]}, &cells[i])
	}
	i, n := 0, len(cells)
	for ; i+4 <= n; i += 4 {
		b := cells[i : i+4] // one bounds check for the four records, read in place
		c0, c1, c2, c3 := &b[0], &b[1], &b[2], &b[3]
		if !(c0.dirty || c1.dirty || c2.dirty || c3.dirty) &&
			c0.value.Kind == formula.KindNumber && c1.value.Kind == formula.KindNumber &&
			c2.value.Kind == formula.KindNumber && c3.value.Kind == formula.KindNumber {
			v0, v1, v2, v3 := c0.value.Num, c1.value.Num, c2.value.Num, c3.value.Num
			f.Sum = f.Sum + v0 + v1 + v2 + v3
			f.Count += 4
			f.NonEmpty += 4
			if v0 < f.Min {
				f.Min = v0
			}
			if v1 < f.Min {
				f.Min = v1
			}
			if v2 < f.Min {
				f.Min = v2
			}
			if v3 < f.Min {
				f.Min = v3
			}
			if v0 > f.Max {
				f.Max = v0
			}
			if v1 > f.Max {
				f.Max = v1
			}
			if v2 > f.Max {
				f.Max = v2
			}
			if v3 > f.Max {
				f.Max = v3
			}
			continue
		}
		slow(i)
		slow(i + 1)
		slow(i + 2)
		slow(i + 3)
	}
	for ; i < n; i++ {
		slow(i)
	}
	return acc.f, true
}

// foldRect folds a multi-column rectangle by taking the lowest cursor head
// until none is left (minHead), which reproduces the streaming scan's
// row-major visit order exactly, so Sum/Err match bit-for-bit. A rectangle
// wider than maxFoldCols reports handled=false (the caller falls back to the
// streaming scan).
func (s *colStore) foldRect(rng ref.Range, dirtyVal func(ref.Ref, *cell) formula.Value) (formula.NumericFold, bool) {
	if rng.Cols() > maxFoldCols {
		return formula.NumericFold{}, false
	}
	var buf [maxFoldCols]foldCursor
	curs := s.cursors(rng, buf[:0])
	acc := foldAcc{f: formula.NumericFold{Min: math.Inf(1), Max: math.Inf(-1)}, dirtyVal: dirtyVal}
	for cu := minHead(curs); cu != nil; cu = minHead(curs) {
		acc.add(ref.Ref{Col: cu.col, Row: cu.rows[cu.i]}, &cu.cells[cu.i])
		cu.i++
	}
	return acc.f, true
}

// cellVal resolves one stored cell's value with the fold paths' dirty
// semantics (see foldAcc).
func cellVal(at ref.Ref, c *cell, dirtyVal func(ref.Ref, *cell) formula.Value) formula.Value {
	if c.dirty && dirtyVal != nil {
		return dirtyVal(at, c)
	}
	return c.value
}

// foldSumIf is the slab fold behind formula.CondFolder.FoldSumIf for the
// canonical SUMIF shape: single-column criterion range, single-column sum
// range of the same height. The criterion column is walked once; each match
// probes the sum column at a constant row offset with a monotonic cursor, so
// the whole call is two merged slab walks. An unpopulated sum cell
// contributes 0 (Empty coerces to 0), exactly as the streaming path's
// CellValue probe does. The caller guarantees the criterion does not match
// blanks, so unpopulated criterion cells are correctly skipped. Other
// shapes report handled=false.
func (s *colStore) foldSumIf(critRng ref.Range, crit formula.Criterion, sumRng ref.Range, dirtyVal func(ref.Ref, *cell) formula.Value) (float64, bool) {
	if critRng.Head.Col != critRng.Tail.Col || sumRng.Head.Col != sumRng.Tail.Col {
		return 0, false
	}
	same := critRng == sumRng
	col := s.cols[critRng.Head.Col]
	if col == nil {
		return 0, true
	}
	rows, cells := col.view(critRng.Head.Row, critRng.Tail.Row)
	var sumCur foldCursor
	if !same {
		if sc := s.cols[sumRng.Head.Col]; sc != nil {
			sumCur.rows, sumCur.cells = sc.view(sumRng.Head.Row, sumRng.Tail.Row)
		}
	}
	dRow := sumRng.Head.Row - critRng.Head.Row
	total := 0.0
	for i := range rows {
		v := cellVal(ref.Ref{Col: critRng.Head.Col, Row: rows[i]}, &cells[i], dirtyVal)
		if !crit.Matches(v) {
			continue
		}
		sv := v
		if !same {
			sv = formula.Empty()
			srow := rows[i] + dRow
			if sc := sumCur.probe(srow); sc != nil {
				sv = cellVal(ref.Ref{Col: sumRng.Head.Col, Row: srow}, sc, dirtyVal)
			}
		}
		if f, ok := sv.AsNumber(); ok {
			total += f
		}
	}
	return total, true
}

// foldSumProduct is the slab fold behind formula.CondFolder.FoldSumProduct
// for the two-argument SUMPRODUCT: equal-shape rectangles (the caller checks
// shape) up to maxFoldCols wide. It first replays the streaming path's
// finite guard over both rectangles — any stored non-finite number bails to
// handled=false so the caller's exact-compensation fallback runs — then
// scans the first rectangle's populated cells in row-major order, pairing
// each with the second rectangle's cell at the same offset via per-column
// monotonic cursors. Positions unpopulated in the first rectangle are
// skipped and missing partner cells read as Empty, matching the streaming
// RangeValues/CellValue semantics; non-numeric and error values contribute a
// zero factor via formula.SumProductFactor.
func (s *colStore) foldSumProduct(a, b ref.Range, dirtyVal func(ref.Ref, *cell) formula.Value) (float64, bool) {
	if a.Cols() > maxFoldCols || b.Cols() > maxFoldCols {
		return 0, false
	}
	for _, rng := range [2]ref.Range{a, b} {
		finite := s.scanRange(rng, func(at ref.Ref, c *cell) bool {
			v := cellVal(at, c, dirtyVal)
			if v.Kind == formula.KindNumber && (math.IsNaN(v.Num) || math.IsInf(v.Num, 0)) {
				return false
			}
			return true
		})
		if !finite {
			return 0, false
		}
	}
	var abuf, bbuf [maxFoldCols]foldCursor
	acurs, bcurs := s.cursors(a, abuf[:0]), s.cursors(b, bbuf[:0])
	// Index b's cursors by column offset for O(1) pairing; absent columns
	// stay nil and read as Empty.
	var bByCol [maxFoldCols]*foldCursor
	for k := range bcurs {
		bByCol[bcurs[k].col-b.Head.Col] = &bcurs[k]
	}
	dRow := b.Head.Row - a.Head.Row
	total := 0.0
	for cu := minHead(acurs); cu != nil; cu = minHead(acurs) {
		arow := cu.rows[cu.i]
		av := cellVal(ref.Ref{Col: cu.col, Row: arow}, &cu.cells[cu.i], dirtyVal)
		cu.i++
		bv := formula.Empty()
		if bc := bByCol[cu.col-a.Head.Col]; bc != nil {
			brow := arow + dRow
			if c := bc.probe(brow); c != nil {
				bv = cellVal(ref.Ref{Col: bc.col, Row: brow}, c, dirtyVal)
			}
		}
		total += formula.SumProductFactor(av) * formula.SumProductFactor(bv)
	}
	return total, true
}

// eachColumnMajor visits every stored cell in column-major order — the
// deterministic order snapshots are written in. Column keys are sorted per
// call; the slab rows are already sorted.
func (s *colStore) eachColumnMajor(fn func(at ref.Ref, c *cell) error) error {
	cols := make([]int, 0, len(s.cols))
	for c := range s.cols {
		cols = append(cols, c)
	}
	slices.Sort(cols)
	for _, cidx := range cols {
		col := s.cols[cidx]
		for i, row := range col.rows {
			if err := fn(ref.Ref{Col: cidx, Row: row}, &col.cells[i]); err != nil {
				return err
			}
		}
	}
	return nil
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
