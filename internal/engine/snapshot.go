package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

	"taco/internal/core"
	"taco/internal/formula"
	"taco/internal/ref"
)

// This file implements engine-level snapshotting: serialising a whole live
// session — the sparse cell store plus its compressed formula graph — so a
// multi-tenant host can spill cold sessions to disk and restore them lazily
// without recompression or re-evaluation. The cell section carries cached
// values, so a restored engine answers reads immediately; the graph section
// reuses the core snapshot format (and its bulk-loaded R-tree restore).
//
// Format:
//
//	magic | cell section | core graph snapshot |
//	crc32c little-endian (over everything before it, magic included)
//
// The writer emits the TACOE3 cell section, which stores what the engine
// holds: the column slabs, each formula shape once. Its integers are
// uvarints; a gap is the count of unpopulated slots skipped, so every row
// and column it places is at least 1 and strictly ascending:
//
//	section = ncols column*
//	column  = colgap n nruns (rowgap len)^nruns   -- rows as runs, lens sum to n
//	          (ref len [source])*                 -- formulas as runs, lens sum to n
//	          lane                                -- 8n bytes: the num slab, float64 LE
//	          nexc (idxgap kind payload)^nexc     -- every record that is not a number
//
// A formula run names its shape: ref 0 is a run of value cells, ref k ≤ the
// table's size the k-th shape defined so far, and ref = size+1 defines the
// next one — its source follows (uvarint length, bytes), rendered at the
// run's first record, where the decoder parses it once. The lane holds a
// number's float and zero for any other value. An exception's kind is the
// formula.Kind of its value with its payload — 0 empty, 2 string (uvarint
// length, bytes), 3 bool (one byte), 4 error (its text as a string) — or 5,
// a formula written without its value (a computed value too large to
// snapshot), restored dirty and recomputed on demand. Equal engines write
// identical bytes: columns ascend, records follow the slab and shapes are
// numbered by first use.
//
// TACOE2, the section before it, is still read, so bases already on disk stay
// restorable: a cell count, then per cell, column-major, col uvarint, row
// uvarint, a kind byte (0 a value, 1 a formula and its value, 2 a formula
// without one) and the payload — the formula's source, the value as a
// formula.Kind byte plus a kind-specific payload.
//
// There is one decoder per cell-section version, and RestoreSnapshot picks
// it by the magic. A caller that kept the session's compressed graph pinned
// across a spill restores through RestoreSnapshotWithGraph, which decodes the
// cell section alone. Either decoder holds hostile input to ErrBadEngineSnapshot:
// a count sizes nothing before the bytes it claims have been read.
//
// The CRC32C trailer makes torn or bit-rotted snapshots detectable:
// CheckSnapshotIntegrity verifies the whole byte string before anything
// trusts it — the store before every restore of a spill file, a standby
// before it bootstraps from a shipped one. The decoder self-delimits and
// never reads the trailer.

var (
	engineSnapshotMagic = []byte("TACOE3")
	legacySnapshotMagic = []byte("TACOE2")
)

// snapCRCTable is CRC32-Castagnoli, hardware-accelerated on amd64/arm64.
var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadEngineSnapshot is returned when decoding malformed session data.
var ErrBadEngineSnapshot = errors.New("engine: malformed engine snapshot")

// ErrSnapshotChecksum is returned by CheckSnapshotIntegrity when a TACOE3 or
// TACOE2 snapshot's trailer does not match its content — a torn write or bit
// rot.
var ErrSnapshotChecksum = errors.New("engine: snapshot checksum mismatch")

// MaxSnapshotString bounds formula/text lengths — enforced symmetrically on
// encode and decode, so any snapshot that was written can be read back
// (spill must never strand a session) while a corrupt or hostile snapshot
// fails with ErrBadEngineSnapshot instead of attempting a multi-gigabyte
// allocation inside a multi-tenant host.
const MaxSnapshotString = 4 << 20

// snapWriter is the buffered sink the encoder needs; callers passing one
// (bytes.Buffer, bufio.Writer) skip the wrapper layer and its extra copy.
type snapWriter interface {
	io.Writer
	io.ByteWriter
}

// WriteSnapshot serialises the engine. Dirty cells are recalculated first so
// the stored values are authoritative, which lets RestoreSnapshot mark every
// cell clean (oversized computed values excepted — they round-trip as
// dirty). Engines driving a non-TACO graph backend cannot be snapshotted.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	g := e.TACOGraph()
	if g == nil {
		return errors.New("engine: only TACO-backed engines support snapshots")
	}
	e.RecalculateAll()
	bw, buffered := w.(snapWriter)
	if !buffered {
		bw = bufio.NewWriter(w)
	}
	// Everything up to the trailer flows through the CRC writer.
	cw := &crcWriter{w: bw}
	if err := e.writeCells(cw); err != nil {
		return err
	}
	if err := g.WriteSnapshot(cw); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.sum)
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	if f, isBufio := bw.(*bufio.Writer); isBufio {
		return f.Flush()
	}
	return nil
}

// crcWriter threads every byte through the running CRC32C on its way to the
// sink.
type crcWriter struct {
	w   snapWriter
	sum uint32
	one [1]byte
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, snapCRCTable, p)
	return c.w.Write(p)
}

func (c *crcWriter) WriteByte(b byte) error {
	c.one[0] = b
	c.sum = crc32.Update(c.sum, snapCRCTable, c.one[:])
	return c.w.WriteByte(b)
}

// Exception kinds of the TACOE3 cell section beside a value's formula.Kind:
// a formula written without its value.
const excNoValue = 5

// writeCells encodes the magic and the TACOE3 cell section, a column at a time
// through one buffer.
func (e *Engine) writeCells(bw snapWriter) error {
	cols := e.store.columnOrder()
	w := cellWriter{shapes: map[*formula.Shape]uint64{}}
	w.buf = binary.AppendUvarint(append(w.buf, engineSnapshotMagic...), uint64(len(cols)))
	last := 0
	for _, ci := range cols {
		if _, err := bw.Write(w.buf); err != nil {
			return err
		}
		w.buf = w.buf[:0]
		if err := w.column(ci-last-1, ci, e.store.cols[ci]); err != nil {
			return err
		}
		last = ci
	}
	_, err := bw.Write(w.buf)
	return err
}

// cellWriter encodes columns into buf, numbering shapes by first use.
type cellWriter struct {
	buf    []byte
	src    []byte
	shapes map[*formula.Shape]uint64
}

func (w *cellWriter) uvarint(v int) { w.buf = binary.AppendUvarint(w.buf, uint64(v)) }

func (w *cellWriter) string(s string) error {
	if len(s) > MaxSnapshotString {
		return fmt.Errorf("engine: cannot snapshot string of %d bytes (limit %d)", len(s), MaxSnapshotString)
	}
	w.uvarint(len(s))
	w.buf = append(w.buf, s...)
	return nil
}

// column appends column ci, colgap columns past the one before it.
func (w *cellWriter) column(colgap, ci int, c *column) error {
	n := len(c.rows)
	w.uvarint(colgap)
	w.uvarint(n)
	nruns := 1
	for i := 1; i < n; i++ {
		if c.rows[i] != c.rows[i-1]+1 {
			nruns++
		}
	}
	w.uvarint(nruns)
	for i, last := 0, 0; i < n; {
		j := i + 1
		for j < n && c.rows[j] == c.rows[j-1]+1 {
			j++
		}
		w.uvarint(c.rows[i] - last - 1)
		w.uvarint(j - i)
		i, last = j, c.rows[j-1]
	}
	for i := 0; i < n; {
		s, j := c.meta[i].shape, i+1
		for j < n && c.meta[j].shape == s {
			j++
		}
		id, known := w.shapes[s]
		if s != nil && !known {
			id = uint64(len(w.shapes) + 1)
			w.shapes[s] = id
		}
		w.uvarint(int(id))
		w.uvarint(j - i)
		if s != nil && !known {
			w.src = s.AppendSource(w.src[:0], ref.Ref{Col: ci, Row: c.rows[i]})
			if err := w.string(string(w.src)); err != nil {
				return err
			}
		}
		i = j
	}
	nexc := 0
	for i := range c.meta {
		bits := uint64(0)
		if c.meta[i].kind == formula.KindNumber {
			bits = math.Float64bits(c.num[i])
		} else {
			nexc++
		}
		w.buf = binary.LittleEndian.AppendUint64(w.buf, bits)
	}
	w.uvarint(nexc)
	for i, next := 0, 0; i < n; i++ {
		m := &c.meta[i]
		if m.kind == formula.KindNumber {
			continue
		}
		w.uvarint(i - next)
		next = i + 1
		kind := byte(m.kind)
		// A computed value can outgrow the snapshot string limit (string
		// concatenation compounds); it is only a cache, so persist the
		// formula alone and let the restored engine recompute it.
		if m.shape != nil && m.kind == formula.KindString && len(c.strs[m.slot]) > MaxSnapshotString {
			kind = excNoValue
		}
		w.buf = append(w.buf, kind)
		var err error
		switch kind {
		case byte(formula.KindString):
			err = w.string(c.strs[m.slot])
		case byte(formula.KindBool):
			w.buf = append(w.buf, m.aux)
		case byte(formula.KindError):
			err = w.string(formula.ErrCode(m.aux).String())
		case byte(formula.KindEmpty), excNoValue:
		default:
			err = fmt.Errorf("engine: cannot snapshot value kind %d", m.kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scanCells decodes a TACOE2 cell section (count, records), invoking fn
// per cell with its record placed where it was read (a formula restored
// without a cached value, kind 2, is dirty). Formula sources go through the
// process-wide intern table (formula.ParseShape at the record's position): a
// formula whose shape was seen before — any row of a fill, any session — is
// looked up, not parsed, and restores as the same *Shape. On return the
// reader is positioned at the graph section.
//
// The TACOE2 writer emitted records strictly ascending in column-major
// order, and the reader holds the input to it: a repeated or out-of-order ref is
// ErrBadEngineSnapshot. That is what makes a restore's store.set the append
// path, and what keeps its cell, formula and dirty counts in step with the
// records the slabs end up holding.
func scanCells(br *bufio.Reader, fn func(placed) error) error {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadEngineSnapshot, err)
	}
	var scratch []byte
	readBytes := func() ([]byte, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if n > MaxSnapshotString {
			return nil, fmt.Errorf("string length %d exceeds limit", n)
		}
		if uint64(cap(scratch)) < n {
			scratch = make([]byte, n)
		}
		b := scratch[:n]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	readString := func() (string, error) {
		b, err := readBytes()
		return string(b), err
	}
	// The cell loop fails naturally on truncated input, so a hostile count
	// needs no bound of its own.
	var prev ref.Ref
	for i := uint64(0); i < count; i++ {
		col, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
		}
		row, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
		}
		at := ref.Ref{Col: int(col), Row: int(row)}
		if !at.Valid() {
			return fmt.Errorf("%w: cell %d: invalid ref %v", ErrBadEngineSnapshot, i, at)
		}
		if !ref.ColumnMajorLess(prev, at) { // the zero Ref precedes every valid one
			return fmt.Errorf("%w: cell %d: %v does not follow %v", ErrBadEngineSnapshot, i, at, prev)
		}
		prev = at
		kind, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
		}
		if kind > 2 {
			return fmt.Errorf("%w: cell %d: unknown cell kind %d", ErrBadEngineSnapshot, i, kind)
		}
		sc := placed{at: at}
		if kind != 0 {
			b, err := readBytes()
			if err != nil {
				return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
			}
			// ParseShape keeps nothing of the text, so it reads it in place.
			sc.rec.shape, err = formula.ParseShape(unsafe.String(unsafe.SliceData(b), len(b)), at)
			if err != nil {
				return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
			}
		}
		if kind == 2 {
			sc.rec.dirty = true // no cached value; recomputed on demand
		} else {
			v, err := readValue(br, readString)
			if err != nil {
				return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
			}
			sc.rec.value = v
		}
		if err := fn(sc); err != nil {
			return err
		}
	}
	return nil
}

// RestoreSnapshot loads an engine written by WriteSnapshot. Cells are
// restored with their cached values (formulae whose cached value was too
// large to persist come back dirty and recompute on demand); the graph is
// bulk-loaded through the core snapshot path, so no dependency is
// recompressed. A TACOE3 base parses each formula shape once, a TACOE2 base
// each formula's source, through the process-wide intern table.
func RestoreSnapshot(r io.Reader) (*Engine, error) {
	return restoreSnapshot(r, nil)
}

// RestoreSnapshotWithGraph is RestoreSnapshot for a caller that kept the
// session's compressed graph pinned in memory across the spill: only the
// cell section is decoded, and the engine is rebuilt around g — the graph
// section of the stream is left unread. g must be the exact graph the
// snapshot was written with (the serving layer guarantees this by pinning at
// spill time and invalidating on any revision change).
func RestoreSnapshotWithGraph(r io.Reader, g *core.Graph) (*Engine, error) {
	if g == nil {
		return nil, errors.New("engine: RestoreSnapshotWithGraph needs a graph")
	}
	return restoreSnapshot(r, g)
}

func restoreSnapshot(r io.Reader, pinned *core.Graph) (*Engine, error) {
	br, isBufio := r.(*bufio.Reader)
	if !isBufio {
		br = bufio.NewReader(r)
	}
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEngineSnapshot, err)
	}
	store, nformulas, err := newColStore(), 0, error(nil)
	switch {
	case bytes.Equal(magic[:], engineSnapshotMagic):
		d := decoderPool.Get().(*colDecoder)
		nformulas, err = d.section(br, &store)
		d.release()
	case bytes.Equal(magic[:], legacySnapshotMagic):
		nformulas, err = restoreRecords(br, &store)
	default:
		err = fmt.Errorf("%w: bad magic %q", ErrBadEngineSnapshot, magic[:])
	}
	if err != nil {
		return nil, err
	}
	g := pinned
	if g == nil {
		g, err = core.ReadSnapshot(br, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
	}
	return &Engine{
		graph:       TACO{G: g},
		store:       store,
		nformulas:   nformulas,
		patternRuns: true,
	}, nil
}

// restoreRecords fills store from a TACOE2 cell section and returns its
// formula count. Records ascend column-major, so a column's arrive together:
// they are staged and filled as a load fills (colStore.fill), the slab sized
// once from what was actually read — never from the section's unchecked count.
func restoreRecords(br *bufio.Reader, store *colStore) (nformulas int, err error) {
	var stage []placed
	err = scanCells(br, func(sc placed) error {
		if len(stage) > 0 && stage[0].at.Col != sc.at.Col {
			nformulas += store.fill(stage)
			stage = stage[:0]
		}
		stage = append(stage, sc)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return nformulas + store.fill(stage), nil
}

// colDecoder decodes a TACOE3 cell section. Its scratch — the shape table,
// a column's runs and its lane — is kept across restores in decoderPool, so
// the restore/spill churn of a capped host reuses it once the pool warms.
type colDecoder struct {
	br     *bufio.Reader
	shapes []*formula.Shape
	rows   []rowRun
	forms  []shapeRun
	lane   []byte
	text   []byte
	refs   []formula.RefInfo
}

// rowRun is len rows from row on; shapeRun is n records holding shape (nil
// for value cells).
type (
	rowRun   struct{ row, len int }
	shapeRun struct {
		shape *formula.Shape
		n     int
	}
)

var decoderPool = sync.Pool{New: func() any { return &colDecoder{} }}

// release pools the decoder, holding no shape.
func (d *colDecoder) release() {
	clear(d.shapes)
	clear(d.forms)
	d.br, d.shapes, d.forms = nil, d.shapes[:0], d.forms[:0]
	decoderPool.Put(d)
}

// count reads a uvarint that must lie in lo..hi.
func (d *colDecoder) count(lo, hi uint64, what string) (int, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, err
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s %d outside %d..%d", what, v, lo, hi)
	}
	return int(v), nil
}

// bytes reads a string's bytes into the decoder's scratch.
func (d *colDecoder) bytes() ([]byte, error) {
	n, err := d.count(0, MaxSnapshotString, "string length")
	if err != nil {
		return nil, err
	}
	d.text = slices.Grow(d.text[:0], n)[:n]
	_, err = io.ReadFull(d.br, d.text)
	return d.text, err
}

// section fills store from the columns of a TACOE3 cell section and returns
// its formula count. A column's slab is sized once, for its n records, only
// after its lane — 8n bytes — has been read: until then n sizes nothing, and
// the runs and the lane grow with what is actually read.
func (d *colDecoder) section(br *bufio.Reader, store *colStore) (nformulas int, err error) {
	d.br = br
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadEngineSnapshot, err)
	}
	ci := 0
	for k := uint64(0); k < ncols; k++ {
		gap, err := d.count(0, math.MaxInt-1-uint64(ci), "column gap")
		if err != nil {
			return 0, fmt.Errorf("%w: column %d: %v", ErrBadEngineSnapshot, k, err)
		}
		ci += gap + 1
		nf, err := d.column(ci, store)
		if err != nil {
			return 0, fmt.Errorf("%w: column %d: %v", ErrBadEngineSnapshot, ci, err)
		}
		nformulas += nf
	}
	return nformulas, nil
}

// column decodes column ci into store.
func (d *colDecoder) column(ci int, store *colStore) (nformulas int, err error) {
	n, err := d.count(1, math.MaxInt/8, "record count")
	if err != nil {
		return 0, err
	}
	nruns, err := d.count(1, uint64(n), "row run count")
	if err != nil {
		return 0, err
	}
	d.rows = d.rows[:0]
	for k, last, sum := 0, 0, 0; k < nruns; k++ {
		gap, err := d.count(0, math.MaxInt-1-uint64(last), "row gap")
		if err != nil {
			return 0, err
		}
		row := last + gap + 1
		ln, err := d.count(1, min(uint64(n-sum), math.MaxInt-uint64(row)), "row run")
		if err != nil {
			return 0, err
		}
		d.rows = append(d.rows, rowRun{row, ln})
		last, sum = row+ln-1, sum+ln
		if k == nruns-1 && sum != n {
			return 0, fmt.Errorf("row runs cover %d of %d records", sum, n)
		}
	}
	// Formula runs, each shape checked where its run starts and ends: its
	// references are rectangles on the sheet there, so between them too.
	d.forms = d.forms[:0]
	rows := rowCursor{runs: d.rows}
	for covered := 0; covered < n; {
		id, err := d.count(0, uint64(len(d.shapes)+1), "shape ref")
		if err != nil {
			return 0, err
		}
		ln, err := d.count(1, uint64(n-covered), "formula run")
		if err != nil {
			return 0, err
		}
		var s *formula.Shape
		if id > 0 {
			first := ref.Ref{Col: ci, Row: rows.row(covered)}
			if id > len(d.shapes) {
				src, err := d.bytes()
				if err != nil {
					return 0, err
				}
				// ParseShape keeps nothing of the text, so it reads it in place.
				sh, err := formula.ParseShape(unsafe.String(unsafe.SliceData(src), len(src)), first)
				if err != nil {
					return 0, err
				}
				d.shapes = append(d.shapes, sh)
			}
			s = d.shapes[id-1]
			if !d.fits(s, first) || ln > 1 && !d.fits(s, ref.Ref{Col: ci, Row: rows.row(covered + ln - 1)}) {
				return 0, fmt.Errorf("shape %d reaches off the sheet from row %d", id, first.Row)
			}
			nformulas += ln
		}
		d.forms = append(d.forms, shapeRun{s, ln})
		covered += ln
	}
	// The lane, chunk by chunk: only bytes that arrived size the scratch.
	d.lane = d.lane[:0]
	for need := 8 * n; len(d.lane) < need; {
		k := min(need-len(d.lane), 64<<10)
		d.lane = slices.Grow(d.lane, k)
		if _, err := io.ReadFull(d.br, d.lane[len(d.lane):len(d.lane)+k]); err != nil {
			return 0, err
		}
		d.lane = d.lane[:len(d.lane)+k]
	}
	col := store.column(ci, n)
	col.rows, col.num, col.meta = col.rows[:n], col.num[:n], col.meta[:n]
	i := 0
	for _, r := range d.rows {
		for row := r.row; row < r.row+r.len; row++ {
			col.rows[i] = row
			i++
		}
	}
	i = 0
	for _, f := range d.forms {
		for end := i + f.n; i < end; i++ {
			col.meta[i] = cellMeta{shape: f.shape, kind: formula.KindNumber}
		}
	}
	for i := range col.num {
		col.num[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.lane[8*i:]))
	}
	store.ncells += n
	return nformulas, d.exceptions(ci, col, store)
}

// exceptions reads column ci's exception list into its slab, col, whose
// records all hold numbers until then; an exception's value replaces the
// lane's float (column.put zeroes it).
func (d *colDecoder) exceptions(ci int, col *column, store *colStore) error {
	n := len(col.rows)
	nexc, err := d.count(0, uint64(n), "exception count")
	if err != nil {
		return err
	}
	for k, next := 0, 0; k < nexc; k++ {
		if next == n {
			return fmt.Errorf("%d exceptions in %d records", nexc, n)
		}
		gap, err := d.count(0, uint64(n-1-next), "exception gap")
		if err != nil {
			return err
		}
		i := next + gap
		next = i + 1
		kind, err := d.br.ReadByte()
		if err != nil {
			return err
		}
		var v formula.Value
		switch kind {
		case byte(formula.KindEmpty):
		case byte(formula.KindString):
			b, err := d.bytes()
			if err != nil {
				return err
			}
			v = formula.Str(string(b))
		case byte(formula.KindBool):
			b, err := d.br.ReadByte()
			if err != nil {
				return err
			}
			v = formula.Boolean(b != 0)
		case byte(formula.KindError):
			b, err := d.bytes()
			if err != nil {
				return err
			}
			c, ok := formula.ParseErrCode(string(b))
			if !ok {
				return fmt.Errorf("record %d: unknown error value %q", i, b)
			}
			v = formula.Error(c)
		case excNoValue:
			if col.meta[i].shape == nil {
				return fmt.Errorf("record %d: a value cell without a value", i)
			}
			col.meta[i].dirty = true // no cached value; recomputed on demand
			store.noteDirty(ci, col.rows[i], col.rows[i], 1, true)
		default:
			return fmt.Errorf("record %d: unknown exception kind %d", i, kind)
		}
		col.put(i, v)
	}
	return nil
}

// fits reports whether every reference of s at at is a rectangle on the sheet.
func (d *colDecoder) fits(s *formula.Shape, at ref.Ref) bool {
	d.refs = s.AppendRefs(d.refs[:0], at)
	for _, r := range d.refs {
		if !r.At.Valid() {
			return false
		}
	}
	return true
}

// rowCursor reads the row of record i off a column's row runs, for i
// ascending across calls.
type rowCursor struct {
	runs  []rowRun
	k, lo int // runs[k] holds records lo..lo+runs[k].len-1
}

func (c *rowCursor) row(i int) int {
	for i >= c.lo+c.runs[c.k].len {
		c.lo += c.runs[c.k].len
		c.k++
	}
	return c.runs[c.k].row + i - c.lo
}

// CheckSnapshotIntegrity verifies a whole engine snapshot against its
// CRC32C trailer before any of it is trusted: nil means the content is
// exactly what was written. A mismatch returns ErrSnapshotChecksum; an
// unrecognisable header returns ErrBadEngineSnapshot. The serving layer
// runs this on every spill file it restores, quarantining failures instead
// of serving silently corrupt sessions, and on every snapshot a standby
// bootstraps from.
func CheckSnapshotIntegrity(data []byte) error {
	if len(data) < len(engineSnapshotMagic)+4 ||
		!bytes.Equal(data[:6], engineSnapshotMagic) && !bytes.Equal(data[:6], legacySnapshotMagic) {
		return fmt.Errorf("%w: short or unrecognised header", ErrBadEngineSnapshot)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, snapCRCTable); got != want {
		return fmt.Errorf("%w: computed %08x, stored %08x", ErrSnapshotChecksum, got, want)
	}
	return nil
}

func readValue(br *bufio.Reader, readString func() (string, error)) (formula.Value, error) {
	kb, err := br.ReadByte()
	if err != nil {
		return formula.Value{}, err
	}
	switch formula.Kind(kb) {
	case formula.KindEmpty:
		return formula.Empty(), nil
	case formula.KindNumber:
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return formula.Value{}, err
		}
		return formula.Num(math.Float64frombits(u)), nil
	case formula.KindString:
		s, err := readString()
		if err != nil {
			return formula.Value{}, err
		}
		return formula.Str(s), nil
	case formula.KindBool:
		b, err := br.ReadByte()
		if err != nil {
			return formula.Value{}, err
		}
		return formula.Boolean(b != 0), nil
	case formula.KindError:
		s, err := readString()
		if err != nil {
			return formula.Value{}, err
		}
		c, ok := formula.ParseErrCode(s)
		if !ok {
			return formula.Value{}, fmt.Errorf("unknown error value %q", s)
		}
		return formula.Error(c), nil
	default:
		return formula.Value{}, fmt.Errorf("unknown value kind %d", kb)
	}
}
