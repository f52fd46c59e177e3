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
// RestoreSnapshot is the only decoder. A caller that kept the session's
// compressed graph pinned across a spill restores through
// RestoreSnapshotWithGraph, which decodes the cell section alone.
//
// Format:
//
//	magic "TACOE2" | cell count N | N cell records | core graph snapshot |
//	crc32c little-endian (over everything before it, magic included)
//
// Each cell record: col uvarint, row uvarint, kind byte, then the payload.
// Kind 0 is a value cell (value only), kind 1 a formula with its cached
// value (source + value), kind 2 a formula without a cached value (source
// only — restored dirty and recomputed on demand; used when the cached
// value is itself too large to snapshot). Values are a formula.Kind byte
// plus a kind-specific payload.
//
// The CRC32C trailer makes torn or bit-rotted snapshots detectable:
// CheckSnapshotIntegrity verifies the whole byte string before anything
// trusts it — the store before every restore of a spill file, a standby
// before it bootstraps from a shipped one. The decoder self-delimits and
// never reads the trailer.

var engineSnapshotMagic = []byte("TACOE2")

// snapCRCTable is CRC32-Castagnoli, hardware-accelerated on amd64/arm64.
var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadEngineSnapshot is returned when decoding malformed session data.
var ErrBadEngineSnapshot = errors.New("engine: malformed engine snapshot")

// ErrSnapshotChecksum is returned by CheckSnapshotIntegrity when a TACOE2
// snapshot's trailer does not match its content — a torn write or bit rot.
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
	io.StringWriter
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
// sink. WriteString hashes through a fixed scratch block so large string
// payloads cost no allocation.
type crcWriter struct {
	w       snapWriter
	sum     uint32
	scratch [512]byte
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, snapCRCTable, p)
	return c.w.Write(p)
}

func (c *crcWriter) WriteByte(b byte) error {
	c.scratch[0] = b
	c.sum = crc32.Update(c.sum, snapCRCTable, c.scratch[:1])
	return c.w.WriteByte(b)
}

func (c *crcWriter) WriteString(s string) (int, error) {
	for rest := s; len(rest) > 0; {
		n := copy(c.scratch[:], rest)
		c.sum = crc32.Update(c.sum, snapCRCTable, c.scratch[:n])
		rest = rest[n:]
	}
	return c.w.WriteString(s)
}

func (e *Engine) writeCells(bw snapWriter) error {
	if _, err := bw.Write(engineSnapshotMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putLen := func(n int) error {
		if n > MaxSnapshotString {
			return fmt.Errorf("engine: cannot snapshot string of %d bytes (limit %d)", n, MaxSnapshotString)
		}
		return putUvarint(uint64(n))
	}
	putString := func(s string) error {
		if err := putLen(len(s)); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	// A formula's source is rendered from its shape into src, which every
	// record reuses.
	var src []byte
	putSource := func(at ref.Ref, s *formula.Shape) error {
		src = s.AppendSource(src[:0], at)
		if err := putLen(len(src)); err != nil {
			return err
		}
		_, err := bw.Write(src)
		return err
	}
	// Deterministic column-major order so equal engines produce identical
	// bytes, mirroring the core snapshot's guarantee. The columnar store
	// already holds cells in exactly this order — the encoder streams the
	// slabs directly, with no per-spill sort or scratch buffers at all.
	if err := putUvarint(uint64(e.store.ncells)); err != nil {
		return err
	}
	return e.store.eachColumnMajor(func(at ref.Ref, c *cell) error {
		return e.writeCell(bw, putUvarint, putString, putSource, at, c)
	})
}

// writeCell encodes one cell record.
func (e *Engine) writeCell(bw snapWriter, putUvarint func(uint64) error, putString func(string) error,
	putSource func(ref.Ref, *formula.Shape) error, at ref.Ref, c *cell) error {
	if err := putUvarint(uint64(at.Col)); err != nil {
		return err
	}
	if err := putUvarint(uint64(at.Row)); err != nil {
		return err
	}
	kind := byte(0)
	if c.shape != nil {
		kind = 1
		// A computed value can outgrow the snapshot string limit (string
		// concatenation compounds); it is only a cache, so persist the
		// formula alone and let the restored engine recompute it.
		if c.value.Kind == formula.KindString && len(c.value.Str) > MaxSnapshotString {
			kind = 2
		}
	}
	if err := bw.WriteByte(kind); err != nil {
		return err
	}
	if kind != 0 {
		if err := putSource(at, c.shape); err != nil {
			return err
		}
	}
	if kind == 2 {
		return nil
	}
	return writeValue(bw, putUvarint, putString, c.value)
}

func writeValue(bw snapWriter, putUvarint func(uint64) error, putString func(string) error, v formula.Value) error {
	if err := bw.WriteByte(byte(v.Kind)); err != nil {
		return err
	}
	switch v.Kind {
	case formula.KindEmpty:
		return nil
	case formula.KindNumber:
		return putUvarint(math.Float64bits(v.Num))
	case formula.KindString:
		return putString(v.Str)
	case formula.KindBool:
		b := byte(0)
		if v.Bool {
			b = 1
		}
		return bw.WriteByte(b)
	case formula.KindError:
		return putString(v.Err.String())
	default:
		return fmt.Errorf("engine: cannot snapshot value kind %d", v.Kind)
	}
}

// snapshotCell is one decoded cell record.
type snapshotCell struct {
	at    ref.Ref
	shape *formula.Shape // the formula; nil for value cells
	value formula.Value
	dirty bool // formula restored without a cached value (kind 2)
}

// scanCells decodes the cell section (magic, count, records), invoking fn
// per cell. Formula sources go through the process-wide intern table
// (formula.ParseShape at the record's position): a formula whose shape was
// seen before — any row of a fill, any session — is looked up, not parsed,
// and restores as the same *Shape. On return the reader is positioned at the
// graph section.
//
// The writer emits records strictly ascending in column-major order, and
// the reader holds the input to it: a repeated or out-of-order ref is
// ErrBadEngineSnapshot. That is what makes a restore's store.set the append
// path, and what keeps its cell, formula and dirty counts in step with the
// records the slabs end up holding.
func scanCells(br *bufio.Reader, fn func(snapshotCell) error) error {
	var magicBuf [8]byte
	magic := magicBuf[:len(engineSnapshotMagic)]
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("%w: %v", ErrBadEngineSnapshot, err)
	}
	if string(magic) != string(engineSnapshotMagic) {
		return fmt.Errorf("%w: bad magic %q", ErrBadEngineSnapshot, magic)
	}
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
		sc := snapshotCell{at: at}
		if kind != 0 {
			b, err := readBytes()
			if err != nil {
				return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
			}
			// ParseShape keeps nothing of the text, so it reads it in place.
			sc.shape, err = formula.ParseShape(unsafe.String(unsafe.SliceData(b), len(b)), at)
			if err != nil {
				return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
			}
		}
		if kind == 2 {
			sc.dirty = true // no cached value; recomputed on demand
		} else {
			v, err := readValue(br, readString)
			if err != nil {
				return fmt.Errorf("%w: cell %d: %v", ErrBadEngineSnapshot, i, err)
			}
			sc.value = v
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
// recompressed, and formula sources hit the process-wide intern table.
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
	store, nformulas := newColStore(), 0
	// Records ascend column-major, so a column's arrive together: they are
	// staged and its slab sized once, from what was actually read — never from
	// the snapshot's unchecked count — into the capacity a pooled column kept
	// from the engine recycled before, when it has enough. That is how the
	// restore/spill churn of a capped host stops allocating record storage
	// once the pool warms up, and why a restored slab carries no growth slack.
	var stage []snapshotCell
	install := func() {
		if len(stage) == 0 {
			return
		}
		store.column(stage[0].at.Col, len(stage))
		for _, sc := range stage {
			store.set(sc.at, cell{shape: sc.shape, value: sc.value, dirty: sc.dirty}) // the append path
			if sc.shape != nil {
				nformulas++
			}
			if sc.dirty {
				store.noteDirty(sc.at.Col, sc.at.Row, sc.at.Row, 1, true)
			}
		}
		stage = stage[:0]
	}
	err := scanCells(br, func(sc snapshotCell) error {
		if len(stage) > 0 && stage[0].at.Col != sc.at.Col {
			install()
		}
		stage = append(stage, sc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	install()
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

// CheckSnapshotIntegrity verifies a whole engine snapshot against its
// CRC32C trailer before any of it is trusted: nil means the content is
// exactly what was written. A mismatch returns ErrSnapshotChecksum; an
// unrecognisable header returns ErrBadEngineSnapshot. The serving layer
// runs this on every spill file it restores, quarantining failures instead
// of serving silently corrupt sessions, and on every snapshot a standby
// bootstraps from.
func CheckSnapshotIntegrity(data []byte) error {
	if len(data) < len(engineSnapshotMagic)+4 || !bytes.Equal(data[:len(engineSnapshotMagic)], engineSnapshotMagic) {
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
