package formula

import (
	"encoding/binary"
	"strconv"
	"sync"
	"unsafe"

	"taco/internal/ref"
	"taco/internal/telemetry"
)

// This file interns formulae by their relative shape — the tabular locality
// the paper builds on, applied to the cells themselves: a column filled down
// from one formula (=A2*B2, =A3*B3, ...) is one shape, stored once, however
// many rows hold it. A cell keeps a pointer to its shape and its position;
// the shape gives back, at that position, everything the cell's text did:
// the source, byte for byte, the references the graph registers, and the
// interned program the evaluator runs.
//
// The shape key is the source with every reference token replaced by its
// encoding relative to the anchor — on a relative axis the offset from the
// anchor, on a $-fixed axis the coordinate — and every other byte verbatim:
//
//	key  = (uvarint(len lit) lit ref)* uvarint(len lit) lit
//	ref  = flags, varint(col), varint(row) [, uvarint(len text) text]
//
// The tokens are the lexer's own, so two sources with one key lex to the
// same token stream but for the references' coordinates, which differ by the
// anchors' offset: they parse to shifted copies of one tree, compile to one
// program and read the same relative references. The one decision the parser
// takes on coordinates — which corner of a range written backwards is its
// head (rangeNode) — is a flag of the range's tail in the key. A reference
// spelled other than canonically (lowercase, a leading zero) is recorded in
// its flags, or verbatim, so the key and the anchor together give the source
// back exactly: the key is also the render template.
//
// One table interns both levels (internTable): shapes by key and, under the
// same lock, programs by their bytes, so a respelling of a formula (other
// spaces, redundant parentheses) is another shape of the same *Program —
// which is what pattern runs key on (engine/runs.go). The table has one byte
// budget, counting everything an entry pins, and one wholesale drop.

// Reference flags in a shape key.
const (
	refColFixed = 1 << iota // the column is written with `$`
	refRowFixed             // the row is written with `$`
	refLower                // the column letters are lowercase
	refVerbatim             // spelled otherwise: the token's text follows
	refSwapCols             // a range tail left of its head: the corners trade columns
	refSwapRows             // a range tail above its head: the corners trade rows
)

// Shape is a formula's relative structure, interned by ParseShape: every
// cell whose formula is a shifted copy of the same text, spelled the same
// way, holds the same *Shape. It is immutable and safe for concurrent use.
type Shape struct {
	key  string // the interning key, which is also the render template
	prog *Program
	refs []rangeOp // the references, in Refs order
}

// Program returns the shape's program, interned in the same table as the
// shape: every shape of one program shares the pointer.
func (s *Shape) Program() *Program { return s.prog }

// AppendRefs appends what Refs reports of the shape's formula at anchor at.
func (s *Shape) AppendRefs(dst []RefInfo, at ref.Ref) []RefInfo {
	for _, o := range s.refs {
		dst = append(dst, RefInfo{
			At:        o.at(at),
			HeadFixed: o.headColFixed && o.headRowFixed,
			TailFixed: o.tailColFixed && o.tailRowFixed,
		})
	}
	return dst
}

// AppendSource appends the formula's source at anchor at: the text
// ParseShape was given, byte for byte, when at is where it was given.
func (s *Shape) AppendSource(b []byte, at ref.Ref) []byte {
	k := s.key
	for i := 0; ; {
		n, j := keyUvarint(k, i)
		b, i = append(b, k[j:j+int(n)]...), j+int(n)
		if i == len(k) {
			return b
		}
		flags := k[i]
		dc, j := keyVarint(k, i+1)
		dr, j := keyVarint(k, j)
		i = j
		if flags&refVerbatim != 0 {
			n, j := keyUvarint(k, i)
			b, i = append(b, k[j:j+int(n)]...), j+int(n)
			continue
		}
		col, row := int(dc), int(dr)
		if flags&refColFixed == 0 {
			col += at.Col
		}
		if flags&refRowFixed == 0 {
			row += at.Row
		}
		if flags&refColFixed != 0 {
			b = append(b, '$')
		}
		b = appendColName(b, col, flags&refLower != 0)
		if flags&refRowFixed != 0 {
			b = append(b, '$')
		}
		b = strconv.AppendInt(b, int64(row), 10)
	}
}

// Source is AppendSource as a string.
func (s *Shape) Source(at ref.Ref) string { return string(s.AppendSource(nil, at)) }

// appendColName appends the letters of a 1-based column, "?" when it is none.
func appendColName(b []byte, col int, lower bool) []byte {
	if col < 1 {
		return append(b, '?')
	}
	base := byte('A')
	if lower {
		base = 'a'
	}
	var buf [8]byte
	i := len(buf)
	for ; col > 0; col /= 26 {
		col--
		i--
		buf[i] = base + byte(col%26)
	}
	return append(b, buf[i:]...)
}

// keyUvarint and keyVarint decode a shape key's varints at k[i:], returning
// the value and the index after it. The key is trusted: this package wrote it.
func keyUvarint(k string, i int) (uint64, int) {
	var x uint64
	for s := 0; ; s += 7 {
		c := k[i]
		i++
		if x |= uint64(c&0x7f) << s; c < 0x80 {
			return x, i
		}
	}
}

func keyVarint(k string, i int) (int64, int) {
	u, i := keyUvarint(k, i)
	return int64(u>>1) ^ -int64(u&1), i
}

// appendShapeKey appends the shape key of src at anchor at to b, running the
// parser's lexer over the text Parse reads. It fails where that lexer does.
func appendShapeKey(b []byte, src string, at ref.Ref) ([]byte, error) {
	lo, hi := body(src)
	lx := lexer{src: src[lo:hi]}
	last := 0 // src[last:] is not in the key yet
	// A range is a cell, a colon and a cell: inRange counts the two first.
	var head token
	inRange := 0
	for {
		t, err := lx.next()
		if err != nil {
			return b, err
		}
		if t.kind == tokEOF {
			break
		}
		if t.kind == tokColon && inRange == 1 {
			inRange = 2
			continue
		}
		if t.kind != tokCell {
			inRange = 0
			continue
		}
		start := lo + t.pos
		b = binary.AppendUvarint(b, uint64(start-last))
		b = append(b, src[last:start]...)
		last = start + len(t.text)
		flags := spelling(t.text)
		if t.colFixed {
			flags |= refColFixed
		}
		if t.rowFixed {
			flags |= refRowFixed
		}
		if inRange == 2 {
			if head.col > t.col {
				flags |= refSwapCols
			}
			if head.row > t.row {
				flags |= refSwapRows
			}
			inRange = 0
		} else {
			head, inRange = t, 1
		}
		b = append(b, flags)
		b = binary.AppendVarint(b, int64(rel(t.col, at.Col, t.colFixed)))
		b = binary.AppendVarint(b, int64(rel(t.row, at.Row, t.rowFixed)))
		if flags&refVerbatim != 0 {
			b = binary.AppendUvarint(b, uint64(len(t.text)))
			b = append(b, t.text...)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(src)-last))
	return append(b, src[last:]...), nil
}

// spelling classifies a reference token's text: 0 when it is how
// AppendSource writes its reference, refLower when it is that in lowercase,
// refVerbatim otherwise (mixed case, a leading zero on the row).
func spelling(text string) byte {
	upper, lower, digits := false, false, false
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c >= 'A' && c <= 'Z':
			upper = true
		case c >= 'a' && c <= 'z':
			lower = true
		case c >= '0' && c <= '9':
			if !digits && c == '0' {
				return refVerbatim
			}
			digits = true
		}
	}
	switch {
	case upper && lower:
		return refVerbatim
	case lower:
		return refLower
	}
	return 0
}

const (
	// internBudget bounds what the intern table pins, counted by shapeBytes
	// and programBytes. When an insert would exceed it both maps are dropped
	// wholesale — crude, but O(1), allocation-free on the hit path, and
	// resistant to a hostile tenant streaming unique formulae to pin host
	// memory. Cells keep the shapes and programs they hold; a dropped shape is
	// interned afresh the next time its text is parsed.
	internBudget = 32 << 20
	// internMaxKey keeps pathological single formulae from dominating the
	// budget; a longer key's shape and program are built uncached (and so
	// never join a pattern run, which needs program pointer equality).
	internMaxKey = 64 << 10
)

// internTable interns formulae at two levels under one lock, one budget and
// one drop: shapes by shape key, and the programs they hold by program bytes
// (appendKey), so shifted copies and respellings of one formula share one
// *Program. Every shape in shapes holds the program progs has for its bytes.
var internTable = struct {
	sync.RWMutex
	shapes map[string]*Shape
	progs  map[string]*Program
	bytes  int
}{shapes: make(map[string]*Shape), progs: make(map[string]*Program)}

// mapSlot is roughly what one entry of a string-keyed map of pointers costs:
// the key's header and the value in a slot, at the table's typical load.
const mapSlot = 40

// shapeBytes is what an interned shape pins: its key, its reference list,
// and the Shape with its map slot.
func shapeBytes(s *Shape) int {
	return alloc(len(s.key)) + sliceBytes(s.refs) + alloc(int(unsafe.Sizeof(*s))) + mapSlot
}

// programBytes is what an interned program pins beside its key of keyLen
// bytes: its tables, its numeric plan, its string constants and call names,
// and the Program with its map slot.
func programBytes(p *Program, keyLen int) int {
	n := alloc(keyLen) + sliceBytes(p.code) + sliceBytes(p.consts) + sliceBytes(p.cells) + sliceBytes(p.ranges) +
		sliceBytes(p.calls) + sliceBytes(p.ops) + alloc(int(unsafe.Sizeof(*p))) + mapSlot
	for _, v := range p.consts {
		n += alloc(len(v.Str))
	}
	for _, c := range p.calls {
		n += alloc(len(c.name))
	}
	if np := p.numeric; np != nil {
		n += sliceBytes(np.code) + sliceBytes(np.consts) + sliceBytes(np.folds) + alloc(int(unsafe.Sizeof(*np)))
	}
	return n
}

// sliceBytes is the size of s's backing array, as allocated.
func sliceBytes[T any](s []T) int {
	var zero T
	return alloc(cap(s) * int(unsafe.Sizeof(zero)))
}

// alloc is an allocation of n bytes rounded up to the allocator's 16-byte
// steps, which is what the small size classes round it to, roughly.
func alloc(n int) int { return (n + 15) &^ 15 }

// The table keeps the parse cache's metric families: a lookup is what a parse
// of known text was. The hit ratio is the restore path's cheapest health
// signal (a cold table turns every session restore into a full re-parse), and
// the drop counter surfaces wholesale evictions caused by unique-formula
// churn.
var (
	mParseHits = telemetry.NewCounter("taco_parse_cache_hits_total",
		"Formula parses answered by an interned shape from the process-wide intern table.")
	mParseMisses = telemetry.NewCounter("taco_parse_cache_misses_total",
		"Formula parses that missed the intern table and ran the parser and compiler.")
	mParseDrops = telemetry.NewCounter("taco_parse_cache_drops_total",
		"Wholesale intern-table resets triggered by the byte budget.")
)

func init() {
	telemetry.NewGaugeFunc("taco_parse_cache_bytes",
		"Bytes the intern table pins: its shapes' keys and reference lists, its programs' keys, tables, plans and strings, and per-entry overhead.",
		func() float64 {
			internTable.RLock()
			defer internTable.RUnlock()
			return float64(internTable.bytes)
		})
	telemetry.NewGaugeFunc("taco_parse_cache_entries",
		"Formula shapes currently retained by the intern table.",
		func() float64 {
			internTable.RLock()
			defer internTable.RUnlock()
			return float64(len(internTable.shapes))
		})
}

// ParseShape parses the formula src written at anchor at and returns its
// interned shape. A text whose shape is interned — any shifted copy of a
// formula parsed before, anywhere — is not parsed: it is lexed into its key
// and looked up, which allocates nothing. A miss parses and compiles, and
// takes the program the table holds for the compiled bytes when there is one.
// src is not retained, so it may be a string over a buffer the caller reuses.
// Parse errors are not cached.
func ParseShape(src string, at ref.Ref) (*Shape, error) {
	var buf [128]byte
	key, err := appendShapeKey(buf[:0], src, at)
	interned := err == nil && len(key) <= internMaxKey
	if interned {
		internTable.RLock()
		s := internTable.shapes[string(key)]
		internTable.RUnlock()
		if s != nil {
			mParseHits.Inc()
			return s, nil
		}
	}
	mParseMisses.Inc()
	n, perr := Parse(src)
	if perr != nil {
		return nil, perr // the parser's error, where the lexer's is another
	}
	if err != nil {
		return nil, err
	}
	s := &Shape{key: string(key), prog: Compile(n, at)}
	walk(n, func(x Node) {
		switch t := x.(type) {
		case *CellRef:
			c, r := rel(t.At.Col, at.Col, t.ColFixed), rel(t.At.Row, at.Row, t.RowFixed)
			s.refs = append(s.refs, rangeOp{headCol: c, headRow: r, tailCol: c, tailRow: r,
				headColFixed: t.ColFixed, headRowFixed: t.RowFixed, tailColFixed: t.ColFixed, tailRowFixed: t.RowFixed})
		case *RangeRef:
			s.refs = append(s.refs, rangeOpOf(t, at))
		}
	})
	if !interned {
		return s, nil
	}
	var kb [256]byte
	pkey := s.prog.appendKey(kb[:0])
	internTable.Lock()
	defer internTable.Unlock()
	if prev := internTable.shapes[s.key]; prev != nil {
		return prev, nil
	}
	// Checked as if the program were new, which can only drop one insert early.
	if internTable.bytes+shapeBytes(s)+programBytes(s.prog, len(pkey)) > internBudget {
		resetInternTable()
		mParseDrops.Inc()
	}
	if p := internTable.progs[string(pkey)]; p != nil {
		s.prog = p
	} else {
		internTable.progs[string(pkey)] = s.prog
		internTable.bytes += programBytes(s.prog, len(pkey))
	}
	internTable.shapes[s.key] = s
	internTable.bytes += shapeBytes(s)
	return s, nil
}

// MustParseShape is ParseShape that panics on error. Intended for tests.
func MustParseShape(src string, at ref.Ref) *Shape {
	s, err := ParseShape(src, at)
	if err != nil {
		panic(err)
	}
	return s
}

// ResetShapeCache empties the intern table, for tests and benchmarks that
// measure it from empty or drop it mid-load. Shapes and programs already
// handed out stay valid.
func ResetShapeCache() {
	internTable.Lock()
	defer internTable.Unlock()
	resetInternTable()
}

func resetInternTable() {
	internTable.shapes = make(map[string]*Shape)
	internTable.progs = make(map[string]*Program)
	internTable.bytes = 0
}
