package formula

import (
	"encoding/binary"
	"strconv"
	"strings"
	"sync"

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

// Program returns the shape's program, interned through CompileCached: every
// shape of one program shares the pointer.
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
	// shapeCacheMaxBytes bounds what the shape cache retains, counted as
	// shapeBytes. When an insert would exceed it the cache is dropped
	// wholesale — crude, but O(1), allocation-free on the hit path, and
	// resistant to a hostile tenant streaming unique formulae to pin host
	// memory. Cells keep the shapes they hold; a dropped shape is interned
	// afresh the next time its text is parsed.
	shapeCacheMaxBytes = 8 << 20
	// shapeCacheMaxKey keeps pathological single formulae from dominating
	// the budget; a longer key's shape is built uncached.
	shapeCacheMaxKey = 64 << 10
)

// shapeBytes is roughly what an interned shape pins: its key, its reference
// list, and the Shape with its map slot.
func shapeBytes(s *Shape) int { return len(s.key) + 20*len(s.refs) + 96 }

var shapeCache = struct {
	sync.RWMutex
	m     map[string]*Shape
	bytes int
}{m: make(map[string]*Shape)}

// The shape cache keeps the parse cache's metric families: a lookup is what a
// parse of known text was. The hit ratio is the restore path's cheapest
// health signal (a cold cache turns every session restore into a full
// re-parse), and the drop counter surfaces wholesale evictions caused by
// unique-formula churn.
var (
	mParseHits = telemetry.NewCounter("taco_parse_cache_hits_total",
		"Formula parses answered by an interned shape from the process-wide shape cache.")
	mParseMisses = telemetry.NewCounter("taco_parse_cache_misses_total",
		"Formula parses that missed the shape cache and ran the parser.")
	mParseDrops = telemetry.NewCounter("taco_parse_cache_drops_total",
		"Wholesale shape-cache resets triggered by the byte budget.")
)

func init() {
	telemetry.NewGaugeFunc("taco_parse_cache_bytes",
		"Bytes the shape cache retains: keys, reference lists and per-shape overhead.",
		func() float64 {
			shapeCache.RLock()
			defer shapeCache.RUnlock()
			return float64(shapeCache.bytes)
		})
	telemetry.NewGaugeFunc("taco_parse_cache_entries",
		"Formula shapes currently retained by the shape cache.",
		func() float64 {
			shapeCache.RLock()
			defer shapeCache.RUnlock()
			return float64(len(shapeCache.m))
		})
}

// ParseShape parses the formula src written at anchor at and returns its
// interned shape. A text whose shape is cached — any shifted copy of a
// formula parsed before, anywhere — is not parsed: it is lexed into its key
// and looked up, which allocates nothing. src is not retained, so it may be
// a string over a buffer the caller reuses. Parse errors are not cached.
func ParseShape(src string, at ref.Ref) (*Shape, error) {
	var buf [128]byte
	key, err := appendShapeKey(buf[:0], src, at)
	if err == nil && len(key) <= shapeCacheMaxKey {
		shapeCache.RLock()
		s := shapeCache.m[string(key)]
		shapeCache.RUnlock()
		if s != nil {
			mParseHits.Inc()
			return s, nil
		}
	}
	mParseMisses.Inc()
	n, perr := Parse(strings.Clone(src)) // the tree keeps pieces of the text
	if perr != nil {
		return nil, perr // the parser's error, where the lexer's is another
	}
	if err != nil {
		return nil, err
	}
	s := &Shape{key: string(key), prog: CompileCached(n, at)}
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
	if len(key) > shapeCacheMaxKey {
		return s, nil
	}
	shapeCache.Lock()
	defer shapeCache.Unlock()
	if prev := shapeCache.m[s.key]; prev != nil {
		return prev, nil
	}
	if shapeCache.bytes+shapeBytes(s) > shapeCacheMaxBytes {
		shapeCache.m = make(map[string]*Shape, 1024)
		shapeCache.bytes = 0
		mParseDrops.Inc()
	}
	shapeCache.m[s.key] = s
	shapeCache.bytes += shapeBytes(s)
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

// ResetShapeCache empties the shape cache, for tests and benchmarks that
// measure it from empty or drop it mid-load. Shapes already handed out stay
// valid.
func ResetShapeCache() {
	shapeCache.Lock()
	defer shapeCache.Unlock()
	shapeCache.m = make(map[string]*Shape)
	shapeCache.bytes = 0
}

// ParseCached is Parse. Formulae are interned by shape (ParseShape), not by
// text; the name stays for the benchmark harness (bench/), which calls it.
func ParseCached(src string) (Node, error) { return Parse(src) }
