package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"taco/internal/ref"
	"taco/internal/rtree"
)

// This file implements snapshotting: serialising a compressed formula graph
// to a compact binary stream and loading it back. A DataSpread-style host
// persists the graph across sessions so reopening a large workbook skips
// recompression (building is the one operation where TACO pays more than
// NoComp — Fig. 11 — so amortising it matters).
//
// Format (little-endian varints):
//
//	magic "TACOG1" | edge count N | N edge records
//
// Each edge record: pattern byte, axis byte, flags byte, prec corners (4
// uvarints), dep corners (4 uvarints), then pattern-specific metadata.

var snapshotMagic = []byte("TACOG1")

// ErrBadSnapshot is returned when decoding malformed snapshot data.
var ErrBadSnapshot = errors.New("core: malformed graph snapshot")

// byteWriter is the buffered sink snapshot encoding needs; callers passing
// one (bytes.Buffer, bufio.Writer) skip the wrapper layer entirely.
type byteWriter interface {
	io.Writer
	io.ByteWriter
}

// WriteSnapshot serialises the graph. Edges are written in a deterministic
// order so equal graphs produce identical bytes.
func (g *Graph) WriteSnapshot(w io.Writer) error {
	bw, buffered := w.(byteWriter)
	if !buffered {
		bw = bufio.NewWriter(w)
	}
	if _, err := bw.Write(snapshotMagic); err != nil {
		return err
	}
	edges := make([]*Edge, 0, g.NumEdges())
	g.Edges(func(e *Edge) bool {
		edges = append(edges, e)
		return true
	})
	slices.SortFunc(edges, func(a, b *Edge) int {
		if a == b {
			return 0
		}
		if edgeLess(a, b) {
			return -1
		}
		return 1
	})
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(edges))); err != nil {
		return err
	}
	for _, e := range edges {
		flags := byte(0)
		if e.HeadFixed {
			flags |= 1
		}
		if e.TailFixed {
			flags |= 2
		}
		if _, err := bw.Write([]byte{byte(e.Pattern), byte(e.Axis), flags}); err != nil {
			return err
		}
		for _, v := range []int{
			e.Prec.Head.Col, e.Prec.Head.Row, e.Prec.Tail.Col, e.Prec.Tail.Row,
			e.Dep.Head.Col, e.Dep.Head.Row, e.Dep.Tail.Col, e.Dep.Tail.Row,
		} {
			if err := putUvarint(uint64(v)); err != nil {
				return err
			}
		}
		if err := writeMeta(putUvarint, bw, e); err != nil {
			return err
		}
	}
	if f, ok := bw.(*bufio.Writer); ok {
		return f.Flush()
	}
	return nil
}

func edgeLess(a, b *Edge) bool {
	ka := [9]int{a.Prec.Head.Col, a.Prec.Head.Row, a.Prec.Tail.Col, a.Prec.Tail.Row,
		a.Dep.Head.Col, a.Dep.Head.Row, a.Dep.Tail.Col, a.Dep.Tail.Row, int(a.Pattern)}
	kb := [9]int{b.Prec.Head.Col, b.Prec.Head.Row, b.Prec.Tail.Col, b.Prec.Tail.Row,
		b.Dep.Head.Col, b.Dep.Head.Row, b.Dep.Tail.Col, b.Dep.Tail.Row, int(b.Pattern)}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

// zig encodes a possibly-negative offset component.
func zig(v int) uint64 { return uint64(uint(v)<<1) ^ uint64(int64(v)>>63) }

func unzig(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }

func writeMeta(putUvarint func(uint64) error, w io.Writer, e *Edge) error {
	switch e.Pattern {
	case RR, RRChain:
		for _, v := range []int{e.Meta.HRel.DCol, e.Meta.HRel.DRow, e.Meta.TRel.DCol, e.Meta.TRel.DRow} {
			if err := putUvarint(zig(v)); err != nil {
				return err
			}
		}
		if e.Pattern == RRChain {
			if _, err := w.Write([]byte{byte(e.Meta.Dir)}); err != nil {
				return err
			}
		}
	case RF:
		for _, v := range []int{e.Meta.HRel.DCol, e.Meta.HRel.DRow} {
			if err := putUvarint(zig(v)); err != nil {
				return err
			}
		}
		for _, v := range []int{e.Meta.TFix.Col, e.Meta.TFix.Row} {
			if err := putUvarint(uint64(v)); err != nil {
				return err
			}
		}
	case FR:
		for _, v := range []int{e.Meta.HFix.Col, e.Meta.HFix.Row} {
			if err := putUvarint(uint64(v)); err != nil {
				return err
			}
		}
		for _, v := range []int{e.Meta.TRel.DCol, e.Meta.TRel.DRow} {
			if err := putUvarint(zig(v)); err != nil {
				return err
			}
		}
	case FF:
		for _, v := range []int{e.Meta.HFix.Col, e.Meta.HFix.Row, e.Meta.TFix.Col, e.Meta.TFix.Row} {
			if err := putUvarint(uint64(v)); err != nil {
				return err
			}
		}
	case Single:
		// No metadata.
	default:
		return fmt.Errorf("core: cannot snapshot pattern %v", e.Pattern)
	}
	return nil
}

// ReadSnapshot deserialises a graph written by WriteSnapshot. The graph uses
// the provided options for any subsequent mutation.
func ReadSnapshot(r io.Reader, opts Options) (*Graph, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(magic) != string(snapshotMagic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// Slab-allocate edge records in bounded blocks: one allocation per block
	// instead of one per edge, with stable pointers (a full block is never
	// regrown). The block cap also bounds the up-front trust in a hostile
	// count.
	const edgeBlock = 1024
	var block []Edge
	newEdge := func() *Edge {
		if len(block) == cap(block) {
			block = make([]Edge, 0, min(count, edgeBlock))
		}
		block = append(block, Edge{})
		return &block[len(block)-1]
	}
	edges := make([]*Edge, 0, min(count, 4*edgeBlock))
	readByte := func() (byte, error) {
		var b [1]byte
		_, err := io.ReadFull(br, b[:])
		return b[0], err
	}
	for i := uint64(0); i < count; i++ {
		pb, err := readByte()
		if err != nil {
			return nil, fmt.Errorf("%w: edge %d: %v", ErrBadSnapshot, i, err)
		}
		ab, err := readByte()
		if err != nil {
			return nil, fmt.Errorf("%w: edge %d: %v", ErrBadSnapshot, i, err)
		}
		flags, err := readByte()
		if err != nil {
			return nil, fmt.Errorf("%w: edge %d: %v", ErrBadSnapshot, i, err)
		}
		e := newEdge()
		*e = Edge{
			Pattern:   PatternType(pb),
			Axis:      ref.Axis(ab),
			HeadFixed: flags&1 != 0,
			TailFixed: flags&2 != 0,
		}
		if int(e.Pattern) >= numPatterns {
			return nil, fmt.Errorf("%w: edge %d: unknown pattern %d", ErrBadSnapshot, i, pb)
		}
		var corners [8]int
		for j := range corners {
			u, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: edge %d: %v", ErrBadSnapshot, i, err)
			}
			corners[j] = int(u)
		}
		e.Prec = ref.Range{Head: ref.Ref{Col: corners[0], Row: corners[1]}, Tail: ref.Ref{Col: corners[2], Row: corners[3]}}
		e.Dep = ref.Range{Head: ref.Ref{Col: corners[4], Row: corners[5]}, Tail: ref.Ref{Col: corners[6], Row: corners[7]}}
		if !e.Prec.Valid() || !e.Dep.Valid() {
			return nil, fmt.Errorf("%w: edge %d: invalid ranges", ErrBadSnapshot, i)
		}
		if err := readMeta(br, readByte, e); err != nil {
			return nil, fmt.Errorf("%w: edge %d: %v", ErrBadSnapshot, i, err)
		}
		if err := CheckEdge(e); err != nil {
			return nil, fmt.Errorf("%w: edge %d: %v", ErrBadSnapshot, i, err)
		}
		edges = append(edges, e)
	}
	// Bulk-load both spatial indexes (STR packing): snapshot loads are the
	// all-entries-up-front case the packed tree is built for.
	precItems := make([]rtree.Item[*Edge], len(edges))
	depItems := make([]rtree.Item[*Edge], len(edges))
	for i, e := range edges {
		precItems[i] = rtree.Item[*Edge]{Rect: e.Prec, Value: e}
		depItems[i] = rtree.Item[*Edge]{Rect: e.Dep, Value: e}
	}
	return &Graph{opts: opts, byPrec: rtree.BulkLoad(precItems), byDep: rtree.BulkLoad(depItems)}, nil
}

func readMeta(br *bufio.Reader, readByte func() (byte, error), e *Edge) error {
	readZig := func(dst *int) error {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		*dst = unzig(u)
		return nil
	}
	readU := func(dst *int) error {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		*dst = int(u)
		return nil
	}
	switch e.Pattern {
	case RR, RRChain:
		for _, dst := range []*int{&e.Meta.HRel.DCol, &e.Meta.HRel.DRow, &e.Meta.TRel.DCol, &e.Meta.TRel.DRow} {
			if err := readZig(dst); err != nil {
				return err
			}
		}
		if e.Pattern == RRChain {
			d, err := readByte()
			if err != nil {
				return err
			}
			e.Meta.Dir = Direction(d)
			if e.Meta.Dir != DirPrev && e.Meta.Dir != DirNext {
				return fmt.Errorf("bad chain direction %d", d)
			}
		}
	case RF:
		for _, dst := range []*int{&e.Meta.HRel.DCol, &e.Meta.HRel.DRow} {
			if err := readZig(dst); err != nil {
				return err
			}
		}
		for _, dst := range []*int{&e.Meta.TFix.Col, &e.Meta.TFix.Row} {
			if err := readU(dst); err != nil {
				return err
			}
		}
	case FR:
		for _, dst := range []*int{&e.Meta.HFix.Col, &e.Meta.HFix.Row} {
			if err := readU(dst); err != nil {
				return err
			}
		}
		for _, dst := range []*int{&e.Meta.TRel.DCol, &e.Meta.TRel.DRow} {
			if err := readZig(dst); err != nil {
				return err
			}
		}
	case FF:
		for _, dst := range []*int{&e.Meta.HFix.Col, &e.Meta.HFix.Row, &e.Meta.TFix.Col, &e.Meta.TFix.Row} {
			if err := readU(dst); err != nil {
				return err
			}
		}
	}
	return nil
}
