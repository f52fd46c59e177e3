package formula

import (
	"taco/internal/ref"
)

// RefInfo describes one range a formula references, together with the `$`
// fixed/relative markers on its head and tail corners. These markers are the
// autofill cues from Sec. IV-A of the paper: a corner written with `$` on
// both axes is a fixed reference, otherwise relative; the greedy compressor
// uses them to prioritise FR/RF/FF/RR when several patterns are valid.
type RefInfo struct {
	At ref.Range
	// HeadFixed / TailFixed report whether the respective corner is fully
	// anchored (both column and row carry `$`).
	HeadFixed bool
	TailFixed bool
}

// Refs returns every range the parsed formula references, in source order.
// Single-cell references become 1x1 ranges. Duplicated references are
// returned once per occurrence — the formula graph stores one dependency per
// referenced range occurrence, matching the paper's edge model.
func Refs(n Node) []RefInfo {
	var out []RefInfo
	walk(n, func(x Node) {
		switch t := x.(type) {
		case *CellRef:
			out = append(out, RefInfo{
				At:        ref.CellRange(t.At),
				HeadFixed: t.ColFixed && t.RowFixed,
				TailFixed: t.ColFixed && t.RowFixed,
			})
		case *RangeRef:
			out = append(out, RefInfo{
				At:        t.At,
				HeadFixed: t.HeadColFixed && t.HeadRowF,
				TailFixed: t.TailColFixed && t.TailRowF,
			})
		}
	})
	return out
}

// ExtractRefs parses src and returns its references. It is the convenience
// path used when loading spreadsheets from files.
func ExtractRefs(src string) ([]RefInfo, error) {
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Refs(n), nil
}

// walk visits every node of the AST in depth-first source order.
func walk(n Node, fn func(Node)) {
	fn(n)
	switch t := n.(type) {
	case *Binary:
		walk(t.L, fn)
		walk(t.R, fn)
	case *Unary:
		walk(t.X, fn)
	case *Call:
		for _, a := range t.Args {
			walk(a, fn)
		}
	}
}

// Shift returns a copy of the AST with every *relative* reference displaced
// by (dCol, dRow), reproducing the autofill/copy-paste rules: `$`-anchored
// axes stay put, unanchored axes move. This is how workload generators
// derive a column of formulae from one source formula, exactly the process
// that creates tabular locality in real spreadsheets.
func Shift(n Node, dCol, dRow int) Node {
	switch t := n.(type) {
	case *Number, *String, *Bool:
		return n
	case *CellRef:
		c := *t
		if !c.ColFixed {
			c.At.Col += dCol
		}
		if !c.RowFixed {
			c.At.Row += dRow
		}
		return &c
	case *RangeRef:
		r := *t
		h, tl := r.At.Head, r.At.Tail
		if !r.HeadColFixed {
			h.Col += dCol
		}
		if !r.HeadRowF {
			h.Row += dRow
		}
		if !r.TailColFixed {
			tl.Col += dCol
		}
		if !r.TailRowF {
			tl.Row += dRow
		}
		// Corners that traded places keep their `$`, per axis, as in rangeNode.
		if h.Col > tl.Col {
			r.HeadColFixed, r.TailColFixed = r.TailColFixed, r.HeadColFixed
		}
		if h.Row > tl.Row {
			r.HeadRowF, r.TailRowF = r.TailRowF, r.HeadRowF
		}
		r.At = ref.RangeOf(h, tl)
		return &r
	case *Binary:
		return &Binary{Op: t.Op, L: Shift(t.L, dCol, dRow), R: Shift(t.R, dCol, dRow)}
	case *Unary:
		return &Unary{Op: t.Op, Postfix: t.Postfix, X: Shift(t.X, dCol, dRow)}
	case *Call:
		args := make([]Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = Shift(a, dCol, dRow)
		}
		return &Call{Name: t.Name, Args: args}
	}
	return n
}
