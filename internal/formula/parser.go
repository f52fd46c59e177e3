package formula

import (
	"strings"

	"taco/internal/ref"
)

// Node is a formula AST node.
type Node interface {
	// writeTo renders the node back to formula text.
	writeTo(sb *strings.Builder)
}

// Number is a numeric literal.
type Number struct{ Value float64 }

// String is a string literal.
type String struct{ Value string }

// Bool is a boolean literal (TRUE/FALSE).
type Bool struct{ Value bool }

// CellRef is a single-cell reference with `$` fixed markers.
type CellRef struct {
	At       ref.Ref
	ColFixed bool
	RowFixed bool
}

// RangeRef is a rectangular range reference. The four fixed flags carry the
// `$` markers of the head and tail corners as written.
type RangeRef struct {
	At                     ref.Range
	HeadColFixed, HeadRowF bool
	TailColFixed, TailRowF bool
}

// Binary is an infix operation. Op is one of + - * / ^ & = <> < > <= >=.
type Binary struct {
	Op   string
	L, R Node
}

// Unary is a prefix +/- or postfix % operation.
type Unary struct {
	Op      string // "-", "+", "%"
	Postfix bool
	X       Node
}

// Call is a function invocation.
type Call struct {
	Name string
	Args []Node
}

func (n *Number) writeTo(sb *strings.Builder) {
	sb.WriteString(formatNum(n.Value))
}
func (n *String) writeTo(sb *strings.Builder) {
	sb.WriteByte('"')
	sb.WriteString(strings.ReplaceAll(n.Value, `"`, `""`))
	sb.WriteByte('"')
}
func (n *Bool) writeTo(sb *strings.Builder) {
	if n.Value {
		sb.WriteString("TRUE")
	} else {
		sb.WriteString("FALSE")
	}
}
func (n *CellRef) writeTo(sb *strings.Builder) {
	writeRef(sb, n.At, n.ColFixed, n.RowFixed)
}
func (n *RangeRef) writeTo(sb *strings.Builder) {
	writeRef(sb, n.At.Head, n.HeadColFixed, n.HeadRowF)
	sb.WriteByte(':')
	writeRef(sb, n.At.Tail, n.TailColFixed, n.TailRowF)
}
func (n *Binary) writeTo(sb *strings.Builder) {
	sb.WriteByte('(')
	n.L.writeTo(sb)
	n.R2Op(sb)
	n.R.writeTo(sb)
	sb.WriteByte(')')
}

// R2Op writes the operator between operands.
func (n *Binary) R2Op(sb *strings.Builder) { sb.WriteString(n.Op) }

func (n *Unary) writeTo(sb *strings.Builder) {
	if n.Postfix {
		n.X.writeTo(sb)
		sb.WriteString(n.Op)
		return
	}
	sb.WriteString(n.Op)
	n.X.writeTo(sb)
}
func (n *Call) writeTo(sb *strings.Builder) {
	sb.WriteString(n.Name)
	sb.WriteByte('(')
	for i, a := range n.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		a.writeTo(sb)
	}
	sb.WriteByte(')')
}

func writeRef(sb *strings.Builder, r ref.Ref, colFixed, rowFixed bool) {
	if colFixed {
		sb.WriteByte('$')
	}
	sb.WriteString(ref.ColName(r.Col))
	if rowFixed {
		sb.WriteByte('$')
	}
	sb.WriteString(itoa(r.Row))
}

func itoa(v int) string {
	return formatNumInt(v)
}

// Text renders an AST back to formula source (without the leading '=').
func Text(n Node) string {
	var sb strings.Builder
	n.writeTo(&sb)
	return sb.String()
}

// Parse parses a formula. A leading '=' is accepted and ignored.
func Parse(src string) (Node, error) {
	s := strings.TrimSpace(src)
	if strings.HasPrefix(s, "=") {
		s = s[1:]
	}
	p := &parser{lx: lexer{src: s}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	n, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.lx.errf(p.tok.pos, "unexpected %q after expression", p.tok.text)
	}
	return n, nil
}

// MustParse parses a formula and panics on error. Intended for tests.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// MaxNesting bounds a formula's depth, operators and calls inside one another,
// far below the stack limit (Excel nests 64). The parser recurses at most twice
// that deep, which the rendering (Text) of any formula within it fits.
const MaxNesting = 1024

type parser struct {
	lx      lexer
	tok     token
	open, d int // parseExpr calls open; the depth of the node parsed last
}

// nest sets the depth of a node over operands d deep, unless err is set.
func (p *parser) nest(err error, d int) error {
	if p.d = d + 1; err == nil && p.d > MaxNesting {
		return &ErrNesting{Pos: p.tok.pos}
	}
	return err
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// binding powers, lowest to highest.
func precedence(op string) int {
	switch op {
	case "=", "<>", "<", ">", "<=", ">=":
		return 1
	case "&":
		return 2
	case "+", "-":
		return 3
	case "*", "/":
		return 4
	case "^":
		return 5
	}
	return 0
}

func (p *parser) parseExpr(minPrec int) (Node, error) {
	if p.open++; p.open > 2*MaxNesting {
		return nil, &ErrNesting{Pos: p.tok.pos}
	}
	defer func() { p.open-- }()
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for d := p.d; p.tok.kind == tokOp; d = p.d {
		op := p.tok.text
		prec := precedence(op)
		if prec == 0 || prec < minPrec {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		// ^ is right-associative; the rest left-associative.
		nextMin := prec + 1
		if op == "^" {
			nextMin = prec
		}
		right, err := p.parseExpr(nextMin)
		if err = p.nest(err, max(d, p.d)); err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Node, error) {
	if p.tok.kind == tokOp && (p.tok.text == "-" || p.tok.text == "+") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr(precedence("^") + 1) // one operand, no binary operator
		return p.parsePercent(&Unary{Op: op, X: x}, p.nest(err, p.d))
	}
	return p.parsePercent(p.parsePrimary())
}

func (p *parser) parsePercent(x Node, err error) (Node, error) {
	for err == nil && p.tok.kind == tokOp && p.tok.text == "%" {
		x, err = &Unary{Op: "%", Postfix: true, X: x}, p.nest(p.advance(), p.d)
	}
	return x, err
}

func (p *parser) parsePrimary() (Node, error) {
	p.d = 1 // a leaf; a call or parentheses set their own
	switch p.tok.kind {
	case tokNumber:
		n := &Number{Value: p.tok.num}
		return n, p.advance()
	case tokString:
		n := &String{Value: p.tok.text}
		return n, p.advance()
	case tokCell:
		head := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokColon {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokCell {
				return nil, p.lx.errf(p.tok.pos, "expected cell after ':'")
			}
			tail := p.tok
			if err := p.advance(); err != nil {
				return nil, err
			}
			return rangeNode(head, tail), nil
		}
		return &CellRef{
			At:       ref.Ref{Col: head.col, Row: head.row},
			ColFixed: head.colFixed, RowFixed: head.rowFixed,
		}, nil
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch name {
		case "TRUE":
			return &Bool{Value: true}, nil
		case "FALSE":
			return &Bool{Value: false}, nil
		}
		if p.tok.kind != tokLParen {
			return nil, p.lx.errf(p.tok.pos, "expected '(' after function name %s", name)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		args, d := []Node(nil), 0 // d: the deepest argument's depth
		if p.tok.kind != tokRParen {
			for {
				a, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				args, d = append(args, a), max(d, p.d)
				if p.tok.kind == tokComma {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
		}
		if p.tok.kind != tokRParen {
			return nil, p.lx.errf(p.tok.pos, "expected ')' in call to %s", name)
		}
		return &Call{Name: name, Args: args}, p.nest(p.advance(), d)
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.lx.errf(p.tok.pos, "expected ')'")
		}
		return x, p.advance()
	case tokEOF:
		return nil, p.lx.errf(p.tok.pos, "unexpected end of formula")
	default:
		return nil, p.lx.errf(p.tok.pos, "unexpected token %q", p.tok.text)
	}
}

func rangeNode(head, tail token) Node {
	a := ref.Ref{Col: head.col, Row: head.row}
	b := ref.Ref{Col: tail.col, Row: tail.row}
	g := ref.RangeOf(a, b)
	// Keep the fixed flags attached to the normalised corners: if the
	// reference was written reversed, swap the flags accordingly.
	hc, hr, tc, tr := head.colFixed, head.rowFixed, tail.colFixed, tail.rowFixed
	if g.Head != a {
		// Corners swapped on at least one axis; map flags per axis.
		if a.Col > b.Col {
			hc, tc = tc, hc
		}
		if a.Row > b.Row {
			hr, tr = tr, hr
		}
	}
	return &RangeRef{At: g, HeadColFixed: hc, HeadRowF: hr, TailColFixed: tc, TailRowF: tr}
}
