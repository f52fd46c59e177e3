// Package formula implements the spreadsheet formula language substrate:
// a lexer and recursive-descent parser producing an AST, extraction of the
// cell/range references a formula depends on (including the `$` fixed-versus-
// relative autofill cues the TACO compressor's heuristics consume), and an
// evaluator used by the spreadsheet engine to recalculate cells.
//
// The dialect covers the constructs exercised by the paper's workloads:
// numbers, strings, booleans, cell and range references (with `$` markers),
// arithmetic (+ - * / ^), percent, string concatenation (&), comparisons
// (= <> < > <= >=), parentheses, and function calls (SUM, IF, VLOOKUP, ...).
package formula

import (
	"fmt"
	"strconv"
	"strings"

	"taco/internal/ref"
)

// tokenKind identifies a lexical token class.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokNumber
	tokString
	tokIdent // function name or TRUE/FALSE
	tokCell  // A1-style reference, possibly with $ markers
	tokOp    // single or double character operator
	tokLParen
	tokRParen
	tokComma
	tokColon
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
	// Cell token payload.
	col, row           int
	colFixed, rowFixed bool
}

// ErrSyntax wraps lexical and parse errors.
type ErrSyntax struct {
	Pos int
	Msg string
}

func (e *ErrSyntax) Error() string {
	return fmt.Sprintf("formula: syntax error at offset %d: %s", e.Pos, e.Msg)
}

// ErrNesting rejects a formula nested past MaxNesting (see parser).
type ErrNesting struct{ Pos int }

func (e *ErrNesting) Error() string {
	return fmt.Sprintf("formula: nested past %d at %d", MaxNesting, e.Pos)
}

type lexer struct {
	src string
	pos int
}

func (lx *lexer) errf(pos int, format string, args ...any) error {
	return &ErrSyntax{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// opText is the token text of each one-byte operator: a static string, so a
// compiled program's operator table pins none of the source.
var opText = [256]string{'+': "+", '-': "-", '*': "*", '/': "/", '^': "^", '&': "&", '=': "=", '%': "%"}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) && (lx.src[lx.pos] == ' ' || lx.src[lx.pos] == '\t' || lx.src[lx.pos] == '\n' || lx.src[lx.pos] == '\r') {
		lx.pos++
	}
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case c >= '0' && c <= '9' || c == '.':
		return lx.lexNumber()
	case c == '"':
		return lx.lexString()
	case c == '$' || isAlpha(c):
		return lx.lexWord()
	case c == '(':
		lx.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		lx.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == ',':
		lx.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == ':':
		lx.pos++
		return token{kind: tokColon, text: ":", pos: start}, nil
	case c == '<':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{kind: tokOp, text: "<=", pos: start}, nil
		}
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '>' {
			lx.pos += 2
			return token{kind: tokOp, text: "<>", pos: start}, nil
		}
		lx.pos++
		return token{kind: tokOp, text: "<", pos: start}, nil
	case c == '>':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{kind: tokOp, text: ">=", pos: start}, nil
		}
		lx.pos++
		return token{kind: tokOp, text: ">", pos: start}, nil
	case opText[c] != "":
		lx.pos++
		return token{kind: tokOp, text: opText[c], pos: start}, nil
	default:
		return token{}, lx.errf(start, "unexpected character %q", c)
	}
}

func (lx *lexer) lexNumber() (token, error) {
	start := lx.pos
	seenDot, seenExp := false, false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c >= '0' && c <= '9':
			lx.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (c == 'e' || c == 'E') && !seenExp && lx.pos > start:
			seenExp = true
			lx.pos++
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
				lx.pos++
			}
		default:
			goto done
		}
	}
done:
	text := lx.src[start:lx.pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, lx.errf(start, "bad number %q", text)
	}
	return token{kind: tokNumber, text: text, num: v, pos: start}, nil
}

func (lx *lexer) lexString() (token, error) {
	start := lx.pos
	lx.pos++ // opening quote
	escaped := false
	for lx.pos < len(lx.src) {
		if lx.src[lx.pos] != '"' {
			lx.pos++
			continue
		}
		// Doubled quote is an escaped quote, per spreadsheet convention.
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '"' {
			escaped = true
			lx.pos += 2
			continue
		}
		lx.pos++
		text := lx.src[start+1 : lx.pos-1]
		if escaped {
			text = strings.ReplaceAll(text, `""`, `"`)
		}
		return token{kind: tokString, text: text, pos: start}, nil
	}
	return token{}, lx.errf(start, "unterminated string")
}

// lexWord scans an identifier or a cell reference. A word like "A1" is a cell
// reference; "SUM" is an identifier; "$B$2" is a cell reference with fixed
// markers. Identifiers may contain digits after the first letter but a pure
// letters+digits word that parses as a valid A1 reference is treated as one
// unless followed by '(' (checked by the parser via lookahead text).
func (lx *lexer) lexWord() (token, error) {
	start := lx.pos
	colFixed := false
	if lx.src[lx.pos] == '$' {
		colFixed = true
		lx.pos++
	}
	letterStart := lx.pos
	for lx.pos < len(lx.src) && isAlpha(lx.src[lx.pos]) {
		lx.pos++
	}
	letters := lx.src[letterStart:lx.pos]
	if letters == "" {
		return token{}, lx.errf(start, "stray '$'")
	}
	rowFixed := false
	digitStart := lx.pos
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '$' {
		rowFixed = true
		lx.pos++
		digitStart = lx.pos
	}
	for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
		lx.pos++
	}
	digits := lx.src[digitStart:lx.pos]

	if digits != "" && len(letters) <= 3 {
		col := colIndex(letters)
		// Atoi's overflow error matters: it clamps to MaxInt64, and a
		// near-MaxInt coordinate would wrap range iteration downstream.
		// Out-of-bound rows fall through to identifier handling.
		row, rowErr := strconv.Atoi(digits)
		if rowErr == nil && col > 0 && row > 0 && row <= ref.MaxA1Row {
			// Peek: if the next non-space char is '(', this is a function
			// call like LOG10( — treat as identifier instead.
			p := lx.pos
			for p < len(lx.src) && lx.src[p] == ' ' {
				p++
			}
			if !(p < len(lx.src) && lx.src[p] == '(') {
				return token{
					kind: tokCell, text: lx.src[start:lx.pos], pos: start,
					col: col, row: row, colFixed: colFixed, rowFixed: rowFixed,
				}, nil
			}
		}
	}
	if colFixed || rowFixed {
		return token{}, lx.errf(start, "invalid reference %q", lx.src[start:lx.pos])
	}
	// Identifier: letters already consumed; also absorb trailing digits and
	// underscores/dots (e.g. LOG10, NORM.DIST).
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if isAlpha(c) || c >= '0' && c <= '9' || c == '_' || c == '.' {
			lx.pos++
		} else {
			break
		}
	}
	return token{kind: tokIdent, text: strings.ToUpper(lx.src[start:lx.pos]), pos: start}, nil
}

func isAlpha(c byte) bool { return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' }

func colIndex(name string) int {
	col := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c < 'A' || c > 'Z' {
			return 0
		}
		col = col*26 + int(c-'A'+1)
	}
	return col
}
