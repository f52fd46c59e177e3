package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The edit batch's wire decoder. It exists because encoding/json's
// reflection cost more per load than applying the batch did. It reads the
// canonical form json.Marshal writes and hands everything else to
// json.Unmarshal, which stays the one judge of any other input;
// FuzzWireDecode holds the two to the same answers. The answers go out
// through writeJSON.

// decodeBatch decodes an edit batch body: through scanBatch when the body is
// in the canonical form, else through json.Unmarshal. Either way, data after
// the batch's closing brace is an error.
func decodeBatch(body []byte) (EditBatch, error) {
	if b, ok := scanBatch(body); ok {
		return b, nil
	}
	var b EditBatch
	if err := json.Unmarshal(body, &b); err != nil {
		return EditBatch{}, err
	}
	return b, nil
}

// readBody reads a request body whole, presized from its Content-Length up
// to a mebibyte: a larger claim grows as the bytes arrive, so a client that
// promises a big body and sends none pins nothing.
func readBody(r *http.Request) ([]byte, error) {
	size := r.ContentLength
	if size < 0 || size > 1<<20 {
		size = 0
	}
	// MinRead spare: the read that sees EOF needs no growth.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// scanBatch decodes a batch in the canonical form: the exact lower-case keys
// of EditBatch and EditOp, each at most once, a number for value, a string
// for cell, text and formula, a boolean for clear, and any JSON whitespace,
// string escape and number. It declines (ok false) anything else — another
// key case, an unknown or repeated key, null, raw invalid UTF-8, a syntax
// error, data after the batch — and json.Unmarshal decides those.
//
// Strings are copies, never substrings of body, so a formula or text held by
// the cell store pins no request. Values point into one []float64 per batch
// and formulas and texts into one []string, so a batch allocates its ops,
// those two arrays and one string per string field.
func scanBatch(body []byte) (EditBatch, bool) {
	s := scanner{b: body}
	if !s.skip('{') || !s.skip('"') || !s.word(`edits"`) || !s.skip(':') || !s.skip('[') {
		return EditBatch{}, false
	}
	// Presized from the braces, the ops and the batch give or take one in a
	// string, but never past maxBatchHint: the count is the client's word,
	// and a body of bare braces would otherwise reserve 72 bytes a byte
	// before its second one is refused. A larger batch grows as it is read.
	n := min(bytes.Count(body, []byte{'{'}), maxBatchHint)
	edits := make([]EditOp, 0, n)
	s.nums = make([]float64, 0, n)
	s.strs = make([]string, 0, n)
	if !s.skip(']') {
		for {
			if len(edits) == cap(edits) {
				edits = slices.Grow(edits, len(edits)) // doubles, where append adds a quarter
			}
			edits = append(edits, EditOp{})
			if !s.op(&edits[len(edits)-1]) {
				return EditBatch{}, false
			}
			if s.skip(',') {
				continue
			}
			if s.skip(']') {
				break
			}
			return EditBatch{}, false
		}
	}
	if !s.skip('}') {
		return EditBatch{}, false
	}
	s.space()
	return EditBatch{Edits: edits}, s.i == len(s.b)
}

// maxBatchHint caps the ops scanBatch reserves room for before it has read
// any: about three times a 200-row sheet's whole-sheet load.
const maxBatchHint = 4096

// scanner is scanBatch's cursor over a body.
type scanner struct {
	b    []byte
	i    int
	tmp  []byte    // an escaped string's bytes, unescaped
	nums []float64 // the values' storage; a full array is left to its pointers
	strs []string  // the formulas' and texts' storage, the same way
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// skip skips whitespace and consumes c if the body continues with it.
func (s *scanner) skip(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// word consumes w if the body continues with it.
func (s *scanner) word(w string) bool {
	if len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// The keys of an EditOp, as bits of the set an op has seen.
const (
	keyCell = 1 << iota
	keyValue
	keyText
	keyFormula
	keyClear
)

// op decodes one EditOp object into op.
func (s *scanner) op(op *EditOp) bool {
	if !s.skip('{') {
		return false
	}
	if s.skip('}') {
		return true
	}
	seen := 0
	for {
		key := s.key()
		if key == 0 || seen&key != 0 || !s.skip(':') {
			return false
		}
		seen |= key
		s.space()
		ok := false
		switch key {
		case keyCell:
			op.Cell, ok = s.str()
		case keyValue:
			var f float64
			if f, ok = s.num(); ok {
				if len(s.nums) == cap(s.nums) {
					s.nums = make([]float64, 0, 2*cap(s.nums)+8)
				}
				s.nums = append(s.nums, f)
				op.Value = &s.nums[len(s.nums)-1]
			}
		case keyText:
			op.Text, ok = s.strPtr()
		case keyFormula:
			op.Formula, ok = s.strPtr()
		case keyClear:
			op.Clear, ok = s.boolean()
		}
		if !ok {
			return false
		}
		if s.skip(',') {
			continue
		}
		return s.skip('}')
	}
}

// key reads an object key of EditOp, spelled exactly, and returns its bit,
// or 0.
func (s *scanner) key() int {
	if !s.skip('"') {
		return 0
	}
	switch {
	case s.word(`cell"`):
		return keyCell
	case s.word(`value"`):
		return keyValue
	case s.word(`formula"`):
		return keyFormula
	case s.word(`text"`):
		return keyText
	case s.word(`clear"`):
		return keyClear
	}
	return 0
}

func (s *scanner) strPtr() (*string, bool) {
	v, ok := s.str()
	if !ok {
		return nil, false
	}
	if len(s.strs) == cap(s.strs) {
		s.strs = make([]string, 0, 2*cap(s.strs)+8)
	}
	s.strs = append(s.strs, v)
	return &s.strs[len(s.strs)-1], true
}

// str decodes a string as json.Unmarshal does, declining raw invalid UTF-8
// and control bytes. Unescaped, it is one copy of its bytes in the body;
// escaped, its bytes are gathered in s.tmp first.
func (s *scanner) str() (string, bool) {
	b := s.b
	if s.i >= len(b) || b[s.i] != '"' {
		return "", false
	}
	s.i++
	start, escaped := s.i, false
	for s.i < len(b) {
		switch c := b[s.i]; {
		case c == '"':
			out := b[start:s.i]
			if escaped {
				s.tmp = append(s.tmp, out...)
				out = s.tmp
			}
			s.i++
			return string(out), true
		case c == '\\':
			if !escaped {
				s.tmp, escaped = s.tmp[:0], true
			}
			s.tmp = append(s.tmp, b[start:s.i]...)
			if !s.escape() {
				return "", false
			}
			start = s.i
		case c < 0x20:
			return "", false
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, size := utf8.DecodeRune(b[s.i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			s.i += size
		}
	}
	return "", false
}

// escape appends the rune of the escape at s.i to s.tmp and steps past it.
// A \u escape decodes as encoding/json decodes it: a surrogate pair is one
// rune, and a lone surrogate is U+FFFD.
func (s *scanner) escape() bool {
	b := s.b
	if s.i+1 >= len(b) {
		return false
	}
	switch e := b[s.i+1]; e {
	case '"', '\\', '/':
		s.tmp = append(s.tmp, e)
	case 'b':
		s.tmp = append(s.tmp, '\b')
	case 'f':
		s.tmp = append(s.tmp, '\f')
	case 'n':
		s.tmp = append(s.tmp, '\n')
	case 'r':
		s.tmp = append(s.tmp, '\r')
	case 't':
		s.tmp = append(s.tmp, '\t')
	case 'u':
		r := hex4(b[s.i:])
		if r < 0 {
			return false
		}
		s.i += 6
		if utf16.IsSurrogate(r) {
			if dec := utf16.DecodeRune(r, hex4(b[s.i:])); dec != utf8.RuneError {
				r = dec
				s.i += 6
			} else {
				r = utf8.RuneError
			}
		}
		s.tmp = utf8.AppendRune(s.tmp, r)
		return true
	default:
		return false
	}
	s.i += 2
	return true
}

// hex4 reads the rune of a \uXXXX escape at the start of b, or -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// num decodes a number in JSON's strict grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, declining one that does not
// fit a float64, as json.Unmarshal refuses it.
func (s *scanner) num() (float64, bool) {
	b, i := s.b, s.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		digits()
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return f, true
}

func (s *scanner) boolean() (bool, bool) {
	if s.word(`true`) {
		return true, true
	}
	return false, s.word(`false`)
}
