package formula

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"taco/internal/ref"
)

// Kind tags the dynamic type of a spreadsheet value.
type Kind uint8

const (
	// KindEmpty is a blank cell.
	KindEmpty Kind = iota
	// KindNumber is a numeric value.
	KindNumber
	// KindString is a text value.
	KindString
	// KindBool is a boolean value.
	KindBool
	// KindError is an evaluation error (#DIV/0!, #VALUE!, ...).
	KindError
)

// ErrCode is the code of an error value: the zero code is none, the others
// are the closed set of errors the evaluator produces. String gives a code's
// spreadsheet text, which is all a snapshot or a client sees of it, and
// ParseErrCode reads the text back.
type ErrCode uint8

// The error codes, in errText's order.
const (
	ErrNull  ErrCode = iota + 1 // #NULL!
	ErrDiv0                     // #DIV/0!
	ErrValue                    // #VALUE!
	ErrRef                      // #REF!
	ErrName                     // #NAME?
	ErrNum                      // #NUM!
	ErrNA                       // #N/A
	ErrCycle                    // #CYCLE!, a reference cycle
)

var errText = [...]string{"", "#NULL!", "#DIV/0!", "#VALUE!", "#REF!", "#NAME?", "#NUM!", "#N/A", "#CYCLE!"}

// String returns the code's spreadsheet text, "" for the zero code.
func (c ErrCode) String() string { return errText[c] }

// ParseErrCode returns the code whose text is s; ok is false when s names
// none.
func ParseErrCode(s string) (c ErrCode, ok bool) {
	for c = ErrNull; int(c) < len(errText); c++ {
		if errText[c] == s {
			return c, true
		}
	}
	return 0, false
}

// Value is a spreadsheet value: the pure value of a data cell or the
// evaluated value of a formula cell. Kind, Bool and Err share one word, so a
// Value is 32 bytes.
type Value struct {
	Kind Kind
	Bool bool
	Err  ErrCode
	Num  float64
	Str  string
}

// Num returns a numeric value.
func Num(v float64) Value { return Value{Kind: KindNumber, Num: v} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// Boolean returns a boolean value.
func Boolean(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Empty returns the blank value.
func Empty() Value { return Value{Kind: KindEmpty} }

// Error returns the error value with the given code.
func Error(c ErrCode) Value { return Value{Kind: KindError, Err: c} }

// IsError reports whether the value is an evaluation error.
func (v Value) IsError() bool { return v.Kind == KindError }

// String renders the value the way a spreadsheet cell would display it.
func (v Value) String() string {
	switch v.Kind {
	case KindEmpty:
		return ""
	case KindNumber:
		return formatNum(v.Num)
	case KindString:
		return v.Str
	case KindBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.Err.String()
	}
}

// AsNumber coerces the value to a number following spreadsheet rules
// (blank -> 0, TRUE -> 1, numeric text parses). ok is false when coercion
// fails.
func (v Value) AsNumber() (float64, bool) {
	switch v.Kind {
	case KindNumber:
		return v.Num, true
	case KindEmpty:
		return 0, true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// Resolver supplies cell values to the evaluator — the spreadsheet engine
// implements it over its cell store.
type Resolver interface {
	// CellValue returns the current value of the given cell.
	CellValue(at ref.Ref) Value
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(ref.Ref) Value

// CellValue implements Resolver.
func (f ResolverFunc) CellValue(at ref.Ref) Value { return f(at) }

// RangeResolver is an optional Resolver extension: a resolver backed by
// column-sliced storage can stream every populated cell of a range as
// contiguous per-column scans instead of answering rows×cols CellValue
// probes. Range-consuming builtins (SUM and friends, SUMIF, COUNTIF,
// SUMPRODUCT, VLOOKUP) use it as their fast path and fall back to per-cell
// CellValue resolution for plain resolvers.
type RangeResolver interface {
	Resolver
	// RangeValues calls fn for every populated cell of rng in row-major
	// order — the same order (and therefore the same first-error
	// behaviour) as per-cell iteration — with the cell's position and
	// value. Unpopulated cells are skipped; callers that assign meaning to
	// blanks must account for them (see COUNTIF's empty-matching
	// criterion). It returns false when the resolver cannot serve the bulk
	// scan, in which case the caller must take the per-cell path.
	RangeValues(rng ref.Range, fn func(at ref.Ref, v Value) bool) bool
}

// rangeScan streams rng through the resolver's bulk path when it has one.
// handled=false means the caller must fall back to per-cell CellValue.
func rangeScan(res Resolver, rng ref.Range, fn func(ref.Ref, Value) bool) (handled bool) {
	rr, ok := res.(RangeResolver)
	return ok && rr.RangeValues(rng, fn)
}

// NumericFold is the result of a resolver-side batched fold over one range —
// every accumulator the plain aggregate builtins need, computed in a single
// pass over the backing storage without surfacing per-cell callbacks.
//
// Exactness contract (what lets the fold replace per-cell iteration
// bit-for-bit): Sum is accumulated sequentially in row-major cell order —
// never reassociated into independent partial sums — so it matches the
// per-cell path on every input, including ones where float addition order
// matters. Min and Max use strict comparisons seeded from ±Inf (the same
// comparisons extremum runs per cell), so ties, signed zeros, and NaNs
// resolve identically. Err carries the first error value in row-major order;
// accumulation continues past it, because counting consumers ignore errors
// while summing consumers propagate them.
type NumericFold struct {
	// Sum is the row-major sequential sum of the numeric cells.
	Sum float64
	// Count is the number of numeric cells; NonEmpty the number of non-blank
	// cells (numbers, text, bools, and errors).
	Count    int
	NonEmpty int
	// Min and Max are the numeric extrema, meaningful only when Count > 0
	// (they seed at +Inf / -Inf).
	Min, Max float64
	// Err is the first error value in row-major order (zero Value when the
	// range holds none).
	Err Value
}

// RangeFolder is an optional RangeResolver extension: a resolver backed by
// columnar storage can answer the plain aggregates (SUM, COUNT, COUNTA,
// AVERAGE, MIN, MAX) with one batched fold over its slabs — no per-cell
// callback, no interface dispatch per value — instead of streaming every
// cell through RangeValues. handled=false means the resolver cannot fold
// this range shape (e.g. a rectangle wider than its cursor-merge limit) and
// the caller must take the streaming path.
type RangeFolder interface {
	RangeResolver
	FoldRange(rng ref.Range) (NumericFold, bool)
}

// CondFolder is an optional RangeFolder extension for the conditional
// aggregates: SUMIF and two-range SUMPRODUCT fold directly off the columnar
// slabs, replacing the streaming scan's per-match point probes with slab
// cursors. Both folds carry the same exactness contract as FoldRange — cells
// visited in row-major order, float accumulation never reassociated — so
// their results are bit-identical to the streaming and per-cell paths.
type CondFolder interface {
	RangeFolder
	// FoldSumIf sums sumRng cells whose matching critRng cell satisfies the
	// compiled criterion. Callers guarantee the criterion does not match
	// blanks (they fall back before asking); handled=false means the
	// resolver cannot fold these shapes.
	FoldSumIf(critRng ref.Range, crit Criterion, sumRng ref.Range) (float64, bool)
	// FoldSumProduct computes the two-range SUMPRODUCT over equal-shape
	// ranges. The resolver must preserve the bulk-path semantics of
	// evalSumProduct: positions unpopulated in a are skipped (their term is
	// zero), and handled must be false when any stored number in either
	// range is non-finite — a skipped 0·Inf term would be NaN, not zero.
	FoldSumProduct(a, b ref.Range) (float64, bool)
}

// foldAggregate answers the fold-compatible aggregate builtins from the
// resolver's batched fold, when the argument shapes allow an exact answer.
// SUM and AVERAGE accept only the single-range form — their float
// accumulation is order-sensitive, and only there does the fold's row-major
// sequential sum equal the per-cell path's. COUNT/COUNTA/MIN/MAX are
// order-free, so every range argument folds and scalars mix in directly.
// ok=false means "not foldable here" — the caller runs the generic path.
func foldAggregate(name string, args []arg, res Resolver) (Value, bool) {
	rf, isFolder := res.(RangeFolder)
	if !isFolder {
		return Value{}, false
	}
	switch name {
	case "SUM", "AVERAGE", "AVG":
		if len(args) != 1 || !args[0].isRange {
			return Value{}, false
		}
		f, ok := rf.FoldRange(args[0].rng)
		if !ok {
			return Value{}, false
		}
		if f.Err.IsError() {
			return f.Err, true
		}
		if name == "SUM" {
			return Num(f.Sum), true
		}
		if f.Count == 0 {
			return Error(ErrDiv0), true
		}
		return Num(f.Sum / float64(f.Count)), true
	case "COUNT", "COUNTA":
		// Errors inside ranges are not propagated by the counting builtins —
		// they are merely non-numeric, non-blank cells — so the fold's Err is
		// deliberately ignored, exactly like the per-cell scan.
		n := 0
		for _, a := range args {
			if !a.isRange {
				if name == "COUNT" && a.scalar.Kind == KindNumber ||
					name == "COUNTA" && a.scalar.Kind != KindEmpty {
					n++
				}
				continue
			}
			f, ok := rf.FoldRange(a.rng)
			if !ok {
				return Value{}, false
			}
			if name == "COUNT" {
				n += f.Count
			} else {
				n += f.NonEmpty
			}
		}
		return Num(float64(n)), true
	case "MIN", "MAX":
		wantMin := name == "MIN"
		best := math.Inf(1)
		if !wantMin {
			best = math.Inf(-1)
		}
		n := 0
		for _, a := range args {
			if !a.isRange {
				v, ok := a.scalar.AsNumber()
				if !ok {
					return Error(ErrValue), true
				}
				n++
				if wantMin && v < best || !wantMin && v > best {
					best = v
				}
				continue
			}
			f, ok := rf.FoldRange(a.rng)
			if !ok {
				return Value{}, false
			}
			if f.Err.IsError() {
				return f.Err, true
			}
			n += f.Count
			if f.Count > 0 {
				if wantMin && f.Min < best {
					best = f.Min
				}
				if !wantMin && f.Max > best {
					best = f.Max
				}
			}
		}
		if n == 0 {
			return Num(0), true
		}
		return Num(best), true
	}
	return Value{}, false
}

// Eval is the reference the bytecode VM is held to: a tree walk of the AST
// against the resolver, which the equivalence tests and fuzzers compare every
// compiled program with. No runtime path evaluates through it; it is exported
// for the frozen benchmark module (bench/), which times it beside the VM.
// Errors propagate as #-style error values rather than Go errors, matching
// spreadsheet semantics, and both evaluate every operand, left to right,
// before they apply what consumes it.
func Eval(n Node, res Resolver) Value {
	switch t := n.(type) {
	case *Number:
		return Num(t.Value)
	case *String:
		return Str(t.Value)
	case *Bool:
		return Boolean(t.Value)
	case *CellRef:
		return res.CellValue(t.At)
	case *RangeRef:
		// A bare range in scalar context is an error (no implicit
		// intersection); functions receive ranges via evalArg.
		return Error(ErrValue)
	case *Unary:
		return evalUnary(t, res)
	case *Binary:
		return evalBinary(t, res)
	case *Call:
		return evalCall(t, res)
	}
	return Error(ErrValue)
}

func evalUnary(t *Unary, res Resolver) Value {
	return applyUnary(t.Op, Eval(t.X, res))
}

// applyUnary applies a unary operator to an evaluated operand. Shared by the
// AST walker and the bytecode VM, so both paths carry identical coercion and
// error semantics by construction.
func applyUnary(op string, x Value) Value {
	if x.IsError() {
		return x
	}
	f, ok := x.AsNumber()
	if !ok {
		return Error(ErrValue)
	}
	switch op {
	case "-":
		return Num(-f)
	case "+":
		return Num(f)
	case "%":
		return Num(f / 100)
	}
	return Error(ErrValue)
}

func evalBinary(t *Binary, res Resolver) Value {
	return applyBinary(t.Op, Eval(t.L, res), Eval(t.R, res))
}

// applyBinary applies a binary operator to evaluated operands, propagating
// the left error first, then the right. Shared with the bytecode VM; both
// evaluate the two operands before applying it, whatever the left one holds.
func applyBinary(op string, l, r Value) Value {
	if l.IsError() {
		return l
	}
	if r.IsError() {
		return r
	}
	switch op {
	case "&":
		return Str(l.String() + r.String())
	case "=", "<>", "<", ">", "<=", ">=":
		return compare(op, l, r)
	}
	lf, ok1 := l.AsNumber()
	rf, ok2 := r.AsNumber()
	if !ok1 || !ok2 {
		return Error(ErrValue)
	}
	switch op {
	case "+":
		return Num(lf + rf)
	case "-":
		return Num(lf - rf)
	case "*":
		return Num(lf * rf)
	case "/":
		if rf == 0 {
			return Error(ErrDiv0)
		}
		return Num(lf / rf)
	case "^":
		return Num(math.Pow(lf, rf))
	}
	return Error(ErrValue)
}

func compare(op string, l, r Value) Value {
	var c int
	switch {
	case l.Kind == KindString || r.Kind == KindString:
		ls, rs := strings.ToUpper(l.String()), strings.ToUpper(r.String())
		c = strings.Compare(ls, rs)
	default:
		lf, _ := l.AsNumber()
		rf, _ := r.AsNumber()
		switch {
		case lf < rf:
			c = -1
		case lf > rf:
			c = 1
		}
	}
	switch op {
	case "=":
		return Boolean(c == 0)
	case "<>":
		return Boolean(c != 0)
	case "<":
		return Boolean(c < 0)
	case ">":
		return Boolean(c > 0)
	case "<=":
		return Boolean(c <= 0)
	default:
		return Boolean(c >= 0)
	}
}

// arg is an evaluated function argument: either a scalar or a range of cells.
type arg struct {
	scalar  Value
	isRange bool
	rng     ref.Range
}

func evalArg(n Node, res Resolver) arg {
	if r, ok := n.(*RangeRef); ok {
		return arg{isRange: true, rng: r.At}
	}
	return arg{scalar: Eval(n, res)}
}

// eachValue streams the argument's values: a scalar yields itself; a range
// yields every cell value in row-major order — including blanks, which
// consumers like AND/OR give meaning to.
func (a arg) eachValue(res Resolver, fn func(Value) bool) {
	if !a.isRange {
		fn(a.scalar)
		return
	}
	a.rng.Cells(func(c ref.Ref) bool {
		return fn(res.CellValue(c))
	})
}

// eachValueSparse is eachValue for consumers indifferent to blank cells
// (COUNT, COUNTA, ...): with a RangeResolver it streams only populated
// cells off the columnar scan; otherwise it degrades to eachValue, whose
// blanks the consumer ignores anyway.
func (a arg) eachValueSparse(res Resolver, fn func(Value) bool) {
	if !a.isRange {
		fn(a.scalar)
		return
	}
	if rangeScan(res, a.rng, func(_ ref.Ref, v Value) bool { return fn(v) }) {
		return
	}
	a.rng.Cells(func(c ref.Ref) bool {
		return fn(res.CellValue(c))
	})
}

func evalCall(t *Call, res Resolver) Value {
	args := make([]arg, len(t.Args))
	for i, a := range t.Args {
		args[i] = evalArg(a, res)
	}
	return dispatchCall(callSite(t.Name, len(t.Args)), args, res)
}

// condTruth is IF's condition coercion: booleans as themselves, numbers by
// non-zero, strings by case-insensitive "TRUE". Blanks (and anything else)
// are false.
func condTruth(cond Value) bool {
	switch cond.Kind {
	case KindBool:
		return cond.Bool
	case KindNumber:
		return cond.Num != 0
	case KindString:
		return strings.EqualFold(cond.Str, "TRUE")
	}
	return false
}

// callShared evaluates a builtin from its name and evaluated arguments — the
// dispatcher shared by the AST walker and the bytecode VM. Every function
// here is a pure mapping of (evaluated arguments, resolver) to a value; IF
// and IFERROR are handled by dispatchCall before it.
func callShared(name string, args []arg, res Resolver) Value {
	// Fold-compatible aggregates first: one batched pass over the columnar
	// slabs when the resolver supports it, bit-identical to the streaming
	// path below (which remains the fallback for unfoldable shapes).
	if v, ok := foldAggregate(name, args, res); ok {
		return v
	}
	switch name {
	case "SUM":
		return aggregate(args, res, 0, func(acc, v float64) float64 { return acc + v })
	case "PRODUCT":
		return aggregateInit(args, res, 1, func(acc, v float64) float64 { return acc * v })
	case "AVERAGE", "AVG":
		sum, n := 0.0, 0
		if err := forNumbers(args, res, func(f float64) {
			sum += f
			n++
		}); err != nil {
			return *err
		}
		if n == 0 {
			return Error(ErrDiv0)
		}
		return Num(sum / float64(n))
	case "MIN":
		return extremum(args, res, true)
	case "MAX":
		return extremum(args, res, false)
	case "COUNT":
		n := 0
		for _, a := range args {
			a.eachValueSparse(res, func(v Value) bool {
				if v.Kind == KindNumber {
					n++
				}
				return true
			})
		}
		return Num(float64(n))
	case "COUNTA":
		n := 0
		for _, a := range args {
			a.eachValueSparse(res, func(v Value) bool {
				if v.Kind != KindEmpty {
					n++
				}
				return true
			})
		}
		return Num(float64(n))
	case "AND", "OR":
		want := name == "AND"
		out := want
		for _, a := range args {
			var errVal Value
			var errv *Value
			a.eachValue(res, func(v Value) bool {
				if v.IsError() {
					errVal = v
					errv = &errVal
					return false
				}
				f, ok := v.AsNumber()
				truth := ok && f != 0
				if v.Kind == KindBool {
					truth = v.Bool
				}
				if want {
					out = out && truth
				} else {
					out = out || truth
				}
				return true
			})
			if errv != nil {
				return *errv
			}
		}
		return Boolean(out)
	case "NOT":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		f, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		return Boolean(f == 0)
	case "ABS", "SQRT", "INT", "EXP", "LN":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		f, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		switch name {
		case "ABS":
			return Num(math.Abs(f))
		case "SQRT":
			if f < 0 {
				return Error(ErrNum)
			}
			return Num(math.Sqrt(f))
		case "INT":
			return Num(math.Floor(f))
		case "EXP":
			return Num(math.Exp(f))
		default:
			if f <= 0 {
				return Error(ErrNum)
			}
			return Num(math.Log(f))
		}
	case "ROUND":
		if len(args) < 1 || len(args) > 2 {
			return Error(ErrNA)
		}
		f, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		digits := 0.0
		if len(args) == 2 {
			digits, ok = args[1].scalar.AsNumber()
			if !ok {
				return Error(ErrValue)
			}
		}
		scale := math.Pow(10, digits)
		return Num(math.Round(f*scale) / scale)
	case "MOD":
		if len(args) != 2 {
			return Error(ErrNA)
		}
		a, ok1 := args[0].scalar.AsNumber()
		b, ok2 := args[1].scalar.AsNumber()
		if !ok1 || !ok2 {
			return Error(ErrValue)
		}
		if b == 0 {
			return Error(ErrDiv0)
		}
		m := math.Mod(a, b)
		if m != 0 && (m < 0) != (b < 0) {
			m += b
		}
		return Num(m)
	case "POWER":
		if len(args) != 2 {
			return Error(ErrNA)
		}
		a, ok1 := args[0].scalar.AsNumber()
		b, ok2 := args[1].scalar.AsNumber()
		if !ok1 || !ok2 {
			return Error(ErrValue)
		}
		return Num(math.Pow(a, b))
	case "CONCATENATE", "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			a.eachValue(res, func(v Value) bool {
				sb.WriteString(v.String())
				return true
			})
		}
		return Str(sb.String())
	case "LEN":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		return Num(float64(len(args[0].scalar.String())))
	case "UPPER", "LOWER", "TRIM":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		s := args[0].scalar.String()
		switch name {
		case "UPPER":
			return Str(strings.ToUpper(s))
		case "LOWER":
			return Str(strings.ToLower(s))
		default:
			return Str(strings.TrimSpace(s))
		}
	case "LEFT", "RIGHT":
		if len(args) < 1 || len(args) > 2 {
			return Error(ErrNA)
		}
		s := args[0].scalar.String()
		n := 1.0
		if len(args) == 2 {
			var ok bool
			n, ok = args[1].scalar.AsNumber()
			if !ok || n < 0 {
				return Error(ErrValue)
			}
		}
		k := int(n)
		if k > len(s) {
			k = len(s)
		}
		if name == "LEFT" {
			return Str(s[:k])
		}
		return Str(s[len(s)-k:])
	case "ISBLANK":
		return Boolean(len(args) == 1 && !args[0].isRange && args[0].scalar.Kind == KindEmpty)
	case "ISNUMBER":
		return Boolean(len(args) == 1 && !args[0].isRange && args[0].scalar.Kind == KindNumber)
	case "ISERROR":
		return Boolean(len(args) == 1 && !args[0].isRange && args[0].scalar.IsError())
	case "VLOOKUP":
		return evalVlookup(args, res)
	case "SUMIF":
		return evalSumif(args, res)
	case "COUNTIF":
		return evalCountif(args, res)
	default:
		return evalCallExt(name, args, res)
	}
}

func aggregate(args []arg, res Resolver, init float64, f func(acc, v float64) float64) Value {
	return aggregateInit(args, res, init, f)
}

func aggregateInit(args []arg, res Resolver, init float64, f func(acc, v float64) float64) Value {
	acc := init
	if err := forNumbers(args, res, func(v float64) { acc = f(acc, v) }); err != nil {
		return *err
	}
	return Num(acc)
}

// forNumbers streams every numeric value of the arguments. Range cells that
// hold text or blanks are skipped (spreadsheet aggregate semantics); scalar
// arguments must be numeric. Returns a non-nil error value on #-errors.
func forNumbers(args []arg, res Resolver, fn func(float64)) *Value {
	// The first error is copied into errVal rather than captured by
	// address: taking &v of the callback parameter would make every
	// streamed Value escape — one heap allocation per cell on the hot
	// aggregation path.
	var errVal Value
	var errv *Value
	for _, a := range args {
		if a.isRange {
			// Blanks are skipped either way, so the sparse scan is exact:
			// populated cells arrive in the same row-major order the
			// per-cell loop would visit them, errors included.
			a.eachValueSparse(res, func(v Value) bool {
				if v.IsError() {
					errVal = v
					errv = &errVal
					return false
				}
				if v.Kind == KindNumber {
					fn(v.Num)
				}
				return true
			})
			if errv != nil {
				return errv
			}
			continue
		}
		if a.scalar.IsError() {
			return &a.scalar
		}
		f, ok := a.scalar.AsNumber()
		if !ok {
			e := Error(ErrValue)
			return &e
		}
		fn(f)
	}
	return nil
}

func extremum(args []arg, res Resolver, wantMin bool) Value {
	best := math.Inf(1)
	if !wantMin {
		best = math.Inf(-1)
	}
	n := 0
	if err := forNumbers(args, res, func(f float64) {
		n++
		if wantMin && f < best || !wantMin && f > best {
			best = f
		}
	}); err != nil {
		return *err
	}
	if n == 0 {
		return Num(0)
	}
	return Num(best)
}

// evalVlookup implements VLOOKUP(needle, table, colIndex[, exact]). Only the
// exact-match mode (FALSE / omitted-as-FALSE here) is supported, which is the
// mode the paper's FF range-lookup workloads use.
func evalVlookup(args []arg, res Resolver) Value {
	if len(args) < 3 {
		return Error(ErrNA)
	}
	needle := args[0].scalar
	if !args[1].isRange {
		return Error(ErrValue)
	}
	table := args[1].rng
	colF, ok := args[2].scalar.AsNumber()
	if !ok {
		return Error(ErrValue)
	}
	col := int(colF)
	if col < 1 || col > table.Cols() {
		return Error(ErrRef)
	}
	// Bulk path: the key column is a single contiguous slab scan. Sound
	// only when a blank key cell cannot match the needle (a numeric needle
	// of 0 or an empty/"" needle would match blanks, which the scan skips).
	if !eqValue(Empty(), needle) {
		keyCol := ref.Range{
			Head: table.Head,
			Tail: ref.Ref{Col: table.Head.Col, Row: table.Tail.Row},
		}
		var out *Value
		if rangeScan(res, keyCol, func(at ref.Ref, v Value) bool {
			if eqValue(v, needle) {
				hit := res.CellValue(ref.Ref{Col: table.Head.Col + col - 1, Row: at.Row})
				out = &hit
				return false
			}
			return true
		}) {
			if out != nil {
				return *out
			}
			return Error(ErrNA)
		}
	}
	for row := table.Head.Row; row <= table.Tail.Row; row++ {
		v := res.CellValue(ref.Ref{Col: table.Head.Col, Row: row})
		if eqValue(v, needle) {
			return res.CellValue(ref.Ref{Col: table.Head.Col + col - 1, Row: row})
		}
	}
	return Error(ErrNA)
}

func evalSumif(args []arg, res Resolver) Value {
	if len(args) < 2 || !args[0].isRange {
		return Error(ErrNA)
	}
	crit := ParseCriterion(args[1].scalar)
	sumRange := args[0].rng
	if len(args) >= 3 {
		if !args[2].isRange {
			return Error(ErrValue)
		}
		sumRange = args[2].rng
	}
	total := 0.0
	// Bulk paths: scan only the populated criterion cells — sound when a
	// blank cannot satisfy the criterion (e.g. "<5" or =0 match blanks; for
	// those the blank positions' sum cells still matter, so fall back).
	// A CondFolder answers the whole fold off its slabs; the streaming scan
	// pays one point probe per match into the sum range (the common 2-arg
	// form, sum range == criterion range, pays none). Row-major order keeps
	// float accumulation identical to the per-cell path on all three.
	if !crit.Matches(Empty()) {
		if cf, ok := res.(CondFolder); ok {
			if f, handled := cf.FoldSumIf(args[0].rng, crit, sumRange); handled {
				return Num(f)
			}
		}
		sameRange := sumRange == args[0].rng
		if rangeScan(res, args[0].rng, func(at ref.Ref, v Value) bool {
			if crit.Matches(v) {
				if !sameRange {
					off := at.Sub(args[0].rng.Head)
					v = res.CellValue(ref.Ref{
						Col: sumRange.Head.Col + off.DCol,
						Row: sumRange.Head.Row + off.DRow,
					})
				}
				if f, ok := v.AsNumber(); ok {
					total += f
				}
			}
			return true
		}) {
			return Num(total)
		}
	}
	i := 0
	args[0].rng.Cells(func(c ref.Ref) bool {
		if crit.Matches(res.CellValue(c)) {
			dc := i % args[0].rng.Cols()
			dr := i / args[0].rng.Cols()
			v := res.CellValue(ref.Ref{Col: sumRange.Head.Col + dc, Row: sumRange.Head.Row + dr})
			if f, ok := v.AsNumber(); ok {
				total += f
			}
		}
		i++
		return true
	})
	return Num(total)
}

func evalCountif(args []arg, res Resolver) Value {
	if len(args) != 2 || !args[0].isRange {
		return Error(ErrNA)
	}
	crit := ParseCriterion(args[1].scalar)
	n := 0
	// Bulk path: count matches among populated cells; blanks (both the
	// range's unpopulated positions and stored empty values — the scan only
	// skips the former) match or not as a group, decided once up front.
	emptyMatches := crit.Matches(Empty())
	visited := 0
	if rangeScan(res, args[0].rng, func(_ ref.Ref, v Value) bool {
		visited++
		if crit.Matches(v) {
			n++
		}
		return true
	}) {
		if emptyMatches {
			n += args[0].rng.Size() - visited
		}
		return Num(float64(n))
	}
	args[0].rng.Cells(func(c ref.Ref) bool {
		if crit.Matches(res.CellValue(c)) {
			n++
		}
		return true
	})
	return Num(float64(n))
}

// critMode tags how a compiled criterion matches.
type critMode uint8

const (
	critEq    critMode = iota // plain value equality (eqValue)
	critStrEq                 // "=" with non-numeric rest: case-insensitive string equality
	critNever                 // operator prefix with unparseable number (never matches)
	critNumLE                 // numeric comparisons against num
	critNumGE
	critNumNE
	critNumLT
	critNumGT
	critNumEQ
)

// Criterion is a compiled SUMIF/COUNTIF criterion: the mini-language (plain
// value matches by equality; strings beginning with a comparison operator
// compare numerically) parsed once per call instead of once per cell.
// Resolvers implementing CondFolder receive it to test slab values.
type Criterion struct {
	mode critMode
	num  float64
	str  string
	val  Value
}

// ParseCriterion compiles a criterion value. Matching via the result is
// exactly matchesCriterion's per-cell behaviour.
func ParseCriterion(crit Value) Criterion {
	if crit.Kind == KindString {
		s := crit.Str
		for i, op := range []string{"<=", ">=", "<>", "<", ">", "="} {
			if strings.HasPrefix(s, op) {
				if f, err := strconv.ParseFloat(strings.TrimSpace(s[len(op):]), 64); err == nil {
					return Criterion{mode: critNumLE + critMode(i), num: f}
				}
				if op == "=" {
					return Criterion{mode: critStrEq, str: s[1:]}
				}
				return Criterion{mode: critNever}
			}
		}
	}
	return Criterion{mode: critEq, val: crit}
}

// Matches reports whether the value satisfies the compiled criterion.
func (c Criterion) Matches(v Value) bool {
	switch c.mode {
	case critEq:
		return eqValue(v, c.val)
	case critStrEq:
		return strings.EqualFold(v.String(), c.str)
	case critNever:
		return false
	}
	vf, ok := v.AsNumber()
	if !ok {
		return false
	}
	switch c.mode {
	case critNumLE:
		return vf <= c.num
	case critNumGE:
		return vf >= c.num
	case critNumNE:
		return vf != c.num
	case critNumLT:
		return vf < c.num
	case critNumGT:
		return vf > c.num
	default:
		return vf == c.num
	}
}

// matchesCriterion implements the SUMIF/COUNTIF criterion mini-language:
// a plain value matches by equality; strings beginning with a comparison
// operator compare numerically.
func matchesCriterion(v, crit Value) bool {
	return ParseCriterion(crit).Matches(v)
}

func eqValue(a, b Value) bool {
	af, okA := a.AsNumber()
	bf, okB := b.AsNumber()
	if a.Kind == KindNumber || b.Kind == KindNumber {
		return okA && okB && af == bf
	}
	return strings.EqualFold(a.String(), b.String())
}

func formatNum(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func formatNumInt(v int) string { return fmt.Sprintf("%d", v) }
