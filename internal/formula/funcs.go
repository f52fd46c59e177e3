package formula

import (
	"math"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"taco/internal/ref"
)

// builtin is one spreadsheet function: what a call site of its name resolves
// to, once, when it is compiled or walked (callSite).
type builtin struct {
	// eval answers the call from its evaluated arguments; num answers it
	// instead for a builtin whose every argument is a number (at most
	// len(nums) of them), from the arguments coerced by numericArgs over
	// def, which holds the defaults of absent ones.
	eval evaluator
	num  func(x nums) Value
	def  nums
	// min and max bound the argument count: a call outside them is #N/A.
	min, max int
	// exempt skips the first-scalar-error propagation: IF, IFERROR and
	// ISERROR give errors meaning.
	exempt bool
	// fold is the aggregate the resolver's folds answer first, and the
	// numeric plan reads as one number (FoldOp); foldNone for the rest.
	fold uint8
}

// evaluator answers a builtin call from its evaluated arguments.
type evaluator func(args []arg, res Resolver) Value

// many is the max of a builtin that takes any number of arguments.
const many = math.MaxInt

// builtins is the function library, one entry a name.
var builtins = map[string]*builtin{
	// --- Aggregates ----------------------------------------------------
	"SUM":     {max: many, fold: foldSum, eval: aggregate(0, func(acc, v float64) float64 { return acc + v })},
	"PRODUCT": {max: many, eval: aggregate(1, func(acc, v float64) float64 { return acc * v })},
	"SUMSQ":   {max: many, eval: aggregate(0, func(acc, v float64) float64 { return acc + v*v })},
	"AVERAGE": {max: many, fold: foldAverage, eval: average}, "AVG": {max: many, fold: foldAverage, eval: average},
	"MIN":    {max: many, fold: foldMin, eval: extremum(true)},
	"MAX":    {max: many, fold: foldMax, eval: extremum(false)},
	"COUNT":  {max: many, fold: foldCount, eval: count(func(v Value) bool { return v.Kind == KindNumber })},
	"COUNTA": {max: many, fold: foldCountA, eval: count(func(v Value) bool { return v.Kind != KindEmpty })},
	"COUNTBLANK": {min: 1, max: 1, eval: func(args []arg, res Resolver) Value {
		if !args[0].isRange {
			return Error(ErrNA)
		}
		// Count non-blanks on the sparse scan and subtract: unpopulated
		// cells and stored empty values are both blank, so the difference
		// is exact on either path.
		nonblank := 0
		args[0].eachValueSparse(res, func(v Value) bool {
			if v.Kind != KindEmpty {
				nonblank++
			}
			return true
		})
		return Num(float64(args[0].rng.Size() - nonblank))
	}},
	"SUMIF":      {min: 2, max: many, eval: evalSumif},
	"COUNTIF":    {min: 2, max: 2, eval: evalCountif},
	"SUMPRODUCT": {min: 1, max: many, eval: evalSumProduct},

	// --- Statistics ----------------------------------------------------
	"MEDIAN": {max: many, eval: func(args []arg, res Resolver) Value {
		xs, errv := collectNumbers(args, res)
		if errv.IsError() {
			return errv
		}
		if len(xs) == 0 {
			return Error(ErrNum)
		}
		sort.Float64s(xs)
		n := len(xs)
		if n%2 == 1 {
			return Num(xs[n/2])
		}
		return Num((xs[n/2-1] + xs[n/2]) / 2)
	}},
	"STDEV": {max: many, eval: variance(true)}, "VAR": {max: many, eval: variance(false)},
	"LARGE": {min: 2, max: 2, eval: nth(true)}, "SMALL": {min: 2, max: 2, eval: nth(false)},
	"RANK": {min: 2, max: 3, eval: func(args []arg, res Resolver) Value {
		needle, ok := args[0].number()
		if !ok {
			return Error(ErrValue)
		}
		xs, errv := collectNumbers(args[1:2], res)
		if errv.IsError() {
			return errv
		}
		ascending := false
		if len(args) == 3 {
			o, ok := args[2].number()
			if !ok {
				return Error(ErrValue)
			}
			ascending = o != 0
		}
		rank := 1
		seenNeedle := false
		for _, v := range xs {
			if v == needle {
				seenNeedle = true
			}
			if !ascending && v > needle || ascending && v < needle {
				rank++
			}
		}
		if !seenNeedle {
			return Error(ErrNA)
		}
		return Num(float64(rank))
	}},

	// --- Math ----------------------------------------------------------
	"ABS": {min: 1, max: 1, num: func(x nums) Value { return Num(math.Abs(x[0])) }},
	"SQRT": {min: 1, max: 1, num: func(x nums) Value {
		if x[0] < 0 {
			return Error(ErrNum)
		}
		return Num(math.Sqrt(x[0]))
	}},
	"INT": {min: 1, max: 1, num: func(x nums) Value { return Num(math.Floor(x[0])) }},
	"EXP": {min: 1, max: 1, num: func(x nums) Value { return Num(math.Exp(x[0])) }},
	"LN": {min: 1, max: 1, num: func(x nums) Value {
		if x[0] <= 0 {
			return Error(ErrNum)
		}
		return Num(math.Log(x[0]))
	}},
	"LOG": {min: 1, max: 2, def: nums{1: 10}, num: func(x nums) Value {
		f, base := x[0], x[1]
		if f <= 0 || base <= 0 || base == 1 {
			return Error(ErrNum)
		}
		return Num(math.Log(f) / math.Log(base))
	}},
	"LOG10": {min: 1, max: 1, num: func(x nums) Value {
		if x[0] <= 0 {
			return Error(ErrNum)
		}
		return Num(math.Log10(x[0]))
	}},
	"PI": {num: func(nums) Value { return Num(math.Pi) }},
	"ROUND": {min: 1, max: 2, num: func(x nums) Value {
		scale := math.Pow(10, x[1])
		return Num(math.Round(x[0]*scale) / scale)
	}},
	"TRUNC": {min: 1, max: 2, num: func(x nums) Value {
		scale := math.Pow(10, x[1])
		return Num(math.Trunc(x[0]*scale) / scale)
	}},
	"FLOOR": {min: 1, max: 2, def: nums{1: 1}, num: toStep(math.Floor)}, "CEILING": {min: 1, max: 2, def: nums{1: 1}, num: toStep(math.Ceil)},
	"MOD": {min: 2, max: 2, num: func(x nums) Value {
		a, b := x[0], x[1]
		if b == 0 {
			return Error(ErrDiv0)
		}
		m := math.Mod(a, b)
		if m != 0 && (m < 0) != (b < 0) {
			m += b
		}
		return Num(m)
	}},
	"POWER": {min: 2, max: 2, num: func(x nums) Value { return Num(math.Pow(x[0], x[1])) }},
	"SIGN": {min: 1, max: 1, num: func(x nums) Value {
		switch {
		case x[0] > 0:
			return Num(1)
		case x[0] < 0:
			return Num(-1)
		default:
			return Num(0)
		}
	}},

	// --- Lookup --------------------------------------------------------
	"VLOOKUP": {min: 3, max: many, eval: evalVlookup},
	"HLOOKUP": {min: 3, max: many, eval: evalHlookup},
	"INDEX":   {min: 2, max: 3, eval: evalIndex},
	"MATCH":   {min: 2, max: 3, eval: evalMatch},
	"CHOOSE": {min: 2, max: many, eval: func(args []arg, _ Resolver) Value {
		kf, ok := args[0].number()
		k := int(kf)
		if !ok || k < 1 || k > len(args)-1 {
			return Error(ErrValue)
		}
		if args[k].isRange {
			return Error(ErrValue)
		}
		return args[k].scalar
	}},

	// --- Text: a count or position is in characters, not bytes ----------
	"CONCATENATE": {max: many, eval: concat}, "CONCAT": {max: many, eval: concat},
	"LEN": {min: 1, max: 1, eval: func(args []arg, _ Resolver) Value {
		return Num(float64(utf8.RuneCountInString(args[0].scalar.String())))
	}},
	"UPPER":  {min: 1, max: 1, eval: text(strings.ToUpper)},
	"LOWER":  {min: 1, max: 1, eval: text(strings.ToLower)},
	"TRIM":   {min: 1, max: 1, eval: text(strings.TrimSpace)},
	"PROPER": {min: 1, max: 1, eval: text(properCase)},
	"LEFT":   {min: 1, max: 2, eval: cut(true)}, "RIGHT": {min: 1, max: 2, eval: cut(false)},
	"MID": {min: 3, max: 3, eval: func(args []arg, _ Resolver) Value {
		s := args[0].scalar.String()
		startF, ok1 := args[1].number()
		countF, ok2 := args[2].number()
		if !ok1 || !ok2 || startF < 1 || countF < 0 {
			return Error(ErrValue)
		}
		s = s[runeOffset(s, chars(startF-1, len(s))):]
		return Str(s[:runeOffset(s, chars(countF, len(s)))])
	}},
	"FIND": {min: 2, max: 3, eval: func(args []arg, _ Resolver) Value {
		needle := args[0].scalar.String()
		hay := args[1].scalar.String()
		from := 1
		if len(args) == 3 {
			f, ok := args[2].number()
			if !ok || !(f >= 1 && f < float64(utf8.RuneCountInString(hay)+2)) {
				return Error(ErrValue)
			}
			from = int(f)
		}
		at := runeOffset(hay, from-1)
		idx := strings.Index(hay[at:], needle)
		if idx < 0 {
			return Error(ErrValue)
		}
		return Num(float64(from + utf8.RuneCountInString(hay[at:at+idx])))
	}},
	"SUBSTITUTE": {min: 3, max: 3, eval: func(args []arg, _ Resolver) Value {
		s, old, repl := args[0].scalar.String(), args[1].scalar.String(), args[2].scalar.String()
		if len(s)+strings.Count(s, old)*(len(repl)-len(old)) > MaxTextBytes {
			return Error(ErrValue)
		}
		return Str(strings.ReplaceAll(s, old, repl))
	}},
	"REPT": {min: 2, max: 2, eval: func(args []arg, _ Resolver) Value {
		s := args[0].scalar.String()
		nf, ok := args[1].number()
		if !ok || !(nf >= 0 && nf <= 32767) || len(s)*int(nf) > MaxTextBytes {
			return Error(ErrValue)
		}
		return Str(strings.Repeat(s, int(nf)))
	}},
	"EXACT": {min: 2, max: 2, eval: func(args []arg, _ Resolver) Value {
		return Boolean(args[0].scalar.String() == args[1].scalar.String())
	}},
	"VALUE": {min: 1, max: 1, num: func(x nums) Value { return Num(x[0]) }},

	// --- Logic and information -------------------------------------------
	"IF": {min: 2, max: 3, exempt: true, eval: func(args []arg, _ Resolver) Value {
		cond := scalarize(args[0])
		if cond.IsError() {
			return cond
		}
		if condTruth(cond) {
			return scalarize(args[1])
		}
		if len(args) == 3 {
			return scalarize(args[2])
		}
		return Boolean(false)
	}},
	"IFERROR": {min: 2, max: 2, exempt: true, eval: func(args []arg, _ Resolver) Value {
		v := scalarize(args[0])
		if v.IsError() {
			return scalarize(args[1])
		}
		return v
	}},
	"ISERROR":   {max: many, exempt: true, eval: is(Value.IsError)},
	"ISBLANK":   {max: many, eval: is(func(v Value) bool { return v.Kind == KindEmpty })},
	"ISNUMBER":  {max: many, eval: is(func(v Value) bool { return v.Kind == KindNumber })},
	"ISTEXT":    {max: many, eval: is(func(v Value) bool { return v.Kind == KindString })},
	"ISLOGICAL": {max: many, eval: is(func(v Value) bool { return v.Kind == KindBool })},
	"ISEVEN":    {min: 1, max: 1, num: func(x nums) Value { return Boolean(int64(math.Trunc(x[0]))%2 == 0) }},
	"ISODD":     {min: 1, max: 1, num: func(x nums) Value { return Boolean(int64(math.Trunc(x[0]))%2 != 0) }},
	"AND":       {max: many, eval: andOr(true)}, "OR": {max: many, eval: andOr(false)},
	"NOT": {min: 1, max: 1, num: func(x nums) Value { return Boolean(x[0] == 0) }},
	"XOR": {max: many, eval: func(args []arg, res Resolver) Value {
		truths := 0
		for _, a := range args {
			// Sparse scan is sound for XOR: a blank is never truthy.
			if errv := a.untilError(res, true, func(v Value) {
				f, ok := v.AsNumber()
				if v.Kind == KindBool && v.Bool || ok && v.Kind != KindBool && f != 0 {
					truths++
				}
			}); errv.IsError() {
				return errv
			}
		}
		return Boolean(truths%2 == 1)
	}},
	"NA": {max: many, eval: func([]arg, Resolver) Value { return Error(ErrNA) }},

	// --- Financial: money paid out is negative ----------------------------
	"NPV": {min: 2, max: many, eval: func(args []arg, res Resolver) Value {
		rate, ok := args[0].number()
		if !ok {
			return Error(ErrValue)
		}
		if rate <= -1 {
			return Error(ErrNum)
		}
		total := 0.0
		period := 1
		for _, a := range args[1:] {
			if errv := a.untilError(res, true, func(v Value) {
				if v.Kind == KindNumber {
					total += v.Num / math.Pow(1+rate, float64(period))
					period++
				}
			}); errv.IsError() {
				return errv
			}
		}
		return Num(total)
	}},
	// PMT(rate, nper, pv[, fv[, type]])
	"PMT": {min: 3, max: 5, num: func(x nums) Value {
		rate, nper, pv := x[0], x[1], x[2]
		fv, due := x[3], x[4] != 0
		if nper == 0 {
			return Error(ErrNum)
		}
		if rate == 0 {
			return Num(-(pv + fv) / nper)
		}
		f := math.Pow(1+rate, nper)
		pmt := -(pv*f + fv) * rate / (f - 1)
		if due {
			pmt /= 1 + rate
		}
		return Num(pmt)
	}},
	// FV(rate, nper, pmt[, pv[, type]])
	"FV": {min: 3, max: 5, num: func(x nums) Value {
		rate, nper, pmt := x[0], x[1], x[2]
		pv, due := x[3], x[4] != 0
		if rate == 0 {
			return Num(-(pv + pmt*nper))
		}
		f := math.Pow(1+rate, nper)
		adj := 1.0
		if due {
			adj = 1 + rate
		}
		return Num(-(pv*f + pmt*adj*(f-1)/rate))
	}},
	// PV(rate, nper, pmt[, fv[, type]])
	"PV": {min: 3, max: 5, num: func(x nums) Value {
		rate, nper, pmt := x[0], x[1], x[2]
		fv, due := x[3], x[4] != 0
		if rate == 0 {
			return Num(-(fv + pmt*nper))
		}
		f := math.Pow(1+rate, nper)
		adj := 1.0
		if due {
			adj = 1 + rate
		}
		return Num(-(fv + pmt*adj*(f-1)/rate) / f)
	}},
	// IRR(values[, guess]) — Newton iteration on the NPV polynomial.
	"IRR": {min: 1, max: many, eval: func(args []arg, res Resolver) Value {
		if !args[0].isRange {
			return Error(ErrNA)
		}
		var flows []float64
		if errv := args[0].untilError(res, true, func(v Value) {
			if v.Kind == KindNumber {
				flows = append(flows, v.Num)
			}
		}); errv.IsError() {
			return errv
		}
		guess := 0.1
		if len(args) >= 2 {
			if g, ok := args[1].number(); ok {
				guess = g
			}
		}
		rate, ok := irr(flows, guess)
		if !ok {
			return Error(ErrNum)
		}
		return Num(rate)
	}},
}

// unknown is what a name no builtin has resolves to: #NAME?, once the first
// scalar error among its arguments has propagated.
var unknown = &builtin{max: many, eval: func([]arg, Resolver) Value { return Error(ErrName) }}

// callSite is the call site of the named builtin over argc arguments.
func callSite(name string, argc int) callInfo {
	b := builtins[name]
	if b == nil {
		b = unknown
	}
	return callInfo{name: name, argc: int32(argc), fn: b}
}

// dispatchCall runs one call site over its evaluated arguments, for the VM and
// Eval alike: the first scalar error (in argument order) propagates unless the
// builtin gives errors meaning, and the builtin answers the rest.
func dispatchCall(ci callInfo, args []arg, res Resolver) Value {
	if !ci.fn.exempt {
		for i := range args {
			if !args[i].isRange && args[i].scalar.IsError() {
				return args[i].scalar
			}
		}
	}
	return ci.fn.call(args, res)
}

// call answers the builtin over its evaluated arguments: #N/A outside its
// arity, #VALUE! when a numeric builtin's argument is not a number, an
// aggregate off the resolver's folds when they answer it exactly, else its
// evaluator — whose text, past MaxTextBytes, is #VALUE!.
func (b *builtin) call(args []arg, res Resolver) Value {
	if len(args) < b.min || len(args) > b.max {
		return Error(ErrNA)
	}
	if b.num != nil {
		x := b.def
		if !numericArgs(args, &x) {
			return Error(ErrValue)
		}
		return b.num(x)
	}
	if b.fold != foldNone {
		if v, ok := foldAggregate(b.fold, args, res); ok {
			return v
		}
	}
	v := b.eval(args, res)
	if v.Kind == KindString && len(v.Str) > MaxTextBytes {
		return Error(ErrValue)
	}
	return v
}

// number coerces a scalar argument to a number (AsNumber); a range is none.
func (a arg) number() (float64, bool) {
	if a.isRange {
		return 0, false
	}
	return a.scalar.AsNumber()
}

// untilError streams the argument's values to fn — only the populated cells
// of a range when sparse (eachValueSparse), every cell when not (eachValue) —
// and stops at the first error value, which it returns; the zero Value when
// there is none. The error is copied out, not captured by address: taking &v
// of the callback parameter would make every streamed Value escape, one heap
// allocation per cell.
func (a arg) untilError(res Resolver, sparse bool, fn func(Value)) Value {
	var errv Value
	visit := func(v Value) bool {
		if v.IsError() {
			errv = v
			return false
		}
		fn(v)
		return true
	}
	if sparse {
		a.eachValueSparse(res, visit)
	} else {
		a.eachValue(res, visit)
	}
	return errv
}

// nums holds the arguments of a builtin whose every argument is a number.
type nums [5]float64

// numericArgs coerces every argument to a number into x; it is false when one
// is a range or does not coerce.
func numericArgs(args []arg, x *nums) bool {
	for i := range args {
		f, ok := args[i].number()
		if !ok {
			return false
		}
		x[i] = f
	}
	return true
}

// aggregate makes the evaluator that folds every number of the arguments
// (forNumbers) into an accumulator that starts at init.
func aggregate(init float64, f func(acc, v float64) float64) evaluator {
	return func(args []arg, res Resolver) Value {
		acc := init
		if errv := forNumbers(args, res, func(v float64) { acc = f(acc, v) }); errv.IsError() {
			return errv
		}
		return Num(acc)
	}
}

func average(args []arg, res Resolver) Value {
	sum, n := 0.0, 0
	if errv := forNumbers(args, res, func(f float64) {
		sum += f
		n++
	}); errv.IsError() {
		return errv
	}
	if n == 0 {
		return Error(ErrDiv0)
	}
	return Num(sum / float64(n))
}

// extremum makes MIN (wantMin) or MAX; of no numbers it is 0.
func extremum(wantMin bool) evaluator {
	return func(args []arg, res Resolver) Value {
		best := math.Inf(1)
		if !wantMin {
			best = math.Inf(-1)
		}
		n := 0
		if errv := forNumbers(args, res, func(f float64) {
			n++
			if wantMin && f < best || !wantMin && f > best {
				best = f
			}
		}); errv.IsError() {
			return errv
		}
		if n == 0 {
			return Num(0)
		}
		return Num(best)
	}
}

// count makes COUNT or COUNTA: how many of the arguments' values counts
// holds of. Errors are not propagated: they are merely non-blank cells.
func count(counts func(Value) bool) evaluator {
	return func(args []arg, res Resolver) Value {
		n := 0
		for _, a := range args {
			a.eachValueSparse(res, func(v Value) bool {
				if counts(v) {
					n++
				}
				return true
			})
		}
		return Num(float64(n))
	}
}

// variance makes VAR, the sample variance, or STDEV, its square root.
func variance(stdev bool) evaluator {
	return func(args []arg, res Resolver) Value {
		xs, errv := collectNumbers(args, res)
		if errv.IsError() {
			return errv
		}
		n := float64(len(xs))
		if n < 2 {
			return Error(ErrDiv0)
		}
		mean := 0.0
		for _, v := range xs {
			mean += v
		}
		mean /= n
		ss := 0.0
		for _, v := range xs {
			ss += (v - mean) * (v - mean)
		}
		if stdev {
			return Num(math.Sqrt(ss / (n - 1)))
		}
		return Num(ss / (n - 1))
	}
}

// nth makes LARGE (the k-th largest number of a range) or SMALL.
func nth(large bool) evaluator {
	return func(args []arg, res Resolver) Value {
		xs, errv := collectNumbers(args[:1], res)
		if errv.IsError() {
			return errv
		}
		kf, ok := args[1].number()
		k := int(kf)
		if !ok || k < 1 || k > len(xs) {
			return Error(ErrNum)
		}
		sort.Float64s(xs)
		if large {
			return Num(xs[len(xs)-k])
		}
		return Num(xs[k-1])
	}
}

// collectNumbers is every number forNumbers streams, or its error.
func collectNumbers(args []arg, res Resolver) (xs []float64, errv Value) {
	errv = forNumbers(args, res, func(f float64) { xs = append(xs, f) })
	return xs, errv
}

// toStep makes FLOOR (round by math.Floor) or CEILING: x[0] rounded to a
// multiple of the step x[1].
func toStep(round func(float64) float64) func(x nums) Value {
	return func(x nums) Value {
		if x[1] == 0 {
			return Error(ErrDiv0)
		}
		return Num(round(x[0]/x[1]) * x[1])
	}
}

// is makes a type predicate: TRUE when its one argument is a scalar pred
// holds of, FALSE for anything else, any other argument count included.
func is(pred func(Value) bool) evaluator {
	return func(args []arg, _ Resolver) Value {
		return Boolean(len(args) == 1 && !args[0].isRange && pred(args[0].scalar))
	}
}

// andOr makes AND (want) or OR over every cell of the arguments, a blank
// being false.
func andOr(want bool) evaluator {
	return func(args []arg, res Resolver) Value {
		out := want
		for _, a := range args {
			if errv := a.untilError(res, false, func(v Value) {
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
			}); errv.IsError() {
				return errv
			}
		}
		return Boolean(out)
	}
}

// text makes a builtin that maps its one argument's text through f.
func text(f func(string) string) evaluator {
	return func(args []arg, _ Resolver) Value { return Str(f(args[0].scalar.String())) }
}

// concat is CONCATENATE: every value of the arguments as text, refused with
// #VALUE! before it grows past MaxTextBytes.
func concat(args []arg, res Resolver) Value {
	var sb strings.Builder
	long := false
	for _, a := range args {
		a.eachValue(res, func(v Value) bool {
			s := v.String()
			if long = sb.Len()+len(s) > MaxTextBytes; long {
				return false
			}
			sb.WriteString(s)
			return true
		})
		if long {
			return Error(ErrValue)
		}
	}
	return Str(sb.String())
}

// cut makes LEFT (left) or RIGHT: the first or the last n characters, n
// being 1 when absent.
func cut(left bool) evaluator {
	return func(args []arg, _ Resolver) Value {
		s, n := args[0].scalar.String(), 1.0
		if len(args) == 2 {
			var ok bool
			if n, ok = args[1].number(); !ok || n < 0 {
				return Error(ErrValue)
			}
		}
		k := chars(n, len(s))
		if left {
			return Str(s[:runeOffset(s, k)])
		}
		return Str(s[runeOffset(s, utf8.RuneCountInString(s)-k):])
	}
}

// chars is a character count or offset f as an int in 0..limit: truncated,
// NaN and below zero as 0, past limit as limit.
func chars(f float64, limit int) int {
	switch {
	case !(f > 0):
		return 0
	case f >= float64(limit):
		return limit
	}
	return int(f)
}

// runeOffset is the byte offset in s of its n-th character (from 0), len(s)
// when s has no more than n.
func runeOffset(s string, n int) int {
	for i := range s {
		if n <= 0 {
			return i
		}
		n--
	}
	return len(s)
}

// evalSumProduct multiplies corresponding cells of equal-shape ranges and
// sums the products.
func evalSumProduct(args []arg, res Resolver) Value {
	for _, a := range args {
		if !a.isRange {
			return Error(ErrValue)
		}
		if a.rng.Size() != args[0].rng.Size() ||
			a.rng.Cols() != args[0].rng.Cols() {
			return Error(ErrValue)
		}
	}
	// The two-range form folds off a RangeFolder's slabs; more ranges, and
	// a resolver without folds, take the per-cell path, which is the
	// reference.
	if rf, ok := res.(RangeFolder); ok && len(args) == 2 {
		return Num(rf.FoldSumProduct(args[0].rng, args[1].rng))
	}
	first := args[0].rng
	total := 0.0
	i := 0
	first.Cells(func(ref.Ref) bool {
		dc := i % first.Cols()
		dr := i / first.Cols()
		prod := 1.0
		for _, a := range args {
			at := ref.Ref{Col: a.rng.Head.Col + dc, Row: a.rng.Head.Row + dr}
			prod *= SumProductFactor(res.CellValue(at))
		}
		total += prod
		i++
		return true
	})
	return Num(total)
}

// SumProductFactor coerces one SUMPRODUCT operand: text (including numeric
// text) and errors count as zero, per spreadsheet semantics. Exported so
// bulk resolvers implementing RangeFolder.FoldSumProduct can reproduce the
// exact per-cell coercion.
func SumProductFactor(v Value) float64 {
	f, ok := v.AsNumber()
	if !ok || v.Kind == KindString {
		return 0
	}
	return f
}

// evalHlookup is the horizontal dual of VLOOKUP: keys in the table's first
// row, result from the given row index. Exact-match mode.
func evalHlookup(args []arg, res Resolver) Value {
	needle := args[0].scalar
	if !args[1].isRange {
		return Error(ErrValue)
	}
	table := args[1].rng
	rowF, ok := args[2].number()
	if !ok {
		return Error(ErrValue)
	}
	row := int(rowF)
	if row < 1 || row > table.Rows() {
		return Error(ErrRef)
	}
	for col := table.Head.Col; col <= table.Tail.Col; col++ {
		v := res.CellValue(ref.Ref{Col: col, Row: table.Head.Row})
		if eqValue(v, needle) {
			return res.CellValue(ref.Ref{Col: col, Row: table.Head.Row + row - 1})
		}
	}
	return Error(ErrNA)
}

// evalIndex returns the cell at (rowIdx, colIdx) within a range. A
// single-row or single-column range accepts one index.
func evalIndex(args []arg, res Resolver) Value {
	if !args[0].isRange {
		return Error(ErrNA)
	}
	rng := args[0].rng
	idx1, ok := args[1].number()
	if !ok {
		return Error(ErrValue)
	}
	rowIdx, colIdx := int(idx1), 1
	if len(args) == 3 {
		idx2, ok := args[2].number()
		if !ok {
			return Error(ErrValue)
		}
		colIdx = int(idx2)
	} else if rng.Rows() == 1 {
		// One index into a row vector selects the column.
		rowIdx, colIdx = 1, int(idx1)
	}
	if rowIdx < 1 || rowIdx > rng.Rows() || colIdx < 1 || colIdx > rng.Cols() {
		return Error(ErrRef)
	}
	return res.CellValue(ref.Ref{
		Col: rng.Head.Col + colIdx - 1,
		Row: rng.Head.Row + rowIdx - 1,
	})
}

// evalMatch returns the 1-based position of the needle in a single-row or
// single-column range. Exact-match mode (type 0) only.
func evalMatch(args []arg, res Resolver) Value {
	if !args[1].isRange {
		return Error(ErrNA)
	}
	if len(args) == 3 {
		mt, ok := args[2].number()
		if !ok || mt != 0 {
			return Error(ErrNA) // only exact match supported
		}
	}
	needle := args[0].scalar
	rng := args[1].rng
	if rng.Rows() != 1 && rng.Cols() != 1 {
		return Error(ErrNA)
	}
	pos := 1
	var found *int
	rng.Cells(func(c ref.Ref) bool {
		if eqValue(res.CellValue(c), needle) {
			p := pos
			found = &p
			return false
		}
		pos++
		return true
	})
	if found == nil {
		return Error(ErrNA)
	}
	return Num(float64(*found))
}

// properCase capitalises the first letter of every word, a word being a run
// of letters, and lowers the rest.
func properCase(s string) string {
	var sb strings.Builder
	newWord := true
	for _, r := range s {
		switch {
		case !unicode.IsLetter(r):
			sb.WriteRune(r)
			newWord = true
		case newWord:
			sb.WriteString(strings.ToUpper(string(r)))
			newWord = false
		default:
			sb.WriteString(strings.ToLower(string(r)))
		}
	}
	return sb.String()
}
