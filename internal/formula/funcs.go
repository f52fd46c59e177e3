package formula

import (
	"math"
	"sort"
	"strings"

	"taco/internal/ref"
)

// evalCallExt dispatches the extended function library: statistics, lookup,
// text, and information functions beyond the core set in eval.go. Unknown
// names yield #NAME?, matching spreadsheet behaviour.
func evalCallExt(name string, args []arg, res Resolver) Value {
	switch name {
	// --- Math ---------------------------------------------------------
	case "FLOOR", "CEILING":
		return evalFloorCeiling(name, args)
	case "TRUNC":
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
		return Num(math.Trunc(f*scale) / scale)
	case "SIGN":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		f, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		switch {
		case f > 0:
			return Num(1)
		case f < 0:
			return Num(-1)
		default:
			return Num(0)
		}
	case "LOG":
		if len(args) < 1 || len(args) > 2 {
			return Error(ErrNA)
		}
		f, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		base := 10.0
		if len(args) == 2 {
			base, ok = args[1].scalar.AsNumber()
			if !ok {
				return Error(ErrValue)
			}
		}
		if f <= 0 || base <= 0 || base == 1 {
			return Error(ErrNum)
		}
		return Num(math.Log(f) / math.Log(base))
	case "LOG10":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		f, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		if f <= 0 {
			return Error(ErrNum)
		}
		return Num(math.Log10(f))
	case "PI":
		if len(args) != 0 {
			return Error(ErrNA)
		}
		return Num(math.Pi)
	case "SUMSQ":
		return aggregateInit(args, res, 0, func(acc, v float64) float64 { return acc + v*v })
	case "SUMPRODUCT":
		return evalSumProduct(args, res)

	// --- Statistics ----------------------------------------------------
	case "MEDIAN":
		xs := collectNumbers(args, res)
		if errv, ok := xs.err(); ok {
			return errv
		}
		if len(xs.vals) == 0 {
			return Error(ErrNum)
		}
		sort.Float64s(xs.vals)
		n := len(xs.vals)
		if n%2 == 1 {
			return Num(xs.vals[n/2])
		}
		return Num((xs.vals[n/2-1] + xs.vals[n/2]) / 2)
	case "STDEV", "VAR":
		xs := collectNumbers(args, res)
		if errv, ok := xs.err(); ok {
			return errv
		}
		n := float64(len(xs.vals))
		if n < 2 {
			return Error(ErrDiv0)
		}
		mean := 0.0
		for _, v := range xs.vals {
			mean += v
		}
		mean /= n
		ss := 0.0
		for _, v := range xs.vals {
			ss += (v - mean) * (v - mean)
		}
		variance := ss / (n - 1)
		if name == "VAR" {
			return Num(variance)
		}
		return Num(math.Sqrt(variance))
	case "LARGE", "SMALL":
		if len(args) != 2 {
			return Error(ErrNA)
		}
		xs := collectNumbers(args[:1], res)
		if errv, ok := xs.err(); ok {
			return errv
		}
		kf, ok := args[1].scalar.AsNumber()
		k := int(kf)
		if !ok || k < 1 || k > len(xs.vals) {
			return Error(ErrNum)
		}
		sort.Float64s(xs.vals)
		if name == "SMALL" {
			return Num(xs.vals[k-1])
		}
		return Num(xs.vals[len(xs.vals)-k])
	case "RANK":
		if len(args) < 2 || len(args) > 3 {
			return Error(ErrNA)
		}
		needle, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		xs := collectNumbers(args[1:2], res)
		if errv, ok := xs.err(); ok {
			return errv
		}
		ascending := false
		if len(args) == 3 {
			o, ok := args[2].scalar.AsNumber()
			if !ok {
				return Error(ErrValue)
			}
			ascending = o != 0
		}
		rank := 1
		seenNeedle := false
		for _, v := range xs.vals {
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
	case "COUNTBLANK":
		if len(args) != 1 || !args[0].isRange {
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

	// --- Lookup --------------------------------------------------------
	case "HLOOKUP":
		return evalHlookup(args, res)
	case "INDEX":
		return evalIndex(args, res)
	case "MATCH":
		return evalMatch(args, res)
	case "CHOOSE":
		if len(args) < 2 {
			return Error(ErrNA)
		}
		kf, ok := args[0].scalar.AsNumber()
		k := int(kf)
		if !ok || k < 1 || k > len(args)-1 {
			return Error(ErrValue)
		}
		if args[k].isRange {
			return Error(ErrValue)
		}
		return args[k].scalar

	// --- Text ----------------------------------------------------------
	case "MID":
		if len(args) != 3 {
			return Error(ErrNA)
		}
		s := args[0].scalar.String()
		startF, ok1 := args[1].scalar.AsNumber()
		countF, ok2 := args[2].scalar.AsNumber()
		if !ok1 || !ok2 || startF < 1 || countF < 0 {
			return Error(ErrValue)
		}
		start, count := int(startF)-1, int(countF)
		if start >= len(s) {
			return Str("")
		}
		end := start + count
		if end > len(s) {
			end = len(s)
		}
		return Str(s[start:end])
	case "FIND":
		if len(args) < 2 || len(args) > 3 {
			return Error(ErrNA)
		}
		needle := args[0].scalar.String()
		hay := args[1].scalar.String()
		from := 1
		if len(args) == 3 {
			f, ok := args[2].scalar.AsNumber()
			if !ok || f < 1 {
				return Error(ErrValue)
			}
			from = int(f)
		}
		if from > len(hay)+1 {
			return Error(ErrValue)
		}
		idx := strings.Index(hay[from-1:], needle)
		if idx < 0 {
			return Error(ErrValue)
		}
		return Num(float64(from + idx))
	case "SUBSTITUTE":
		if len(args) != 3 {
			return Error(ErrNA)
		}
		return Str(strings.ReplaceAll(args[0].scalar.String(),
			args[1].scalar.String(), args[2].scalar.String()))
	case "REPT":
		if len(args) != 2 {
			return Error(ErrNA)
		}
		nf, ok := args[1].scalar.AsNumber()
		if !ok || nf < 0 || nf > 32767 {
			return Error(ErrValue)
		}
		return Str(strings.Repeat(args[0].scalar.String(), int(nf)))
	case "EXACT":
		if len(args) != 2 {
			return Error(ErrNA)
		}
		return Boolean(args[0].scalar.String() == args[1].scalar.String())
	case "PROPER":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		return Str(properCase(args[0].scalar.String()))
	case "VALUE":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		f, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		return Num(f)

	// --- Logic / information --------------------------------------------
	case "XOR":
		truths := 0
		var errVal Value
		var errv *Value
		for _, a := range args {
			// Sparse scan is sound for XOR: a blank is never truthy.
			a.eachValueSparse(res, func(v Value) bool {
				if v.IsError() {
					errVal = v
					errv = &errVal
					return false
				}
				f, ok := v.AsNumber()
				if v.Kind == KindBool && v.Bool || ok && v.Kind != KindBool && f != 0 {
					truths++
				}
				return true
			})
			if errv != nil {
				return *errv
			}
		}
		return Boolean(truths%2 == 1)
	case "ISTEXT":
		return Boolean(len(args) == 1 && !args[0].isRange && args[0].scalar.Kind == KindString)
	case "ISLOGICAL":
		return Boolean(len(args) == 1 && !args[0].isRange && args[0].scalar.Kind == KindBool)
	case "ISEVEN", "ISODD":
		if len(args) != 1 {
			return Error(ErrNA)
		}
		f, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
		even := int64(math.Trunc(f))%2 == 0
		return Boolean(even == (name == "ISEVEN"))
	case "NA":
		return Error(ErrNA)
	default:
		if v, handled := evalFinancial(name, args, res); handled {
			return v
		}
		return Error(ErrName)
	}
}

func evalFloorCeiling(name string, args []arg) Value {
	if len(args) < 1 || len(args) > 2 {
		return Error(ErrNA)
	}
	f, ok := args[0].scalar.AsNumber()
	if !ok {
		return Error(ErrValue)
	}
	step := 1.0
	if len(args) == 2 {
		step, ok = args[1].scalar.AsNumber()
		if !ok {
			return Error(ErrValue)
		}
	}
	if step == 0 {
		return Error(ErrDiv0)
	}
	q := f / step
	if name == "FLOOR" {
		return Num(math.Floor(q) * step)
	}
	return Num(math.Ceil(q) * step)
}

// numbers collects numeric values of arguments, recording the first error.
type numbers struct {
	vals []float64
	errv *Value
}

func (n numbers) err() (Value, bool) {
	if n.errv != nil {
		return *n.errv, true
	}
	return Value{}, false
}

func collectNumbers(args []arg, res Resolver) numbers {
	var out numbers
	out.errv = forNumbers(args, res, func(f float64) { out.vals = append(out.vals, f) })
	return out
}

// evalSumProduct multiplies corresponding cells of equal-shape ranges and
// sums the products.
func evalSumProduct(args []arg, res Resolver) Value {
	if len(args) == 0 {
		return Error(ErrNA)
	}
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
	if len(args) < 3 {
		return Error(ErrNA)
	}
	needle := args[0].scalar
	if !args[1].isRange {
		return Error(ErrValue)
	}
	table := args[1].rng
	rowF, ok := args[2].scalar.AsNumber()
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
	if len(args) < 2 || len(args) > 3 || !args[0].isRange {
		return Error(ErrNA)
	}
	rng := args[0].rng
	idx1, ok := args[1].scalar.AsNumber()
	if !ok {
		return Error(ErrValue)
	}
	rowIdx, colIdx := int(idx1), 1
	if len(args) == 3 {
		idx2, ok := args[2].scalar.AsNumber()
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
	if len(args) < 2 || len(args) > 3 || !args[1].isRange {
		return Error(ErrNA)
	}
	if len(args) == 3 {
		mt, ok := args[2].scalar.AsNumber()
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

func properCase(s string) string {
	var sb strings.Builder
	newWord := true
	for _, r := range s {
		isLetter := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
		switch {
		case !isLetter:
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
