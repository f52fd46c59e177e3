package formula

import (
	"math"
)

// Financial functions — the paper's introduction motivates TACO with
// "complex financial ... data analysis" spreadsheets; these are the
// functions such models lean on. All follow the spreadsheet sign
// convention: money paid out is negative.

// evalFinancial dispatches the financial function set; called from
// evalCallExt's default branch before giving up with #NAME?.
func evalFinancial(name string, args []arg, res Resolver) (Value, bool) {
	switch name {
	case "NPV":
		if len(args) < 2 {
			return Error(ErrNA), true
		}
		rate, ok := args[0].scalar.AsNumber()
		if !ok {
			return Error(ErrValue), true
		}
		if rate <= -1 {
			return Error(ErrNum), true
		}
		total := 0.0
		period := 1
		var errVal Value
		var errv *Value
		for _, a := range args[1:] {
			a.eachValueSparse(res, func(v Value) bool {
				if v.IsError() {
					errVal = v
					errv = &errVal
					return false
				}
				if v.Kind == KindNumber {
					total += v.Num / math.Pow(1+rate, float64(period))
					period++
				}
				return true
			})
			if errv != nil {
				return *errv, true
			}
		}
		return Num(total), true
	case "PMT":
		// PMT(rate, nper, pv[, fv[, type]])
		vals, errv := numericArgs(args, 3, 5)
		if errv != nil {
			return *errv, true
		}
		rate, nper, pv := vals[0], vals[1], vals[2]
		fv, due := optArg(vals, 3), optArg(vals, 4) != 0
		if nper == 0 {
			return Error(ErrNum), true
		}
		if rate == 0 {
			return Num(-(pv + fv) / nper), true
		}
		f := math.Pow(1+rate, nper)
		pmt := -(pv*f + fv) * rate / (f - 1)
		if due {
			pmt /= 1 + rate
		}
		return Num(pmt), true
	case "FV":
		// FV(rate, nper, pmt[, pv[, type]])
		vals, errv := numericArgs(args, 3, 5)
		if errv != nil {
			return *errv, true
		}
		rate, nper, pmt := vals[0], vals[1], vals[2]
		pv, due := optArg(vals, 3), optArg(vals, 4) != 0
		if rate == 0 {
			return Num(-(pv + pmt*nper)), true
		}
		f := math.Pow(1+rate, nper)
		adj := 1.0
		if due {
			adj = 1 + rate
		}
		return Num(-(pv*f + pmt*adj*(f-1)/rate)), true
	case "PV":
		// PV(rate, nper, pmt[, fv[, type]])
		vals, errv := numericArgs(args, 3, 5)
		if errv != nil {
			return *errv, true
		}
		rate, nper, pmt := vals[0], vals[1], vals[2]
		fv, due := optArg(vals, 3), optArg(vals, 4) != 0
		if rate == 0 {
			return Num(-(fv + pmt*nper)), true
		}
		f := math.Pow(1+rate, nper)
		adj := 1.0
		if due {
			adj = 1 + rate
		}
		return Num(-(fv + pmt*adj*(f-1)/rate) / f), true
	case "IRR":
		// IRR(values[, guess]) — Newton iteration on the NPV polynomial.
		if len(args) < 1 || !args[0].isRange {
			return Error(ErrNA), true
		}
		var flows []float64
		var errVal Value
		var errv *Value
		args[0].eachValueSparse(res, func(v Value) bool {
			if v.IsError() {
				errVal = v
				errv = &errVal
				return false
			}
			if v.Kind == KindNumber {
				flows = append(flows, v.Num)
			}
			return true
		})
		if errv != nil {
			return *errv, true
		}
		guess := 0.1
		if len(args) >= 2 {
			if g, ok := args[1].scalar.AsNumber(); ok {
				guess = g
			}
		}
		rate, ok := irr(flows, guess)
		if !ok {
			return Error(ErrNum), true
		}
		return Num(rate), true
	default:
		return Value{}, false
	}
}

// numericArgs coerces between min and max scalar arguments to numbers.
func numericArgs(args []arg, min, max int) ([]float64, *Value) {
	if len(args) < min || len(args) > max {
		e := Error(ErrNA)
		return nil, &e
	}
	out := make([]float64, len(args))
	for i, a := range args {
		if a.isRange {
			e := Error(ErrValue)
			return nil, &e
		}
		f, ok := a.scalar.AsNumber()
		if !ok {
			e := Error(ErrValue)
			return nil, &e
		}
		out[i] = f
	}
	return out, nil
}

func optArg(vals []float64, i int) float64 {
	if i < len(vals) {
		return vals[i]
	}
	return 0
}

// irr solves NPV(rate)=0 by Newton's method with bisection fallback.
func irr(flows []float64, guess float64) (float64, bool) {
	if len(flows) < 2 {
		return 0, false
	}
	pos, neg := false, false
	for _, f := range flows {
		if f > 0 {
			pos = true
		}
		if f < 0 {
			neg = true
		}
	}
	if !pos || !neg {
		return 0, false
	}
	npv := func(r float64) float64 {
		total := 0.0
		for i, f := range flows {
			total += f / math.Pow(1+r, float64(i))
		}
		return total
	}
	r := guess
	for iter := 0; iter < 64; iter++ {
		v := npv(r)
		if math.Abs(v) < 1e-9 {
			return r, true
		}
		// Numeric derivative.
		h := 1e-6
		d := (npv(r+h) - v) / h
		if d == 0 || math.IsNaN(d) {
			break
		}
		next := r - v/d
		if next <= -1 {
			next = (r - 1) / 2 // keep the rate above -100%
		}
		if math.Abs(next-r) < 1e-12 {
			return next, true
		}
		r = next
	}
	// Bisection fallback over a broad bracket.
	lo, hi := -0.9999, 10.0
	vlo := npv(lo)
	if vlo*npv(hi) > 0 {
		return 0, false
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		v := npv(mid)
		if math.Abs(v) < 1e-9 {
			return mid, true
		}
		if v*vlo < 0 {
			hi = mid
		} else {
			lo = mid
			vlo = v
		}
	}
	return (lo + hi) / 2, true
}
