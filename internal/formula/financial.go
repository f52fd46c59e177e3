package formula

import (
	"math"
)

// Financial functions — the paper's introduction motivates TACO with
// "complex financial ... data analysis" spreadsheets; NPV, PMT, FV, PV and
// IRR are the functions such models lean on (builtins). All follow the
// spreadsheet sign convention: money paid out is negative.

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
