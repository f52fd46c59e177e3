// Package stats provides the distribution summaries the paper's experiment
// tables and figures report: percentiles (Tables III-IV), CDF series
// (Figs. 10-12), and the logarithmic buckets of Fig. 1.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank interpolation. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum, 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum, 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// CDFPoint is one (value, cumulative fraction) sample.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDFAt evaluates the empirical CDF at selected percentile fractions,
// producing the compact series the harness prints for Figs. 10-12.
func CDFAt(xs []float64, fracs []float64) []CDFPoint {
	out := make([]CDFPoint, len(fracs))
	for i, f := range fracs {
		out[i] = CDFPoint{Value: Percentile(xs, f*100), Fraction: f}
	}
	return out
}

// Fig1Buckets are the paper's Fig. 1 bucket upper bounds: (0,100],
// (100,1000], (1000,10000], (10000,+inf).
var Fig1Buckets = []float64{100, 1000, 10000}

// Fig1BucketLabels labels the buckets for display.
var Fig1BucketLabels = []string{"(0,100]", "(100,1000]", "(1000,10000]", "(10000,+)"}

// Bucketize returns the fraction of samples in each Fig. 1 bucket.
func Bucketize(xs []float64) []float64 {
	counts := make([]float64, len(Fig1Buckets)+1)
	for _, x := range xs {
		placed := false
		for i, ub := range Fig1Buckets {
			if x <= ub {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(Fig1Buckets)]++
		}
	}
	if len(xs) > 0 {
		for i := range counts {
			counts[i] /= float64(len(xs))
		}
	}
	return counts
}

// Table is a minimal fixed-width table printer for the experiment harness.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case time.Duration:
			row[i] = FormatMillis(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// FormatFloat renders a float compactly (2 decimals, trimming zeros).
func FormatFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// FormatMillis renders a duration in milliseconds with 3 significant
// decimals, matching the paper's latency axes.
func FormatMillis(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000.0)
}

// FormatCount renders large counts with thousands separators (1234567 ->
// "1,234,567"), the style of the paper's tables.
func FormatCount(n int) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// FormatPercent renders a fraction as a percentage with two decimals.
func FormatPercent(f float64) string {
	return fmt.Sprintf("%.2f%%", f*100)
}
