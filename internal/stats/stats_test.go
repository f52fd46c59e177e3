package stats

import (
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{10}, 50); got != 10 {
		t.Errorf("single-element P50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty P50 = %v", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated P50 = %v", got)
	}
	// Input must not be mutated.
	xs2 := []float64{3, 1, 2}
	Percentile(xs2, 50)
	if xs2[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{2, 4, 9}
	if Mean(xs) != 5 || Min(xs) != 2 || Max(xs) != 9 {
		t.Errorf("mean/min/max = %v %v %v", Mean(xs), Min(xs), Max(xs))
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty aggregates should be 0")
	}
}

func TestCDFAt(t *testing.T) {
	at := CDFAt([]float64{1, 2, 3, 4}, []float64{0.5, 1.0})
	if at[1].Value != 4 {
		t.Fatalf("CDFAt = %v", at)
	}
}

func TestBucketize(t *testing.T) {
	fr := Bucketize([]float64{50, 500, 5000, 50000})
	for i, want := range []float64{0.25, 0.25, 0.25, 0.25} {
		if fr[i] != want {
			t.Fatalf("bucket %d = %v", i, fr[i])
		}
	}
	if len(Fig1BucketLabels) != len(fr) {
		t.Fatal("label count mismatch")
	}
	empty := Bucketize(nil)
	for _, v := range empty {
		if v != 0 {
			t.Fatal("empty bucketize should be zeros")
		}
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 250*time.Millisecond)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.14") {
		t.Fatalf("table output:\n%s", out)
	}
	if !strings.Contains(out, "250.000ms") {
		t.Fatalf("duration formatting:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestFormatting(t *testing.T) {
	if FormatCount(1234567) != "1,234,567" {
		t.Errorf("FormatCount = %s", FormatCount(1234567))
	}
	if FormatCount(42) != "42" {
		t.Errorf("FormatCount = %s", FormatCount(42))
	}
	if FormatCount(-1234) != "-1,234" {
		t.Errorf("FormatCount = %s", FormatCount(-1234))
	}
	if FormatPercent(0.0342) != "3.42%" {
		t.Errorf("FormatPercent = %s", FormatPercent(0.0342))
	}
	if FormatFloat(2.50) != "2.5" || FormatFloat(3.0) != "3" {
		t.Errorf("FormatFloat = %s %s", FormatFloat(2.5), FormatFloat(3))
	}
	if FormatMillis(1500*time.Microsecond) != "1.500ms" {
		t.Errorf("FormatMillis = %s", FormatMillis(1500*time.Microsecond))
	}
}
