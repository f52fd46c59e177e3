package engine

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/telemetry"
)

// TestFillSharesOneShape: a filled-down column is stored once. Every C record
// of the ledger holds one *Shape whether the ledger is loaded from text,
// restored from a snapshot or written row by row; a wholesale drop of the
// shape cache halfway through a row-by-row install changes no value and no
// formula text; and a stream of unique formulas keeps the cache within its
// byte budget.
func TestFillSharesOneShape(t *testing.T) {
	const rows = 2000
	text := ledgerText(rows)
	formula.ResetShapeCache()
	loaded, err := LoadBulk(ledgerSheet(rows))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loaded.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	install := func(dropAt int) *Engine {
		e := New(nil)
		for i, c := range text {
			if i == dropAt {
				formula.ResetShapeCache()
			}
			if c.src == "" {
				e.SetValue(c.at, formula.Num(c.value))
			} else if _, err := e.SetFormula(c.at, c.src); err != nil {
				t.Fatal(err)
			}
		}
		e.RecalculateAll()
		return e
	}
	byRow := install(-1)
	for name, e := range map[string]*Engine{"LoadBulk": loaded, "RestoreSnapshot": restored, "SetFormula": byRow} {
		col := e.store.cols[3]
		if len(col.meta) != rows {
			t.Fatalf("%s: column C holds %d records, want %d", name, len(col.meta), rows)
		}
		for i := range col.meta {
			if s := col.meta[i].shape; s == nil || s != col.meta[0].shape {
				t.Fatalf("%s: C%d holds another shape than C1", name, col.rows[i])
			}
		}
	}
	dropped := install(len(text) / 2)
	if c := dropped.store.cols[3].meta; c[0].shape == c[rows-1].shape {
		t.Fatal("the rows installed after the drop hold the shape interned before it")
	}
	for _, e := range []*Engine{restored, byRow, dropped} {
		if e.NumCells() != len(text) {
			t.Fatalf("%d cells, want %d", e.NumCells(), len(text))
		}
	}
	for _, c := range text {
		want := loaded.Value(c.at)
		for _, e := range []*Engine{restored, byRow, dropped} {
			if got := e.Value(c.at); got.Kind != want.Kind || math.Float64bits(got.Num) != math.Float64bits(want.Num) || got.Err != want.Err {
				t.Fatalf("%v: %v, loaded %v", c.at, got, want)
			}
			if got := e.Formula(c.at); got != c.src {
				t.Fatalf("%v: formula %q, written %q", c.at, got, c.src)
			}
		}
	}

	cacheBytes := func() float64 {
		var page bytes.Buffer
		if err := telemetry.Default.WriteText(&page); err != nil {
			t.Fatal(err)
		}
		s, err := telemetry.ParseText(&page)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := s.Value("taco_parse_cache_bytes", nil)
		return v
	}
	const budget = 32 << 20 // formula.internBudget
	e, at, pad := New(nil), ref.MustCell("A1"), strings.Repeat("x", 1024)
	for i := 0; i < 2*budget/len(pad); i++ {
		if _, err := e.SetFormula(at, fmt.Sprintf(`LEN("%s")+%d`, pad, i)); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			if b := cacheBytes(); b > budget {
				t.Fatalf("after %d unique formulas the shape cache holds %.0f bytes, budget %d", i+1, b, budget)
			}
		}
	}
	if b := cacheBytes(); b > budget {
		t.Fatalf("the shape cache holds %.0f bytes, budget %d", b, budget)
	}
}
