package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/workload"
)

// textCell is one cell of a sheet as text: a formula's source, or a value.
type textCell struct {
	at    ref.Ref
	src   string // "" for a value
	value float64
}

// ledgerText is the benchmark's ledger sheet (bench/gen.go: A, B data;
// C = A*B*$H$1; D a running sum of C restarted every 256 rows; E a 7-row
// sliding SUM of C; F one SUM per 1000 rows of C; G1 = SUM(F); H1 the rate),
// row by row with the columns interleaved.
func ledgerText(rows int) (cells []textCell) {
	rng := rand.New(rand.NewSource(1))
	value := func(col, row int, v float64) {
		cells = append(cells, textCell{at: ref.Ref{Col: col, Row: row}, value: v})
	}
	form := func(col, row int, src string) {
		cells = append(cells, textCell{at: ref.Ref{Col: col, Row: row}, src: src})
	}
	for r := 1; r <= rows; r++ {
		value(1, r, float64(rng.Intn(1000))+0.5)
		value(2, r, float64(rng.Intn(100))+0.25)
		form(3, r, fmt.Sprintf("A%d*B%d*$H$1", r, r))
		if (r-1)%256 == 0 {
			form(4, r, fmt.Sprintf("C%d", r))
		} else {
			form(4, r, fmt.Sprintf("D%d+C%d", r-1, r))
		}
		if r >= 7 {
			form(5, r, fmt.Sprintf("SUM(C%d:C%d)", r-6, r))
		}
	}
	blocks := 0
	for b := 1; b <= rows; b += 1000 {
		blocks++
		form(6, blocks, fmt.Sprintf("SUM(C%d:C%d)", b, min(b+999, rows)))
	}
	form(7, 1, fmt.Sprintf("SUM(F1:F%d)", blocks))
	value(8, 1, 1.05)
	return cells
}

// ledgerCells is the ledger parsed, in ledgerText's order.
func ledgerCells(rows int) (cells []ParsedCell) {
	for _, c := range ledgerText(rows) {
		if c.src == "" {
			cells = append(cells, ParsedCell{At: c.at, Value: formula.Num(c.value)})
		} else {
			cells = append(cells, ParsedCell{At: c.at, Shape: formula.MustParseShape(c.src, c.at)})
		}
	}
	return cells
}

// ledgerSheet is the ledger as the workloads hold it, for LoadBulk.
func ledgerSheet(rows int) *workload.Sheet {
	s := workload.NewSheet("ledger")
	for _, c := range ledgerText(rows) {
		if c.src == "" {
			s.SetValue(c.at, c.value)
		} else {
			s.SetFormula(c.at, c.src)
		}
	}
	return s
}

// ledgerEngine bulk-loads the ledger, so the two edits that dominate
// engine_recalc and serve_big_drain have a fast inner loop next to the code
// they exercise.
func ledgerEngine(tb testing.TB, rows int) *Engine {
	tb.Helper()
	return LoadBulkParsed(ledgerCells(rows))
}

const ledgerBenchRows = 20_000

// ledgerEdit applies one edit, drains it and returns the cells recalculated.
func ledgerEdit(b *testing.B, e *Engine, at ref.Ref, v float64) int {
	e.SetValue(at, formula.Num(v))
	n := e.RecalculateAll()
	if e.Pending() != 0 {
		b.Fatalf("%d cells pending after the drain", e.Pending())
	}
	return n
}

// BenchmarkLedgerRateEdit times the edit of $H$1 — 3 dirty cells per row —
// with an untimed point edit between every two, as engine_recalc's op list
// has them. ns/cell is the edit's time over the cells it recalculates (C, D,
// E, F and G1).
func BenchmarkLedgerRateEdit(b *testing.B) {
	e := ledgerEngine(b, ledgerBenchRows)
	rng := rand.New(rand.NewSource(2))
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ledgerEdit(b, e, ref.Ref{Col: 1, Row: 1 + rng.Intn(ledgerBenchRows)}, float64(rng.Intn(1000)))
		b.StartTimer()
		cells += ledgerEdit(b, e, ref.MustCell("H1"), 1+float64(1+rng.Intn(999))/10000)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
}

// BenchmarkLedgerPointEdit times the edit of one A cell — about 270 dirty
// cells — with an untimed rate edit every 16, and one before the first, as
// engine_recalc's set-up has: the first levelled drain over a column builds
// its run table, which every later one reuses.
func BenchmarkLedgerPointEdit(b *testing.B) {
	e := ledgerEngine(b, ledgerBenchRows)
	rng := rand.New(rand.NewSource(2))
	ledgerEdit(b, e, ref.MustCell("H1"), 1.0001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 15 {
			b.StopTimer()
			ledgerEdit(b, e, ref.MustCell("H1"), 1+float64(1+rng.Intn(999))/10000)
			b.StartTimer()
		}
		ledgerEdit(b, e, ref.Ref{Col: 1, Row: 1 + rng.Intn(ledgerBenchRows)}, float64(rng.Intn(1000)))
	}
}

// BenchmarkLedgerRewrite times engine_recalc's formula op: one C cell rewritten
// to B[r]*2 and back, drained after each write — the graph's Clear and Add, the
// run table's repair (the stretch splits, then joins again) and the drain of
// the cells each write dirties. ns/op is the pair.
func BenchmarkLedgerRewrite(b *testing.B) {
	e := ledgerEngine(b, ledgerBenchRows)
	rng := rand.New(rand.NewSource(2))
	ledgerEdit(b, e, ref.MustCell("H1"), 1.0001) // the run tables, as engine_recalc's set-up leaves them
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := 1 + rng.Intn(ledgerBenchRows)
		at := ref.Ref{Col: 3, Row: r}
		for _, src := range []string{fmt.Sprintf("B%d*2", r), fmt.Sprintf("A%d*B%d*$H$1", r, r)} {
			if _, err := e.SetFormula(at, src); err != nil {
				b.Fatal(err)
			}
			if e.RecalculateAll(); e.Pending() != 0 {
				b.Fatalf("%d cells pending after the drain", e.Pending())
			}
		}
	}
}

// BenchmarkRowByRowInstall times the 2 000-row ledger installed one write at
// a time, row by row — SetValue and SetFormula, every column's slab growing by
// append as the rows arrive, where the bulk load sizes each once — and the
// drain that settles it. ns/cell is over the cells installed.
func BenchmarkRowByRowInstall(b *testing.B) {
	cells := ledgerText(2000)
	for i := 0; i < b.N; i++ {
		e := New(nil)
		for _, c := range cells {
			if c.src == "" {
				e.SetValue(c.at, formula.Num(c.value))
			} else if _, err := e.SetFormula(c.at, c.src); err != nil {
				b.Fatal(err)
			}
		}
		if e.RecalculateAll(); e.Pending() != 0 || e.NumCells() != len(cells) {
			b.Fatalf("%d cells installed, %d pending; want %d, 0", e.NumCells(), e.Pending(), len(cells))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)), "ns/cell")
}

// BenchmarkMidColumnInsert times filling the gaps of a 20 000-row column that
// holds every other row, top to bottom: each write inserts mid-slab and moves
// every record below it, 48 bytes apiece — the worst case for a slab of
// records against one of pointers to them. ns/insert is over the 10 000 gaps.
func BenchmarkMidColumnInsert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(nil)
		for r := 1; r <= ledgerBenchRows; r += 2 {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		}
		b.StartTimer()
		for r := 2; r <= ledgerBenchRows; r += 2 {
			e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		}
		if e.NumCells() != ledgerBenchRows {
			b.Fatalf("%d cells, want %d", e.NumCells(), ledgerBenchRows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ledgerBenchRows/2), "ns/insert")
}

// BenchmarkLedgerHeap measures what a loaded, settled 20 000-row ledger
// holds, per cell: slab-B/cell is the column slabs' records (capacity times
// the record's size), heap-B/cell the live heap the engine adds, read as
// HeapAlloc after two GCs against the same reading before the load. The
// ledger is loaded from its text through LoadBulk, as the workloads load it,
// into an emptied shape cache, so what the process-wide cache keeps counts.
func BenchmarkLedgerHeap(b *testing.B) {
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	sheet := ledgerSheet(ledgerBenchRows)
	var slab, live float64
	for i := 0; i < b.N; i++ {
		formula.ResetShapeCache()
		before := heap()
		e, err := LoadBulk(sheet)
		if err != nil {
			b.Fatal(err)
		}
		e.RecalculateAll()
		live = (float64(heap()) - float64(before)) / float64(e.NumCells())
		slab = 0
		for _, col := range e.store.cols {
			slab += float64(uintptr(cap(col.cells)) * unsafe.Sizeof(cell{}))
		}
		slab /= float64(e.NumCells())
		runtime.KeepAlive(e)
	}
	runtime.KeepAlive(sheet)
	b.ReportMetric(slab, "slab-B/cell")
	b.ReportMetric(live, "heap-B/cell")
}

// runningTotalCells is a filled-down running total over a data column,
// B[r] = SUM(A$1:A[r]) — the paper's FR shape: every row's window holds the
// row above's.
func runningTotalCells(rows int) (cells []ParsedCell) {
	for r := 1; r <= rows; r++ {
		src := fmt.Sprintf("SUM(A$1:A%d)", r)
		cells = append(cells,
			ParsedCell{At: ref.Ref{Col: 1, Row: r}, Value: formula.Num(float64(r%97) + 0.5)},
			ParsedCell{At: ref.Ref{Col: 2, Row: r}, Shape: formula.MustParseShape(src, ref.Ref{Col: 2, Row: r})})
	}
	return cells
}

// BenchmarkRunningTotalEdit times the edit of A1 under the 20 000-row running
// total: the sweep extends one accumulator down the column where per-cell
// evaluation folds rows²/2 cells.
func BenchmarkRunningTotalEdit(b *testing.B) {
	e := LoadBulkParsed(runningTotalCells(ledgerBenchRows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := ledgerEdit(b, e, ref.MustCell("A1"), float64(i)); n != ledgerBenchRows {
			b.Fatalf("the edit recalculated %d cells, want %d", n, ledgerBenchRows)
		}
	}
}

// BenchmarkLedgerLoad times LoadBulkParsed of the 20 000-row ledger's parsed
// cells — the graph, the slabs and the first full drain, what a fresh session
// pays. ns/cell is over the cells loaded.
func BenchmarkLedgerLoad(b *testing.B) { benchmarkLoad(b, ledgerCells(ledgerBenchRows)) }

// BenchmarkRunningTotalLoad is BenchmarkLedgerLoad for the 20 000-row running
// total, whose first drain folds rows²/2 cells unless it sweeps.
func BenchmarkRunningTotalLoad(b *testing.B) { benchmarkLoad(b, runningTotalCells(ledgerBenchRows)) }

func benchmarkLoad(b *testing.B, cells []ParsedCell) {
	for i := 0; i < b.N; i++ {
		if e := LoadBulkParsed(cells); e.Pending() != 0 {
			b.Fatalf("%d cells pending after the load", e.Pending())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)), "ns/cell")
}

// BenchmarkSweepShape times one span shape at a time: a 20 000-row column of
// one formula hanging off $H$1, the edit of H1 and its drain, in ns per cell
// recalculated — so a change to the sweep shows which shape it moved. All but
// running_balance, which reads its own column and stays on the row loop, run
// on gathered lanes; the 1 000-row sliding SUM is the widest window here (a
// chunk of it still fits under the gather's cap), and the gapped operand takes
// the gather's probe arm.
func BenchmarkSweepShape(b *testing.B) {
	for _, shape := range []struct {
		name string
		src  func(r int) string
		gap  int // every gap-th row of A is left empty
	}{
		{"mul_fixed", func(r int) string { return fmt.Sprintf("A%d*B%d*$H$1", r, r) }, 0},
		{"div", func(r int) string { return fmt.Sprintf("A%d/B%d-$H$1", r, r) }, 0},
		{"running_balance", func(r int) string {
			if r == 1 {
				return "A1*$H$1"
			}
			return fmt.Sprintf("C%d+A%d*$H$1", r-1, r)
		}, 0},
		{"sliding_sum7", func(r int) string { return fmt.Sprintf("SUM(A%d:A%d)*$H$1", max(1, r-6), r) }, 0},
		{"sliding_min7", func(r int) string { return fmt.Sprintf("MIN(A%d:A%d)*$H$1", max(1, r-6), r) }, 0},
		{"running_total", func(r int) string { return fmt.Sprintf("SUM(A$1:A%d)*$H$1", r) }, 0},
		{"block_sum1000", func(r int) string { return fmt.Sprintf("SUM(A%d:A%d)*$H$1", r, r+999) }, 0},
		{"gapped_operand", func(r int) string { return fmt.Sprintf("A%d*B%d*$H$1", r, r) }, 5},
	} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cells := []ParsedCell{{At: ref.MustCell("H1"), Value: formula.Num(1.05)}}
			for r := 1; r <= ledgerBenchRows; r++ {
				if shape.gap == 0 || r%shape.gap != 0 {
					cells = append(cells, ParsedCell{At: ref.Ref{Col: 1, Row: r}, Value: formula.Num(float64(rng.Intn(1000)) + 0.5)})
				}
				src := shape.src(r)
				cells = append(cells,
					ParsedCell{At: ref.Ref{Col: 2, Row: r}, Value: formula.Num(float64(rng.Intn(100)) + 0.25)},
					ParsedCell{At: ref.Ref{Col: 3, Row: r}, Shape: formula.MustParseShape(src, ref.Ref{Col: 3, Row: r})})
			}
			e := LoadBulkParsed(cells)
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n += ledgerEdit(b, e, ref.MustCell("H1"), 1+float64(1+rng.Intn(999))/10000)
			}
			if n != b.N*ledgerBenchRows {
				b.Fatalf("%d cells recalculated over %d edits, want %d an edit", n, b.N, ledgerBenchRows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/cell")
		})
	}
}
