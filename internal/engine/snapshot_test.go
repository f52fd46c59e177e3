package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/workload"
)

func TestEngineSnapshotRoundTrip(t *testing.T) {
	for _, name := range workload.ScenarioNames {
		t.Run(name, func(t *testing.T) {
			sheet, err := workload.BuildScenario(name, 60, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			e, err := Load(sheet, nil)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := RestoreSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if r.NumCells() != e.NumCells() {
				t.Fatalf("cells = %d, want %d", r.NumCells(), e.NumCells())
			}
			for at := range sheet.Cells {
				a, b := e.Value(at), r.Value(at)
				if a.String() != b.String() {
					t.Fatalf("cell %v: %v vs restored %v", at, a, b)
				}
				if r.Formula(at) != e.Formula(at) {
					t.Fatalf("cell %v: formula %q vs restored %q", at, e.Formula(at), r.Formula(at))
				}
			}
			// Dependency queries survive the round trip.
			seed := ref.MustRange("A1")
			if got, want := countCells(r.Dependents(seed)), countCells(e.Dependents(seed)); got != want {
				t.Fatalf("dependents = %d cells, want %d", got, want)
			}
			// The restored engine stays live: edits propagate. (Planning is
			// row-major: the data row is 2, not column B.)
			edit := ref.MustCell("B1")
			if name == "planning" {
				edit = ref.MustCell("A2")
			}
			dirty := r.SetValue(edit, formula.Num(9999))
			if len(dirty) == 0 {
				t.Fatal("edit on restored engine produced no dirty set")
			}
			r.RecalculateAll()
		})
	}
}

func TestEngineSnapshotDeterministic(t *testing.T) {
	sheet := workload.FinancialModel(30, rand.New(rand.NewSource(3)))
	e, err := Load(sheet, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := e.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots of the same engine differ")
	}
}

func TestSnapshotOversizedComputedValue(t *testing.T) {
	// A computed string can exceed MaxSnapshotString even when every source
	// string is within it (concatenation compounds). The snapshot must still
	// round-trip: the cached value is dropped and recomputed on read.
	e := New(nil)
	big := strings.Repeat("x", MaxSnapshotString/2+1)
	e.SetValue(ref.MustCell("A1"), formula.Str(big))
	if _, err := e.SetFormula(ref.MustCell("B1"), "A1&A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("C1"), "LEN(A1)"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatalf("snapshot failed on oversized computed value: %v", err)
	}
	r, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The oversized cached value comes back dirty (pending) and is
	// recomputed by the next recalculation, not by the (side-effect-free)
	// read itself.
	if !r.Dirty(ref.MustCell("B1")) || r.Pending() != 1 {
		t.Fatalf("B1 dirty=%v pending=%d, want dirty", r.Dirty(ref.MustCell("B1")), r.Pending())
	}
	r.RecalculateAll()
	if got := r.Value(ref.MustCell("B1")); len(got.Str) != len(big)*2 {
		t.Fatalf("B1 recomputed to %d bytes, want %d", len(got.Str), len(big)*2)
	}
	if got, want := r.Value(ref.MustCell("C1")), e.Value(ref.MustCell("C1")); got.Num != want.Num {
		t.Fatalf("C1 = %v, want %v", got, want)
	}
	if r.NumFormulas() != 2 {
		t.Fatalf("formulas = %d", r.NumFormulas())
	}
}

func TestRestoreSnapshotRejectsCorruptInput(t *testing.T) {
	sheet := workload.FinancialModel(10, rand.New(rand.NewSource(1)))
	e, err := Load(sheet, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Magic followed by a huge cell count: must error, not allocate.
	hugeCount := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	// Valid header, then a formula-cell record claiming a ~2^62-byte source
	// string: must hit the length cap, not make([]byte, 2^62).
	hugeString := []byte{
		1,    // 1 cell
		1, 1, // A1
		1, // formula cell
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f,
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOTTACO"),
		"truncated":   good[:len(good)/2],
		"huge count":  append([]byte("TACOE2"), hugeCount...),
		"huge string": append([]byte("TACOE2"), hugeString...),
		// The pre-checksum TACOE1 format is no longer readable: its header is
		// a bad magic whatever follows.
		"legacy magic, huge count":  append([]byte("TACOE1"), hugeCount...),
		"legacy magic, huge string": append([]byte("TACOE1"), hugeString...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := RestoreSnapshot(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
		})
	}
}

func TestLoadBulkMatchesLoad(t *testing.T) {
	sheet := workload.InventoryTracker(120, rand.New(rand.NewSource(5)))
	inc, err := Load(sheet, nil)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := LoadBulk(sheet)
	if err != nil {
		t.Fatal(err)
	}
	for at := range sheet.Cells {
		a, b := inc.Value(at), bulk.Value(at)
		if a.String() != b.String() {
			t.Fatalf("cell %v: incremental %v vs bulk %v", at, a, b)
		}
	}
	seed := ref.MustRange("B1")
	if got, want := countCells(bulk.Dependents(seed)), countCells(inc.Dependents(seed)); got != want {
		t.Fatalf("dependents = %d cells, want %d", got, want)
	}
}

func countCells(rs []ref.Range) int {
	n := 0
	for _, r := range rs {
		n += r.Size()
	}
	return n
}

// TestScanSnapshotCellsInRange checks the range-filtered snapshot scan
// against the full scan: identical in-range records in identical order, an
// exact snapshot-wide pending count, and nothing delivered from outside the
// rectangle — on a snapshot that also carries a dirty (kind 2) record both
// inside and outside the range.
func TestScanSnapshotCellsInRange(t *testing.T) {
	e := New(nil)
	big := strings.Repeat("y", MaxSnapshotString/2+1)
	for col := 1; col <= 8; col++ {
		for row := 1; row <= 20; row++ {
			e.SetValue(ref.Ref{Col: col, Row: row}, formula.Num(float64(col*100+row)))
		}
	}
	e.SetValue(ref.MustCell("A21"), formula.Str(big))
	// Oversized computed values snapshot as kind 2 (dirty): one inside the
	// queried range, one outside it.
	if _, err := e.SetFormula(ref.MustCell("C5"), "A21&A21"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("H20"), "A21&A21"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("D4"), "SUM(B1:B10)"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	rng := ref.MustRange("B2:D6")
	var full []SnapshotCell
	if err := ScanSnapshotCells(bytes.NewReader(raw), func(sc SnapshotCell) bool {
		if rng.Contains(sc.At) {
			full = append(full, sc)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var filtered []SnapshotCell
	pending, err := ScanSnapshotCellsInRange(bytes.NewReader(raw), rng, func(sc SnapshotCell) bool {
		if !rng.Contains(sc.At) {
			t.Fatalf("out-of-range cell %v delivered", sc.At)
		}
		filtered = append(filtered, sc)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if pending != 2 {
		t.Fatalf("pending = %d, want 2 (one in range, one out)", pending)
	}
	if len(filtered) != len(full) {
		t.Fatalf("filtered %d cells, full scan saw %d in range", len(filtered), len(full))
	}
	for i := range full {
		if filtered[i].At != full[i].At || filtered[i].Src != full[i].Src ||
			filtered[i].Value != full[i].Value || filtered[i].Dirty != full[i].Dirty {
			t.Fatalf("record %d diverges: %+v vs %+v", i, filtered[i], full[i])
		}
	}
	// Early stop leaves the reader consistent and returns without error.
	n := 0
	if _, err := ScanSnapshotCellsInRange(bytes.NewReader(raw), rng, func(SnapshotCell) bool {
		n++
		return false
	}); err != nil || n != 1 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

// TestRecycleReusesColumnSlabs pins the spill/restore pooling: a restore
// after a Recycle rebuilds its columnar store from pooled slabs, and the
// recycled store retains nothing that could leak into the next tenant.
func TestRecycleReusesColumnSlabs(t *testing.T) {
	sheet := workload.FinancialModel(40, rand.New(rand.NewSource(9)))
	e, err := Load(sheet, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want := map[ref.Ref]string{}
	for at := range sheet.Cells {
		want[at] = e.Value(at).String()
	}
	raw := buf.Bytes()
	// Churn the round trip: every iteration recycles the previous engine's
	// slabs and the next restore draws on the pools. Values must stay exact
	// across reuse — stale pooled state would surface here.
	prev := e
	for i := 0; i < 5; i++ {
		prev.Recycle()
		r, err := RestoreSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for at, w := range want {
			if got := r.Value(at).String(); got != w {
				t.Fatalf("round %d: cell %v = %q, want %q", i, at, got, w)
			}
		}
		if got, wantN := r.NumCells(), len(want); got != wantN {
			t.Fatalf("round %d: %d cells, want %d", i, got, wantN)
		}
		prev = r
	}
}

// TestSnapshotChecksum pins the TACOE2 integrity trailer: a fresh snapshot
// verifies, any single flipped bit fails with ErrSnapshotChecksum, and a
// legacy TACOE1 header is ErrBadEngineSnapshot.
func TestSnapshotChecksum(t *testing.T) {
	sheet := workload.FinancialModel(20, rand.New(rand.NewSource(11)))
	e, err := Load(sheet, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if !bytes.HasPrefix(good, []byte("TACOE2")) {
		t.Fatalf("snapshot magic = %q, want TACOE2", good[:6])
	}
	if err := CheckSnapshotIntegrity(good); err != nil {
		t.Fatalf("fresh snapshot fails integrity check: %v", err)
	}
	for _, off := range []int{7, len(good) / 2, len(good) - 5} {
		flipped := bytes.Clone(good)
		flipped[off] ^= 0x10
		if err := CheckSnapshotIntegrity(flipped); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrSnapshotChecksum", off, err)
		}
	}
	if err := CheckSnapshotIntegrity(good[:4]); !errors.Is(err, ErrBadEngineSnapshot) {
		t.Fatalf("short header: err = %v, want ErrBadEngineSnapshot", err)
	}

	// The pre-checksum TACOE1 format (same stream, old magic, no trailer) is
	// rejected by both the integrity check and the decoder.
	legacy := append([]byte("TACOE1"), good[6:len(good)-4]...)
	if err := CheckSnapshotIntegrity(legacy); !errors.Is(err, ErrBadEngineSnapshot) {
		t.Fatalf("legacy snapshot integrity check: err = %v, want ErrBadEngineSnapshot", err)
	}
	if _, err := RestoreSnapshot(bytes.NewReader(legacy)); !errors.Is(err, ErrBadEngineSnapshot) {
		t.Fatalf("legacy snapshot restore: err = %v, want ErrBadEngineSnapshot", err)
	}
}

// TestRestoredEngineVectorizedDrain pins two restore-path regressions: a
// restored engine must keep the vectorized pattern-run drain enabled (the
// toggle defaults on and must survive the snapshot round trip), and its
// per-column formula counts must be rebuilt so post-restore edits — which
// maintain those counts — work at all.
func TestRestoredEngineVectorizedDrain(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("F1"), formula.Num(2))
	for r := 1; r <= 64; r++ {
		e.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
		if _, err := e.SetFormula(ref.Ref{Col: 2, Row: r}, fmt.Sprintf("A%d*$F$1", r)); err != nil {
			t.Fatal(err)
		}
	}
	e.RecalculateAll()

	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Formula-count index is live: an edit that maintains it must not blow
	// up, and a formula overwrite keeps invalidation exact.
	if _, err := r.SetFormula(ref.MustCell("B1"), "A1*$F$1+1"); err != nil {
		t.Fatal(err)
	}
	runs0 := mPatternRuns.Value()
	r.SetValue(ref.MustCell("F1"), formula.Num(3))
	r.RecalculateAll()
	if mPatternRuns.Value() == runs0 {
		t.Fatal("restored engine drained without pattern runs: toggle lost in restore")
	}
	if v := r.Value(ref.MustCell("B1")); v.Num != 1*3+1 {
		t.Fatalf("B1 = %v, want 4", v)
	}
	if v := r.Value(ref.MustCell("B64")); v.Num != 64*3 {
		t.Fatalf("B64 = %v, want 192", v)
	}
}
