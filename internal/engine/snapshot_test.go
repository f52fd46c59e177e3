package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"taco/internal/core"
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

	// Well-formed files (magic, count, decodable records, graph, matching
	// CRC) whose records are not strictly ascending in column-major order.
	// A repeated ref would count a formula twice and leave a pending count
	// no drain can bring to zero, wedging Store.Wait; the decoder must
	// refuse all three.
	one := formula.Num(1)
	unordered := map[string][]byte{
		"duplicate ref":     craftSnapshot(t, snapRec{"A1", 2, "1+1", one}, snapRec{"A1", 1, "1+1", one}),
		"descending row":    craftSnapshot(t, snapRec{"A2", 0, "", one}, snapRec{"A1", 0, "", one}),
		"descending column": craftSnapshot(t, snapRec{"B1", 0, "", one}, snapRec{"A5", 1, "1+1", one}),
	}
	for name, data := range unordered {
		t.Run(name, func(t *testing.T) {
			if err := CheckSnapshotIntegrity(data); err != nil {
				t.Fatalf("crafted file is not well-formed: %v", err)
			}
			if _, err := RestoreSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadEngineSnapshot) {
				t.Errorf("RestoreSnapshot: err = %v, want ErrBadEngineSnapshot", err)
			}
		})
	}
	// craftSnapshot with the records in order makes a snapshot the decoder
	// takes, so the cases above fail on order alone.
	ordered := craftSnapshot(t, snapRec{"A1", 2, "1+1", one}, snapRec{"A2", 1, "1+1", one}, snapRec{"B1", 0, "", one})
	r, err := RestoreSnapshot(bytes.NewReader(ordered))
	if err != nil {
		t.Fatalf("ordered crafted snapshot: %v", err)
	}
	if r.NumCells() != 3 || r.NumFormulas() != 2 || r.Pending() != 1 {
		t.Fatalf("ordered crafted snapshot: %d cells, %d formulas, %d pending", r.NumCells(), r.NumFormulas(), r.Pending())
	}
	if r.RecalculateAll(); r.Pending() != 0 || r.Value(ref.MustCell("A1")).Num != 2 {
		t.Fatalf("A1 = %v with %d pending after the drain", r.Value(ref.MustCell("A1")), r.Pending())
	}
}

// snapRec is one hand-written TACOE2 cell record: kind 0 a value, 1 a formula
// with its cached value, 2 a formula without one.
type snapRec struct {
	at   string
	kind byte
	src  string
	val  formula.Value // numbers only
}

// craftSnapshot assembles a checksummed TACOE2 file holding recs, in the
// order given, over an empty graph — the bytes a peer or a spill directory
// could hand the decoder, whatever the writer would have produced.
func craftSnapshot(t testing.TB, recs ...snapRec) []byte {
	t.Helper()
	b := append([]byte("TACOE2"), byte(len(recs)))
	for _, rec := range recs {
		at := ref.MustCell(rec.at)
		b = append(b, byte(at.Col), byte(at.Row), rec.kind)
		if rec.kind != 0 {
			b = append(append(b, byte(len(rec.src))), rec.src...)
		}
		if rec.kind != 2 {
			b = binary.AppendUvarint(append(b, byte(formula.KindNumber)), math.Float64bits(rec.val.Num))
		}
	}
	return sealSnapshot(t, b)
}

// sealSnapshot ends the cell records in b with an empty graph and the
// checksum trailer.
func sealSnapshot(t testing.TB, b []byte) []byte {
	t.Helper()
	var g bytes.Buffer
	if err := core.NewGraph(core.DefaultOptions()).WriteSnapshot(&g); err != nil {
		t.Fatal(err)
	}
	b = append(b, g.Bytes()...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, snapCRCTable))
}

// errorTextSnapshot is a checksummed TACOE2 file of one value cell, A1, whose
// kind-4 value reads text.
func errorTextSnapshot(t testing.TB, text string) []byte {
	t.Helper()
	b := append([]byte("TACOE2"), 1, 1, 1, 0, byte(formula.KindError), byte(len(text)))
	return sealSnapshot(t, append(b, text...))
}

// TestSnapshotUnknownErrorText: an error value is stored as its text, and a
// text that names no formula.ErrCode fails the restore with
// ErrBadEngineSnapshot — what the store quarantines a spill file on — not a
// panic. FuzzSnapshotDecode's corpus holds the same file as a seed.
func TestSnapshotUnknownErrorText(t *testing.T) {
	good := errorTextSnapshot(t, "#DIV/0!")
	e, err := RestoreSnapshot(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("#DIV/0! snapshot: %v", err)
	}
	if v := e.Value(ref.MustCell("A1")); v != formula.Error(formula.ErrDiv0) {
		t.Fatalf("A1 = %v, want #DIV/0!", v)
	}
	bogus := errorTextSnapshot(t, "#BOGUS!")
	if err := CheckSnapshotIntegrity(bogus); err != nil {
		t.Fatalf("crafted file is not well-formed: %v", err)
	}
	if _, err := RestoreSnapshot(bytes.NewReader(bogus)); !errors.Is(err, ErrBadEngineSnapshot) {
		t.Fatalf("RestoreSnapshot: err = %v, want ErrBadEngineSnapshot", err)
	}
	seed, err := os.ReadFile("testdata/fuzz/FuzzSnapshotDecode/bogus_error_text")
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bogus); err != nil || string(seed) != want {
		t.Fatalf("FuzzSnapshotDecode seed (err %v) is not:\n%s", err, want)
	}
}

// FuzzSnapshotDecode feeds RestoreSnapshot — the one snapshot decoder, which
// reads spill files and the bytes a standby is shipped — arbitrary input. It
// must never panic, and an engine it accepts must write back through
// WriteSnapshot into a checksummed snapshot that restores to as many cells.
func FuzzSnapshotDecode(f *testing.F) {
	var ledger bytes.Buffer
	if err := ledgerEngine(f, 12).WriteSnapshot(&ledger); err != nil {
		f.Fatal(err)
	}
	f.Add(ledger.Bytes())
	one := formula.Num(1)
	for _, recs := range [][]snapRec{
		{{"A1", 2, "1+1", one}, {"A1", 1, "1+1", one}},
		{{"A2", 0, "", one}, {"A1", 0, "", one}},
		{{"B1", 0, "", one}, {"A5", 1, "1+1", one}},
		{{"A1", 2, "1+1", one}, {"A2", 1, "1+1", one}, {"B1", 0, "", one}},
	} {
		f.Add(craftSnapshot(f, recs...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := RestoreSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf); err != nil {
			t.Fatalf("accepted snapshot does not write back: %v", err)
		}
		if err := CheckSnapshotIntegrity(buf.Bytes()); err != nil {
			t.Fatalf("written-back snapshot: %v", err)
		}
		r, err := RestoreSnapshot(&buf)
		if err != nil {
			t.Fatalf("written-back snapshot does not restore: %v", err)
		}
		if r.NumCells() != e.NumCells() {
			t.Fatalf("written-back snapshot restores %d cells, want %d", r.NumCells(), e.NumCells())
		}
	})
}

// TestSnapshotFormatGolden pins the TACOE2 bytes: a fixed small engine —
// every value kind, formulae clean, erroring and cyclic, a gapped column, a
// far column — hashes to the constant its WriteSnapshot produced at commit
// 1731fbe, so spill files written since then stay readable. A format change
// bumps the magic and this constant together.
func TestSnapshotFormatGolden(t *testing.T) {
	e := New(nil)
	e.SetValue(ref.MustCell("A1"), formula.Num(1.5))
	e.SetValue(ref.MustCell("A2"), formula.Str("text"))
	e.SetValue(ref.MustCell("A3"), formula.Boolean(true))
	e.SetValue(ref.MustCell("A5"), formula.Empty())
	e.SetValue(ref.MustCell("AD1"), formula.Num(-2))
	for r := 1; r <= 6; r++ {
		e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r)))
		mustFormula(t, e, fmt.Sprintf("C%d", r), fmt.Sprintf("B%d*$AD$1", r))
		mustFormula(t, e, fmt.Sprintf("E%d", r+1), fmt.Sprintf("SUM(C$1:C%d)", r))
	}
	mustFormula(t, e, "D1", "1/0")
	mustFormula(t, e, "D2", "A2&\"!\"")
	mustFormula(t, e, "D4", "D4+1")
	e.ClearCell(ref.MustCell("B4"))
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "088f8eb4fdff9be333d92f4fb99f37d2b1609781780e0f9388f35c23e20344af"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != 539 || got != want {
		t.Fatalf("snapshot is %d bytes hashing to %s, want 539 bytes hashing to %s", buf.Len(), got, want)
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
// formula count must be rebuilt so post-restore edits — which maintain it —
// keep it exact.
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

	// The formula count is live: a formula overwrite leaves it where it was
	// and keeps invalidation exact.
	if _, err := r.SetFormula(ref.MustCell("B1"), "A1*$F$1+1"); err != nil {
		t.Fatal(err)
	}
	if r.NumFormulas() != 64 {
		t.Fatalf("formulas = %d after a formula overwrite, want 64", r.NumFormulas())
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
