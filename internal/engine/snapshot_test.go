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
	"runtime"
	"slices"
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
	// A computed string cannot outgrow MaxSnapshotString, even when a source
	// string is past the text bound (concatenation compounds): text a formula
	// would build past formula.MaxTextBytes, which is below it, is #VALUE!.
	// The snapshot holds the error, and it restores clean.
	if formula.MaxTextBytes >= MaxSnapshotString {
		t.Fatalf("text bound %d is not below the snapshot string limit %d", formula.MaxTextBytes, MaxSnapshotString)
	}
	e := New(nil)
	big := strings.Repeat("x", MaxSnapshotString/2+1)
	e.SetValue(ref.MustCell("A1"), formula.Str(big))
	if _, err := e.SetFormula(ref.MustCell("B1"), "A1&A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SetFormula(ref.MustCell("C1"), "LEN(A1)"); err != nil {
		t.Fatal(err)
	}
	e.RecalculateAll()
	if got := e.Value(ref.MustCell("B1")); got != formula.Error(formula.ErrValue) {
		t.Fatalf("B1 = %v of %d bytes, want #VALUE!", got.Kind, len(got.Str))
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatalf("snapshot failed: %v", err)
	}
	r, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dirty(ref.MustCell("B1")) || r.Pending() != 0 {
		t.Fatalf("B1 dirty=%v pending=%d, want clean", r.Dirty(ref.MustCell("B1")), r.Pending())
	}
	if got := r.Value(ref.MustCell("B1")); got != formula.Error(formula.ErrValue) {
		t.Fatalf("B1 restored as %v, want #VALUE!", got)
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
		// TACOE3: a huge column count, and a shape claiming a ~2^62-byte
		// source (one column, A, one record on row 1, shape 1 for it).
		"columnar huge count":  append([]byte("TACOE3"), hugeCount...),
		"columnar huge string": append([]byte("TACOE3"), append([]byte{1, 0, 1, 1, 0, 1, 1, 1}, hugeString[4:]...)...),
		// One column of two value cells on rows 1 and 2 (but for the first
		// case, whose row run covers one of them), an 8-byte lane each,
		// then its exceptions: two at records 1 and 2, past the end.
		"columnar rows short of the count": sealSnapshot(t, append([]byte("TACOE3"), append([]byte{1, 0, 2, 1, 0, 1, 0, 2}, make([]byte, 17)...)...)),
		"columnar exception past the end":  sealSnapshot(t, append([]byte("TACOE3"), append(append([]byte{1, 0, 2, 1, 0, 2, 0, 2}, make([]byte, 16)...), 2, 1, 0, 0, 0)...)),
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

// FuzzSnapshotDecode feeds RestoreSnapshot — which reads spill files and the
// bytes a standby is shipped through the decoder of their cell section's
// version — arbitrary input. It must never panic, and an engine it accepts
// must write back through WriteSnapshot into a checksummed snapshot that
// restores to the same cells, bit for bit.
func FuzzSnapshotDecode(f *testing.F) {
	// TACOE3: the ledger; the golden engine, with every exception kind but the
	// dirty one and gapped rows; one shape in two columns; a formula written
	// without its value.
	reused := New(nil)
	reused.SetValue(ref.MustCell("A1"), formula.Num(4))
	mustFormula(f, reused, "B1", "$A$1*2")
	mustFormula(f, reused, "C3", "$A$1*2")
	for _, e := range []*Engine{ledgerEngine(f, 12), goldenEngine(f), reused} {
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(noValueSnapshot(f))
	legacy, err := os.ReadFile("testdata/golden.tacoe2")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	// TACOE2 records out of order, and in order.
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
		sameCells(t, e, r)
	})
}

// noValueSnapshot is a checksummed TACOE3 file of one formula cell, A1 =
// 1+1, written without its value: restored dirty.
func noValueSnapshot(t testing.TB) []byte {
	t.Helper()
	b := append([]byte("TACOE3"),
		1,    // one column
		0, 1, // A, one record
		1, 0, 1, // one row run: row 1, one row
		1, 1, 3, '1', '+', '1', // shape 1, defined here, for one record
	)
	b = append(b, make([]byte, 8)...) // the lane
	b = append(b, 1, 0, excNoValue)   // one exception: record 0, no value
	return sealSnapshot(t, b)
}

// TestSnapshotNoValueRecord: a formula written without its value restores
// dirty, with no value, and the drain computes it.
func TestSnapshotNoValueRecord(t *testing.T) {
	r, err := RestoreSnapshot(bytes.NewReader(noValueSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	a1 := ref.MustCell("A1")
	if !r.Dirty(a1) || r.Pending() != 1 || r.NumFormulas() != 1 || r.Value(a1) != (formula.Value{}) || r.Formula(a1) != "1+1" {
		t.Fatalf("A1 = %v (%q), dirty %v, %d pending, %d formulas", r.Value(a1), r.Formula(a1), r.Dirty(a1), r.Pending(), r.NumFormulas())
	}
	if r.RecalculateAll(); r.Value(a1) != formula.Num(2) {
		t.Fatalf("A1 = %v after the drain, want 2", r.Value(a1))
	}
}

// TestSnapshotHostileCountsAllocateNothing: a TACOE3 header claiming 2^40
// records in a column, or 2^40 runs, fails with ErrBadEngineSnapshot on the
// bytes that are not there, having allocated under 1 MB.
func TestSnapshotHostileCountsAllocateNothing(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	head := append([]byte("TACOE3"), 1, 0) // one column, A
	cases := map[string][]byte{
		"2^40 records, 2^40 runs": append(append(bytes.Clone(head), huge...), huge...),
		// One run of 2^40 rows, all values, and a lane that stops short.
		"2^40 records, short lane": append(append(append(append(append(bytes.Clone(head), huge...), 1, 0), huge...), 0), append(huge, 1, 2, 3)...),
		"2^40 columns":             append([]byte("TACOE3"), huge...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := RestoreSnapshot(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadEngineSnapshot) {
				t.Fatalf("err = %v, want ErrBadEngineSnapshot", err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Fatalf("allocated %d bytes", d)
			}
		})
	}
}

// goldenEngine is a fixed small engine — every value kind, formulae clean,
// erroring and cyclic, a gapped column, a far column — drained.
func goldenEngine(t testing.TB) *Engine {
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
	e.RecalculateAll()
	return e
}

// goldenTACOE3 is the SHA-256 of goldenEngine's snapshot, goldenTACOE3Len its
// length. A format change bumps the magic and these together.
const (
	goldenTACOE3    = "379d48f3adc36f00eadfc58ae41b26b9efa75dd0c9e31726656bf64cbf73fa07"
	goldenTACOE3Len = 420
)

// TestSnapshotFormatGolden pins the TACOE3 bytes: goldenEngine hashes to the
// constant its WriteSnapshot produced when the format was introduced, so
// spill files written since then stay readable.
func TestSnapshotFormatGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenEngine(t).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != goldenTACOE3Len || got != goldenTACOE3 {
		t.Fatalf("snapshot is %d bytes hashing to %s, want %d bytes hashing to %s", buf.Len(), got, goldenTACOE3Len, goldenTACOE3)
	}
}

// TestSnapshotLegacyFixture: testdata/golden.tacoe2 is the 539 TACOE2 bytes
// goldenEngine wrote before TACOE3 replaced that section. It restores to
// goldenEngine cell for cell — value bits, kind, source, dirty flag and
// *Shape — and writes back as exactly the TACOE3 golden.
func TestSnapshotLegacyFixture(t *testing.T) {
	old, err := os.ReadFile("testdata/golden.tacoe2")
	if err != nil {
		t.Fatal(err)
	}
	const want = "088f8eb4fdff9be333d92f4fb99f37d2b1609781780e0f9388f35c23e20344af"
	if got := fmt.Sprintf("%x", sha256.Sum256(old)); len(old) != 539 || got != want || !bytes.HasPrefix(old, []byte("TACOE2")) {
		t.Fatalf("fixture is %d bytes hashing to %s, want the 539 TACOE2 bytes hashing to %s", len(old), got, want)
	}
	if err := CheckSnapshotIntegrity(old); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSnapshot(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, goldenEngine(t), r)
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != goldenTACOE3Len || got != goldenTACOE3 {
		t.Fatalf("the fixture writes back as %d bytes hashing to %s, want the TACOE3 golden", buf.Len(), got)
	}
}

// sameCells fails unless got holds exactly want's cells: the same positions,
// and at each the same value bit for bit, kind, formula source, dirty flag
// and *Shape.
func sameCells(t testing.TB, want, got *Engine) {
	t.Helper()
	if got.NumCells() != want.NumCells() || got.NumFormulas() != want.NumFormulas() || got.Pending() != want.Pending() {
		t.Fatalf("%d cells, %d formulas, %d pending; want %d, %d, %d", got.NumCells(), got.NumFormulas(), got.Pending(),
			want.NumCells(), want.NumFormulas(), want.Pending())
	}
	want.store.eachColumnMajor(func(at ref.Ref, w cell) error {
		g, ok := got.store.get(at)
		if !ok {
			t.Fatalf("%v: missing", at)
		}
		wv, gv, wm, gm := w.value(), g.value(), w.meta(), g.meta()
		if wv.Kind != gv.Kind || math.Float64bits(wv.Num) != math.Float64bits(gv.Num) || wv.Str != gv.Str ||
			wv.Bool != gv.Bool || wv.Err != gv.Err {
			t.Fatalf("%v: value %#v, want %#v", at, gv, wv)
		}
		if gm.shape != wm.shape || gm.dirty != wm.dirty || got.Formula(at) != want.Formula(at) {
			t.Fatalf("%v: formula %q (shape %p, dirty %v), want %q (shape %p, dirty %v)",
				at, got.Formula(at), gm.shape, gm.dirty, want.Formula(at), wm.shape, wm.dirty)
		}
		return nil
	})
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

// TestSnapshotChecksum pins the integrity trailer: a fresh snapshot
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
	if !bytes.HasPrefix(good, []byte("TACOE3")) {
		t.Fatalf("snapshot magic = %q, want TACOE3", good[:6])
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

// snapshotSessions are the sessions a restore is measured and checked on:
// the four scenarios at the size a served session has (planning, row-major,
// at 48 columns) and the 20 000-row ledger.
func snapshotSessions(tb testing.TB) map[string]*Engine {
	tb.Helper()
	out := map[string]*Engine{"ledger": ledgerEngine(tb, ledgerBenchRows)}
	for _, name := range workload.ScenarioNames {
		rows := 200
		if name == "planning" {
			rows = 48
		}
		sheet, err := workload.BuildScenario(name, rows, rand.New(rand.NewSource(1)))
		if err != nil {
			tb.Fatal(err)
		}
		if out[name], err = LoadBulk(sheet); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestSnapshotRoundTripExact: a restore gives back every cell of every
// session bit for bit, and the ledger's base is at most half the 2 392 820
// bytes TACOE2 wrote for it.
func TestSnapshotRoundTripExact(t *testing.T) {
	for name, e := range snapshotSessions(t) {
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		size := buf.Len()
		r, err := RestoreSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameCells(t, e, r)
		if name == "ledger" && size > 2_392_820/2 {
			t.Errorf("the ledger's base is %d bytes, want at most %d", size, 2_392_820/2)
		}
	}
}

// BenchmarkRestoreSnapshot times RestoreSnapshot of each snapshotSessions
// session into a warm column pool, as a capped host restores: ns/cell is a
// restore's time over its cells, B/cell the base's bytes over them.
func BenchmarkRestoreSnapshot(b *testing.B) {
	sessions := snapshotSessions(b)
	for _, name := range append(slices.Clone(workload.ScenarioNames), "ledger") {
		b.Run(name, func(b *testing.B) {
			e := sessions[name]
			var buf bytes.Buffer
			if err := e.WriteSnapshot(&buf); err != nil {
				b.Fatal(err)
			}
			raw, cells := buf.Bytes(), e.NumCells()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := RestoreSnapshot(bytes.NewReader(raw))
				if err != nil || r.NumCells() != cells {
					b.Fatalf("restore: %v", err)
				}
				b.StopTimer()
				r.Recycle()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			b.ReportMetric(float64(len(raw))/float64(cells), "B/cell")
			b.ReportMetric(float64(len(raw)), "B/base")
		})
	}
}

// TestSnapshotShapeOffSheet: a TACOE3 record may name a shape parsed at
// another record, so the decoder checks that the shape's references are on
// the sheet where each run of it starts and ends. A shape reused where a
// reference falls off the sheet, or a run that walks off it, is
// ErrBadEngineSnapshot; the same run kept on the sheet restores.
func TestSnapshotShapeOffSheet(t *testing.T) {
	sumTo10 := func(rows byte) []byte {
		b := append([]byte("TACOE3"), 1, 0, rows, 1, 4, rows, 1, rows, 12) // A5 down, shape 1 for all
		b = append(append(b, "SUM(A5:A$10)"...), make([]byte, 8*int(rows))...)
		return sealSnapshot(t, append(b, 0))
	}
	if r, err := RestoreSnapshot(bytes.NewReader(sumTo10(6))); err != nil || r.Formula(ref.MustCell("A10")) != "SUM(A10:A$10)" {
		t.Fatalf("A5:A10 = SUM(A{r}:A$10): err %v", err)
	}
	reused := append([]byte("TACOE3"), 2,
		0, 1, 1, 4, 1, 1, 1, 2, 'A', '1', 0, 0, 0, 0, 0, 0, 0, 0, 0, // A5 = A1
		0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0) // B1 = the same shape, B-3
	for name, data := range map[string][]byte{
		"a run that walks off the sheet": sumTo10(8),
		"a shape reused off the sheet":   sealSnapshot(t, reused),
	} {
		if _, err := RestoreSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadEngineSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadEngineSnapshot", name, err)
		}
	}
}
