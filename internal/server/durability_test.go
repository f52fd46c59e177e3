package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/workload"
)

// crashBatches scripts a deterministic edit sequence: batch 0 builds a
// fanout sheet through the bulk path (values + formulas into an empty
// engine), later batches perturb inputs, rewrite formulas, and clear cells —
// every op an absolute assignment, exactly what the journal replays.
func crashBatches() [][]EditOp {
	var batches [][]EditOp
	var b0 []EditOp
	for r := 1; r <= 10; r++ {
		b0 = append(b0, EditOp{Cell: fmt.Sprintf("A%d", r), Value: num(float64(r))})
	}
	for col := 'C'; col <= 'E'; col++ {
		for r := 1; r <= 20; r++ {
			b0 = append(b0, EditOp{Cell: fmt.Sprintf("%c%d", col, r),
				Formula: str(fmt.Sprintf("SUM(A$1:A$10)*%d+%d", col-'A', r))})
		}
	}
	for r := 1; r <= 20; r++ {
		b0 = append(b0, EditOp{Cell: fmt.Sprintf("F%d", r), Formula: str(fmt.Sprintf("SUM(C%d:E%d)", r, r))})
	}
	batches = append(batches, b0)
	for i := 0; i < 8; i++ {
		var b []EditOp
		for j := 0; j < 4; j++ {
			b = append(b, EditOp{Cell: fmt.Sprintf("A%d", 1+(i*4+j)%10), Value: num(float64(i*131 + j*17))})
		}
		switch i % 3 {
		case 0:
			b = append(b, EditOp{Cell: fmt.Sprintf("C%d", 1+i), Formula: str(fmt.Sprintf("SUM(A$1:A$10)+%d", i*1000))})
		case 1:
			b = append(b, EditOp{Cell: fmt.Sprintf("D%d", 1+i), Clear: true})
		}
		batches = append(batches, b)
	}
	return batches
}

// touchedRefs is the cell domain a batch script could have written.
func touchedRefs(batches [][]EditOp) []ref.Ref {
	seen := map[ref.Ref]struct{}{}
	var out []ref.Ref
	for _, b := range batches {
		for _, op := range b {
			at, err := ref.ParseA1(op.Cell)
			if err != nil {
				panic(err)
			}
			if _, ok := seen[at]; !ok {
				seen[at] = struct{}{}
				out = append(out, at)
			}
		}
	}
	return out
}

func sameValue(a, b formula.Value) bool {
	return reflect.DeepEqual(a, b)
}

// applyJournaled mirrors handleEdits: parse, and apply through the store
// with the encoded batch journaled.
func applyJournaled(t *testing.T, st *Store, id string, batch []EditOp) {
	t.Helper()
	ops, err := parseBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	err = st.UpdateJournaled(id, batch, func(_ *Session, eng *engine.Engine) error {
		applyBatch(eng, ops)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) > 0 {
		t.Fatalf("temp files left at final-path directory: %v", tmps)
	}
}

// TestCrashRecoveryConvergence is the kill-and-restart proof, run under
// -race in CI: a durable store takes journaled edit batches and is then
// abandoned without Wait or Close — its background drain workers still
// mid-wavefront, exactly a SIGKILL's view of memory — while a second store
// opens the same directory. Every session must be rediscovered, replay its
// journal, and settle to values byte-identical to a serial reference engine
// that applied the same batches and never crashed. The reference runs on
// both graph backends.
func TestCrashRecoveryConvergence(t *testing.T) {
	for name, mkGraph := range drainBackends {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := StoreOptions{
				Shards: 2, RecalcWorkers: 2, RecalcChunk: 16,
				Durable: true, SpillDir: dir, FsyncPolicy: "never",
			}
			st1, err := NewStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			// Closed only at test end (after verification), standing in for
			// the killed process finally disappearing.
			t.Cleanup(st1.Close)

			batches := crashBatches()
			const nSessions = 3
			ids := make([]string, nSessions)
			for i := range ids {
				// Blank creates: all content arrives as journaled batches, so
				// recovery rebuilds each session purely from its journal
				// (SnapHeld=false registry entries) — which also lets the
				// reference use the nocomp backend while recovered engines
				// are TACO.
				ids[i] = st1.Create(fmt.Sprintf("crash%d", i), engine.New(mkGraph())).ID
			}
			for _, batch := range batches {
				for _, id := range ids {
					applyJournaled(t, st1, id, batch)
				}
			}
			// No Wait, no Close: drains are in flight right now.

			st2, err := NewStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if got := st2.Stats().RecoveredSessions; got != nSessions {
				t.Fatalf("recovered %d sessions, want %d", got, nSessions)
			}
			refEng := engine.New(mkGraph())
			for _, batch := range batches {
				ops, err := parseBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				applyBatch(refEng, ops)
			}
			refEng.RecalculateAll()
			domain := touchedRefs(batches)
			for i, id := range ids {
				s, err := st2.Peek(id)
				if err != nil {
					t.Fatalf("session %d not discoverable after crash: %v", i, err)
				}
				if s.Rev() != uint64(len(batches)) {
					t.Fatalf("session %d rev = %d, want %d", i, s.Rev(), len(batches))
				}
				if err := st2.Wait(id); err != nil {
					t.Fatalf("session %d wait: %v", i, err)
				}
				err = st2.View(id, func(_ *Session, eng *engine.Engine) error {
					for _, at := range domain {
						if got, want := eng.Value(at), refEng.Value(at); !sameValue(got, want) {
							t.Errorf("session %d cell %s: recovered %v, reference %v", i, ref.FormatA1(at), got, want)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := st2.Stats().ReplayedRecords; got != uint64(nSessions*len(batches)) {
				t.Fatalf("replayed %d records, want %d", got, nSessions*len(batches))
			}
			assertNoTempFiles(t, dir)
		})
	}
}

// TestCrashRecoveryWithSnapshotTail covers the snapshot-plus-tail shape:
// eviction spills a snapshot (truncating the journal), further edits journal
// on top, then the store is abandoned. Recovery must restore the snapshot
// and replay only the tail.
func TestCrashRecoveryWithSnapshotTail(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{
		Shards: 1, MaxResident: 1, RecalcWorkers: -1,
		Durable: true, SpillDir: dir, FsyncPolicy: "never",
	}
	st1, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st1.Close)
	batches := crashBatches()
	split := 5

	a := st1.Create("tail", engine.New(nil)).ID
	for _, batch := range batches[:split] {
		applyJournaled(t, st1, a, batch)
	}
	// Touching a second session evicts the first: snapshot written, journal
	// truncated, registry advanced.
	b := st1.Create("other", engine.New(nil)).ID
	applyJournaled(t, st1, b, []EditOp{{Cell: "A1", Value: num(1)}})
	if s, _ := st1.Peek(a); s.Resident() {
		t.Fatal("expected session to be spilled by the resident cap")
	}
	// The tail: more journaled edits, which fault the session back in.
	for _, batch := range batches[split:] {
		applyJournaled(t, st1, a, batch)
	}

	st2, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Wait(a); err != nil {
		t.Fatal(err)
	}
	refEng := engine.New(nil)
	for _, batch := range batches {
		ops, err := parseBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		applyBatch(refEng, ops)
	}
	refEng.RecalculateAll()
	err = st2.View(a, func(_ *Session, eng *engine.Engine) error {
		for _, at := range touchedRefs(batches) {
			if got, want := eng.Value(at), refEng.Value(at); !sameValue(got, want) {
				t.Errorf("cell %s: recovered %v, reference %v", ref.FormatA1(at), got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the post-spill batches should have replayed.
	if got := st2.Stats().ReplayedRecords; got != uint64(len(batches)-split) {
		t.Fatalf("replayed %d records, want %d (the journal tail)", got, len(batches)-split)
	}
	assertNoTempFiles(t, dir)
}

// TestWarmRestartHTTP drives recovery end to end through the HTTP API: a
// durable server hosts a scenario session plus edits, shuts down cleanly,
// and a second server over the same directory must list the session under
// the same ID, name, and revision, serve identical values, and accept
// further edits.
func TestWarmRestartHTTP(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Store: StoreOptions{Durable: true, SpillDir: dir, FsyncPolicy: "always"}}
	srv1, tc1 := newTestServer(t, opts)
	var info SessionInfo
	if code := tc1.do("POST", "/sessions", CreateRequest{Name: "warm", Scenario: "financial", Rows: 12, Seed: 7}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for i := 0; i < 4; i++ {
		batch := EditBatch{Edits: []EditOp{
			{Cell: fmt.Sprintf("B%d", 2+i), Value: num(float64(100*i + 1))},
			{Cell: "C2", Formula: str(fmt.Sprintf("SUM(B2:B%d)", 5+i))},
		}}
		if code := tc1.do("POST", "/sessions/"+info.ID+"/edits?wait=1", batch, nil); code != http.StatusOK {
			t.Fatalf("edit %d: status %d", i, code)
		}
	}
	var before CellsResult
	if code := tc1.do("GET", "/sessions/"+info.ID+"/cells?range=A1:H12&wait=1", nil, &before); code != http.StatusOK {
		t.Fatalf("read: status %d", code)
	}
	srv1.Close() // graceful restart: journals and registry flushed

	_, tc2 := newTestServer(t, opts)
	var listed []SessionInfo
	if code := tc2.do("GET", "/sessions", nil, &listed); code != http.StatusOK {
		t.Fatal("list failed")
	}
	if len(listed) != 1 || listed[0].ID != info.ID || listed[0].Name != "warm" {
		t.Fatalf("restart lost the session: %+v", listed)
	}
	if listed[0].Rev != before.Rev {
		t.Fatalf("restart rev = %d, want %d", listed[0].Rev, before.Rev)
	}
	var after CellsResult
	if code := tc2.do("GET", "/sessions/"+info.ID+"/cells?range=A1:H12&wait=1", nil, &after); code != http.StatusOK {
		t.Fatalf("read after restart: status %d", code)
	}
	if !reflect.DeepEqual(before.Cells, after.Cells) {
		t.Fatalf("values diverged across restart:\nbefore %+v\nafter  %+v", before.Cells, after.Cells)
	}
	// The recovered session keeps working: another journaled edit.
	if code := tc2.do("POST", "/sessions/"+info.ID+"/edits?wait=1",
		EditBatch{Edits: []EditOp{{Cell: "B2", Value: num(42)}}}, nil); code != http.StatusOK {
		t.Fatalf("edit after restart: status %d", code)
	}
	assertNoTempFiles(t, dir)
}

// TestQuarantineCorruptSnapshot flips a byte in a session's spill file and
// restarts: the restore must fail with ErrSnapshotCorrupt, rename the file
// aside as *.corrupt, and keep failing the same way — without affecting the
// store's other sessions.
func TestQuarantineCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Durable: true, SpillDir: dir, FsyncPolicy: "never", RecalcWorkers: -1}
	st1, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(nil)
	for r := 1; r <= 8; r++ {
		eng.SetValue(ref.Ref{Col: 1, Row: r}, formula.Num(float64(r)))
	}
	victim := st1.Create("victim", eng).ID
	okEng := engine.New(nil)
	okEng.SetValue(ref.Ref{Col: 1, Row: 1}, formula.Num(9))
	ok := st1.Create("bystander", okEng).ID
	st1.Close()

	path := filepath.Join(dir, victim+".tacos")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for i := 0; i < 2; i++ { // poisoned: every touch fails identically
		err := st2.View(victim, func(*Session, *engine.Engine) error { return nil })
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("touch %d: err = %v, want ErrSnapshotCorrupt", i, err)
		}
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file still at final path (err=%v)", err)
	}
	if got := st2.Stats().QuarantinedSnapshots; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	// The bystander is untouched.
	err = st2.View(ok, func(_ *Session, e *engine.Engine) error {
		if v := e.Value(ref.Ref{Col: 1, Row: 1}); v.Num != 9 {
			t.Fatalf("bystander value = %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// spillRotted creates a session holding A1 = 7 and B1 = A1*2 on tc's server,
// pushes it out with a second session (the server must cap residency at
// one), and flips one bit of A1's value payload in its base file in dir, so
// the file decodes cleanly to A1 = 7.5 and only its CRC trailer tells.
// Returns the session's id and the path of its base file.
func spillRotted(t *testing.T, st *Store, tc *testClient, dir string) (string, string) {
	t.Helper()
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "rot"}, &info)
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits?wait=1", EditBatch{Edits: []EditOp{
		{Cell: "A1", Value: num(7)},
		{Cell: "B1", Formula: str("A1*2")},
	}}, nil); code != http.StatusOK {
		t.Fatalf("edit: status %d", code)
	}
	evictNow(t, st, info.ID)
	path := filepath.Join(dir, info.ID+".tacos")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// 7.0 is 0x401C000000000000, in column A's lane 00 00 00 00 00 00 1c 40;
	// 7.5 is 0x401E000000000000.
	seven := []byte{0, 0, 0, 0, 0, 0, 0x1c, 0x40}
	if n := bytes.Count(data, seven); n != 1 {
		t.Fatalf("base file holds %d copies of A1's payload, want 1", n)
	}
	data[bytes.Index(data, seven)+6] ^= 0x02
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return info.ID, path
}

// TestRottedSpillNeverServed: whichever request touches a spilled session
// first — a plain read, a barrier read or a query — a spill file whose CRC
// does not match answers 500 and is quarantined as *.corrupt, and every
// later request answers 500 too. Nothing decodes a spill file unchecked.
func TestRottedSpillNeverServed(t *testing.T) {
	paths := []string{"/cells?at=A1", "/cells?at=A1&wait=1", "/dependents?of=A1"}
	for i, name := range []string{"plain read", "barrier read", "query"} {
		first := paths[i]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv, tc := newTestServer(t, Options{Store: StoreOptions{Shards: 1, MaxResident: 1, SpillDir: dir}})
			id, path := spillRotted(t, srv.Store(), tc, dir)
			for _, p := range append([]string{first}, paths...) {
				var body map[string]any
				if code := tc.do("GET", "/sessions/"+id+p, nil, &body); code != http.StatusInternalServerError {
					t.Fatalf("GET %s: status %d, body %v; want 500", p, code, body)
				}
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("rotted file not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("rotted file still at its path (err=%v)", err)
			}
		})
	}
}

// TestErrorValuesSurviveEviction: an error value is a one-byte code in
// memory and its spreadsheet text on disk and on the wire, so a durable
// session's #DIV/0!, #N/A (a VLOOKUP miss), #VALUE! and #CYCLE! cells read
// the same "error" text before an eviction and after the restore.
func TestErrorValuesSurviveEviction(t *testing.T) {
	dir := t.TempDir()
	srv, tc := newTestServer(t, Options{Store: StoreOptions{
		Durable: true, Shards: 1, MaxResident: 1, SpillDir: dir, FsyncPolicy: "never"}})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "errors"}, &info)
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits?wait=1", EditBatch{Edits: []EditOp{
		{Cell: "A1", Value: num(1)},
		{Cell: "A2", Text: str("x")},
		{Cell: "B1", Formula: str("A1/0")},
		{Cell: "B2", Formula: str("VLOOKUP(99,A1:A2,1,FALSE)")},
		{Cell: "B3", Formula: str("A2*2")},
		{Cell: "B4", Formula: str("B4+1")},
	}}, nil); code != http.StatusOK {
		t.Fatalf("edit: status %d", code)
	}
	want := []string{"#DIV/0!", "#N/A", "#VALUE!", "#CYCLE!"}
	check := func(when string) {
		t.Helper()
		var got CellsResult
		if code := tc.do("GET", "/sessions/"+info.ID+"/cells?range=B1:B4&wait=1", nil, &got); code != http.StatusOK {
			t.Fatalf("%s: read: status %d", when, code)
		}
		if len(got.Cells) != len(want) {
			t.Fatalf("%s: %d cells, want %d", when, len(got.Cells), len(want))
		}
		for i, c := range got.Cells {
			if c.Kind != "error" || c.Error != want[i] {
				t.Errorf("%s: %s = %+v, want error %s", when, c.Cell, c, want[i])
			}
		}
	}
	check("before eviction")
	evictNow(t, srv.Store(), info.ID)
	base, err := os.ReadFile(filepath.Join(dir, info.ID+".tacos"))
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range want {
		if !bytes.Contains(base, []byte(text)) {
			t.Errorf("base file does not hold %s", text)
		}
	}
	check("after restore")
	if st := srv.Store().Stats(); st.Evictions == 0 || st.Restores == 0 {
		t.Fatalf("%d evictions, %d restores; want the session spilled and restored", st.Evictions, st.Restores)
	}
}

// TestEditOpsCodec round-trips every op shape and rejects malformed bytes.
func TestEditOpsCodec(t *testing.T) {
	in := []EditOp{
		{Cell: "A1", Value: num(3.25)},
		{Cell: "B2", Value: num(-0.0)},
		{Cell: "C3", Text: str("héllo\x00world")},
		{Cell: "D4", Formula: str("SUM(A1:A10)*2")},
		{Cell: "E5", Clear: true},
		{Cell: "F6", Text: str("")},
	}
	enc := encodeEditOps(in)
	out, err := decodeEditOps(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\nin  %+v\nout %+v", in, out)
	}
	for i := 1; i < len(enc); i++ {
		if _, err := decodeEditOps(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", i)
		}
	}
	if _, err := decodeEditOps([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// parentStoreKinds is the "kinds" session of testdata/parent_store: every
// value kind, a fill, and formulas that compute an error, a string and a
// boolean.
func parentStoreKinds() *engine.Engine {
	e := engine.New(nil)
	e.SetValue(ref.MustCell("A1"), formula.Str("label"))
	e.SetValue(ref.MustCell("A2"), formula.Boolean(true))
	e.SetValue(ref.MustCell("A3"), formula.Empty())
	e.SetValue(ref.MustCell("A4"), formula.Num(-0.25))
	for r := 1; r <= 12; r++ {
		e.SetValue(ref.Ref{Col: 2, Row: r}, formula.Num(float64(r)*1.5))
		e.SetFormula(ref.Ref{Col: 3, Row: r}, fmt.Sprintf("B%d*$A$4", r))
	}
	e.SetFormula(ref.MustCell("D1"), "1/0")
	e.SetFormula(ref.MustCell("D2"), "A1&\"!\"")
	e.SetFormula(ref.MustCell("D3"), "NOT(A2)")
	e.RecalculateAll()
	return e
}

// TestParentStoreBoots opens testdata/parent_store, a durable store directory
// written before the TACOE3 cell section: its bases are TACOE2. It holds three
// sessions — "kinds" (parentStoreKinds), the financial scenario at 20 rows
// (seed 5), and "tail", crashBatches' first five batches in a base with the
// other four in its journal above it — and the process that wrote it ended
// without closing the store. Every session must read as its reference; then
// an edit to "tail" and its eviction write a TACOE3 base, which restores to
// the same cells.
func TestParentStoreBoots(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/parent_store/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewStore(StoreOptions{Shards: 1, RecalcWorkers: -1, Durable: true, SpillDir: dir, FsyncPolicy: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids := map[string]string{}
	st.Each(func(s *Session) bool {
		ids[s.Name] = s.ID
		return true
	})
	sheet, err := workload.BuildScenario("financial", 20, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := engine.LoadBulk(sheet)
	if err != nil {
		t.Fatal(err)
	}
	tail := engine.New(nil)
	for _, batch := range crashBatches() {
		ops, err := parseBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		applyBatch(tail, ops)
	}
	tail.RecalculateAll()
	want := map[string]*engine.Engine{"kinds": parentStoreKinds(), "financial": fin, "tail": tail}
	if len(ids) != len(want) {
		t.Fatalf("sessions %v, want %d", ids, len(want))
	}
	check := func(name string) {
		t.Helper()
		if err := st.Wait(ids[name]); err != nil {
			t.Fatal(err)
		}
		err := st.View(ids[name], func(_ *Session, eng *engine.Engine) error {
			sameSheet(t, name, want[name], eng)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for name := range want {
		check(name)
	}
	if got := st.Stats().ReplayedRecords; got != 4 {
		t.Fatalf("replayed %d journal records, want tail's 4", got)
	}
	for _, f := range files {
		if strings.HasSuffix(f, ".tacos") && !bytes.HasPrefix(must(os.ReadFile(f)), []byte("TACOE2")) {
			t.Fatalf("fixture base %s is not TACOE2", f)
		}
	}
	edit := []EditOp{{Cell: "A3", Value: num(77)}, {Cell: "F2", Formula: str("SUM(C2:E2)*2")}}
	applyJournaled(t, st, ids["tail"], edit)
	ops, err := parseBatch(edit)
	if err != nil {
		t.Fatal(err)
	}
	applyBatch(tail, ops)
	tail.RecalculateAll()
	evictNow(t, st, ids["tail"]) // a structural edit: the eviction writes a base
	if s, _ := st.Peek(ids["tail"]); s.Resident() {
		t.Fatal("tail still resident")
	}
	if base := must(os.ReadFile(st.spillPath(ids["tail"]))); !bytes.HasPrefix(base, []byte("TACOE3")) {
		t.Fatalf("tail's base after the eviction starts %q, want TACOE3", base[:6])
	}
	check("tail")
}

// sameSheet fails unless got holds exactly want's cells: values and formulas.
func sameSheet(t *testing.T, name string, want, got *engine.Engine) {
	t.Helper()
	if got.NumCells() != want.NumCells() || got.NumFormulas() != want.NumFormulas() {
		t.Fatalf("%s: %d cells, %d formulas; want %d, %d", name, got.NumCells(), got.NumFormulas(), want.NumCells(), want.NumFormulas())
	}
	all := ref.Range{Head: ref.Ref{Col: 1, Row: 1}, Tail: ref.Ref{Col: 64, Row: 1 << 20}}
	n := 0
	want.ScanRange(all, func(at ref.Ref, v formula.Value, src string, _ bool) bool {
		n++
		if g := got.Value(at); !sameValue(g, v) || math.Float64bits(g.Num) != math.Float64bits(v.Num) || got.Formula(at) != src {
			t.Errorf("%s %s: %v (%q), want %v (%q)", name, ref.FormatA1(at), g, got.Formula(at), v, src)
		}
		return true
	})
	if n != want.NumCells() {
		t.Fatalf("%s: scanned %d of %d cells", name, n, want.NumCells())
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
