package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"taco/internal/engine"
	"taco/internal/faultfs"
	"taco/internal/formula"
	"taco/internal/journal"
	"taco/internal/ref"
)

// tailStoreOpts is the eviction test configuration: one shard, one resident
// slot (every cross-session touch is an eviction), serial recalc.
func tailStoreOpts(dir string) StoreOptions {
	return StoreOptions{
		Shards: 1, MaxResident: 1, RecalcWorkers: -1,
		Durable: true, SpillDir: dir, FsyncPolicy: "never",
	}
}

// sheetBatch builds one structural bulk batch: `rows` value cells in column A
// and rows/4 SUM formulas over them in column B.
func sheetBatch(rows int) []EditOp {
	var b []EditOp
	for r := 1; r <= rows; r++ {
		b = append(b, EditOp{Cell: fmt.Sprintf("A%d", r), Value: num(float64(r))})
	}
	for r := 1; r <= rows/4; r++ {
		b = append(b, EditOp{Cell: fmt.Sprintf("B%d", r), Formula: str(fmt.Sprintf("SUM(A%d:A%d)", r, r+3))})
	}
	return b
}

// valueEdit is a one-op value-only batch.
func valueEdit(cell string, v float64) []EditOp {
	return []EditOp{{Cell: cell, Value: num(v)}}
}

// snapState reads a session's base revision and revision under its lock.
func snapState(s *Session) (snapRev, rev uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.disk.rev, s.rev
}

// globCount counts spill-dir files matching pattern.
func globCount(t *testing.T, dir, pattern string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// assertOnlyStoreFiles fails on any file in the spill dir outside the
// store's four file types (and their .corrupt quarantines) — in particular
// on any leftover of a per-eviction record file.
func assertOnlyStoreFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".corrupt")
		switch filepath.Ext(name) {
		case ".tacos", baseSuffix, journalSuffix:
		default:
			if name != registryFile {
				t.Errorf("unexpected file in store directory: %s", e.Name())
			}
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// registrySnapRev reads the base revision the registry durably holds for id.
func registrySnapRev(t *testing.T, st *Store, id string) uint64 {
	t.Helper()
	for _, e := range st.reg.Entries() {
		if e.ID == id {
			return e.SnapRev
		}
	}
	t.Fatalf("session %s not in the registry", id)
	return 0
}

// TestTailEvictionWritesNothingRoundTrip drives the tentpole: once a session
// holds a base, every eviction whose edits since are value-only drops
// residency without writing a byte — the journal already holds them — and
// restores replay base + journal tail to exactly the reference values, both
// on the live store (through the ?wait=1 barrier, which must fault the
// evicted session in and drain it rather than call it settled) and after a
// cold restart.
func TestTailEvictionWritesNothingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := tailStoreOpts(dir)
	st1, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st1.Close)

	batches := [][]EditOp{sheetBatch(16)}
	a := st1.Create("a", engine.New(nil)).ID
	applyJournaled(t, st1, a, batches[0])
	evictNow(t, st1, a) // its first full base
	b := st1.Create("b", engine.New(nil)).ID
	applyJournaled(t, st1, b, sheetBatch(16))
	sa, _ := st1.Peek(a)
	if sa.Resident() {
		t.Fatal("a still resident past the cap")
	}
	if snap, rev := snapState(sa); snap != rev {
		t.Fatalf("first eviction left snapRev %d behind rev %d, want a full base", snap, rev)
	}
	if n := fileSize(t, st1.journalPath(a)); n != int64(len(journal.JournalMagic)) {
		t.Fatalf("journal holds %d bytes after the base write, want the bare header", n)
	}
	evictNow(t, st1, b) // its first full base
	st1.View(a, func(*Session, *engine.Engine) error { return nil })

	// Alternating value-only touches, one session resident at a time: b is
	// evicted before each edit of a faults a in, and a before each edit of
	// b — every victim's tail is value batches.
	spilled, tailEvictions := mSpillBytes.Value(), mDeltaWrites.Value()
	for round := 1; round <= 3; round++ {
		batch := valueEdit("A1", float64(1000*round))
		batches = append(batches, batch)
		if round > 1 {
			evictNow(t, st1, b)
		}
		applyJournaled(t, st1, a, batch)
		evictNow(t, st1, a)
		applyJournaled(t, st1, b, valueEdit("A1", float64(round)))
	}
	if got := mSpillBytes.Value() - spilled; got != 0 {
		t.Fatalf("value-only evictions wrote %d snapshot bytes, want 0", got)
	}
	// Five evictions, each leaving a journal tail behind.
	if got := mDeltaWrites.Value() - tailEvictions; got != 5 {
		t.Fatalf("write-nothing tail evictions = %d, want 5", got)
	}
	if snap, rev := snapState(sa); sa.Resident() || rev != snap+3 {
		t.Fatalf("a resident=%t snapRev=%d rev=%d, want evicted with a 3-record tail", sa.Resident(), snap, rev)
	}
	assertOnlyStoreFiles(t, dir)

	refEng := engine.New(nil)
	for _, batch := range batches {
		ops, err := parseBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		applyBatch(refEng, ops)
	}
	refEng.RecalculateAll()
	verify := func(st *Store, label string) {
		t.Helper()
		if err := st.Wait(a); err != nil {
			t.Fatalf("%s: wait: %v", label, err)
		}
		err := st.View(a, func(s *Session, eng *engine.Engine) error {
			if s.pending != 0 {
				t.Errorf("%s: %d cells pending after the barrier", label, s.pending)
			}
			for _, at := range touchedRefs(batches) {
				if got, want := eng.Value(at), refEng.Value(at); !sameValue(got, want) {
					t.Errorf("%s: cell %s: got %v, want %v", label, ref.FormatA1(at), got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	verify(st1, "live fault-in")

	st1.Close()
	st2, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.Peek(a)
	if err != nil {
		t.Fatal(err)
	}
	if snap, rev := snapState(s2); rev != snap+3 {
		t.Fatalf("restart recovered snapRev=%d rev=%d, want the 3-record journal tail", snap, rev)
	}
	verify(st2, "cold restart")
	assertNoTempFiles(t, dir)
}

// TestTailCapsForceOneFullWrite: a replayable tail past the record cap, or
// outweighing half the base, makes the next eviction write exactly one full
// base — which checkpoints: the journal truncates and the registry advances
// — after which evictions write nothing again.
func TestTailCapsForceOneFullWrite(t *testing.T) {
	bigBatch := func() []EditOp { // one record outweighing half the small base
		var b []EditOp
		for i := 0; i < 200; i++ {
			b = append(b, EditOp{Cell: fmt.Sprintf("A%d", 1+i%16), Value: num(float64(i))})
		}
		return b
	}
	type tailCase struct {
		rows int // sizes the base so that only the named cap is crossed
		grow func(t *testing.T, st *Store, a string)
	}
	cases := map[string]tailCase{
		"record cap": {rows: 2000, grow: func(t *testing.T, st *Store, a string) {
			if base := mustPeek(t, st, a).disk.bytes; int64(maxTailRecords+1)*64 > base/2 {
				t.Fatalf("base of %d bytes too small to isolate the record cap", base)
			}
			for i := 0; i <= maxTailRecords; i++ {
				applyJournaled(t, st, a, valueEdit("A2", float64(i)))
			}
		}},
		"byte cap": {rows: 16, grow: func(t *testing.T, st *Store, a string) {
			applyJournaled(t, st, a, bigBatch())
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := NewStore(tailStoreOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			a := st.Create("a", engine.New(nil)).ID
			applyJournaled(t, st, a, sheetBatch(tc.rows))
			evictNow(t, st, a) // a: full base
			b := st.Create("b", engine.New(nil)).ID
			sa, _ := st.Peek(a)

			evictNow(t, st, b)
			tc.grow(t, st, a) // faults a in, then grows its tail past a cap
			spilled, compactions := mSpillBytes.Value(), mDeltaCompactions.Value()
			evictNow(t, st, a)
			applyJournaled(t, st, b, valueEdit("A1", 1))
			if mSpillBytes.Value() == spilled {
				t.Fatal("eviction past the cap wrote no base")
			}
			if got := mDeltaCompactions.Value() - compactions; got != 1 {
				t.Fatalf("cap-forced full writes = %d, want 1", got)
			}
			snap, rev := snapState(sa)
			if snap != rev {
				t.Fatalf("snapRev %d != rev %d after the full write", snap, rev)
			}
			if got := registrySnapRev(t, st, a); got != rev {
				t.Fatalf("registry snapRev = %d, want %d (checkpoint advances it)", got, rev)
			}
			if n := fileSize(t, st.journalPath(a)); n != int64(len(journal.JournalMagic)) {
				t.Fatalf("journal holds %d bytes after the checkpoint, want the bare header", n)
			}

			// Back under the caps: the next value-only eviction writes nothing.
			evictNow(t, st, b)
			applyJournaled(t, st, a, valueEdit("A3", 7))
			spilled = mSpillBytes.Value()
			evictNow(t, st, a)
			applyJournaled(t, st, b, valueEdit("A1", 2))
			if got := mSpillBytes.Value() - spilled; got != 0 {
				t.Fatalf("eviction under the caps wrote %d bytes, want 0", got)
			}
			err = st.View(a, func(_ *Session, eng *engine.Engine) error {
				if v := eng.Value(ref.Ref{Col: 1, Row: 3}); v.Num != 7 {
					t.Fatalf("A3 = %v after base + tail restore, want 7", v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			assertOnlyStoreFiles(t, dir)
		})
	}
}

// TestForkSharesBaseWithoutFaultIn is the cheap-fork proof, stated in bytes
// and file identity rather than wall-clock: forking a spilled parent must not
// fault its engine in, and the only files it may create are the frozen base —
// a hard link to the parent's existing snapshot, not a copy — and the child's
// journal, no larger than the parent's. Registry growth is bounded by a
// constant, so the assertions hold identically for a 16-row parent and a
// 100k-row one.
func TestForkSharesBaseWithoutFaultIn(t *testing.T) {
	plain, err := NewStore(StoreOptions{RecalcWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	p := plain.Create("p", engine.New(nil))
	if _, err := plain.Fork(p.ID, "f"); !errors.Is(err, ErrForkUnsupported) {
		t.Fatalf("fork on a non-durable store: err = %v, want ErrForkUnsupported", err)
	}
	plain.Close()

	dir := t.TempDir()
	st, err := NewStore(tailStoreOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := st.Create("a", engine.New(nil)).ID
	applyJournaled(t, st, a, sheetBatch(400))
	evictNow(t, st, a) // a full base
	b := st.Create("b", engine.New(nil)).ID
	evictNow(t, st, b)
	applyJournaled(t, st, a, valueEdit("A1", 41))
	evictNow(t, st, a) // a one-record tail
	applyJournaled(t, st, b, valueEdit("A1", 1))
	sa, _ := st.Peek(a)
	if snap, rev := snapState(sa); sa.Resident() || rev != snap+1 {
		t.Fatalf("parent resident=%t snapRev=%d rev=%d, want spilled with a one-record tail", sa.Resident(), snap, rev)
	}

	before := map[string]int64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		before[e.Name()] = fileSize(t, filepath.Join(dir, e.Name()))
	}
	spilled := mSpillBytes.Value()

	child, err := st.Fork(a, "what-if")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Resident() {
		t.Fatal("fork faulted the spilled parent in")
	}
	if got := mSpillBytes.Value() - spilled; got != 0 {
		t.Fatalf("fork wrote %d snapshot bytes, want 0", got)
	}

	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var grown int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if old, ok := before[fi.Name()]; ok {
			grown += fi.Size() - old
			continue
		}
		switch fi.Name() {
		case child.ID + journalSuffix:
			// The parent's tail, copied: never more than the parent's journal.
			if max := before[a+journalSuffix]; fi.Size() > max {
				t.Fatalf("child journal is %d bytes, parent's is %d", fi.Size(), max)
			}
		case filepath.Base(st.basePath(a, 1)):
			// The frozen base must share the parent snapshot's inode (a link,
			// not an O(sheet) copy).
			spillFi, err := os.Stat(filepath.Join(dir, a+".tacos"))
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(fi, spillFi) {
				t.Fatalf("frozen base %s is a copy, want a hard link to the parent snapshot", fi.Name())
			}
		default:
			t.Fatalf("fork created %s; only a frozen base and the child's journal are allowed", fi.Name())
		}
	}
	if grown > 4096 {
		t.Fatalf("fork grew pre-existing files by %d bytes, want O(1) registry appends", grown)
	}

	// The child serves the parent's values — tail included — then diverges
	// without back-flow.
	at := ref.Ref{Col: 1, Row: 1} // A1
	err = st.View(child.ID, func(_ *Session, eng *engine.Engine) error {
		if v := eng.Value(at); v.Num != 41 {
			t.Fatalf("child A1 = %v, want the parent's 41 (base + copied tail)", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	applyJournaled(t, st, child.ID, valueEdit("A1", 999))
	err = st.View(a, func(_ *Session, eng *engine.Engine) error {
		if v := eng.Value(at); v.Num != 41 {
			t.Fatalf("child edit leaked into the parent: A1 = %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForkSurvivesParentCompactionAndDelete: the frozen base is refcounted,
// so neither the parent's next full write (which moves the parent onto a
// fresh base of its own) nor its deletion — even before the child ever
// materialised — strands the child; deleting the child too releases the
// frozen base. The fork itself copies a structural tail off a resident
// parent without writing a base.
func TestForkSurvivesParentCompactionAndDelete(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(tailStoreOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := st.Create("a", engine.New(nil)).ID
	applyJournaled(t, st, a, sheetBatch(16))
	evictNow(t, st, a) // a full base
	// A tail on the parent, faulted back in, that a pinned graph could not
	// replay: the child pins none, so the fork still copies it.
	applyJournaled(t, st, a, valueEdit("A1", 555))
	applyJournaled(t, st, a, []EditOp{{Cell: "C1", Formula: str("A1*2")}})
	spilled := mSpillBytes.Value()
	child, err := st.Fork(a, "heir")
	if err != nil {
		t.Fatal(err)
	}
	if got := mSpillBytes.Value() - spilled; got != 0 {
		t.Fatalf("fork of a parent with a whole journal tail wrote %d snapshot bytes, want 0", got)
	}
	frozen := st.basePath(a, 1)
	if _, err := os.Stat(frozen); err != nil {
		t.Fatalf("frozen base missing after fork: %v", err)
	}

	// Parent compaction: its structural tail forces a full write at eviction,
	// cutting it loose from the frozen base, which must outlive that.
	evictNow(t, st, a)
	if snap, rev := snapState(mustPeek(t, st, a)); snap != rev {
		t.Fatalf("parent snapRev %d != rev %d, want a fresh base of its own", snap, rev)
	}
	if _, err := os.Stat(frozen); err != nil {
		t.Fatalf("parent compaction removed the base its child still references: %v", err)
	}
	if err := st.Delete(a); err != nil {
		t.Fatal(err)
	}
	if err := st.Wait(child.ID); err != nil {
		t.Fatal(err)
	}
	err = st.View(child.ID, func(_ *Session, eng *engine.Engine) error {
		if v := eng.Value(ref.Ref{Col: 1, Row: 1}); v.Num != 555 {
			t.Fatalf("orphaned child A1 = %v, want 555 (base + tail replay)", v)
		}
		if v := eng.Value(ref.Ref{Col: 2, Row: 1}); v.Kind != formula.KindNumber {
			t.Fatalf("orphaned child lost its formulas: B1 = %v", v)
		}
		if v := eng.Value(ref.Ref{Col: 3, Row: 1}); v.Num != 1110 {
			t.Fatalf("orphaned child C1 = %v, want 1110 (the tail's formula)", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(child.ID); err != nil {
		t.Fatal(err)
	}
	if n := globCount(t, dir, "*"+baseSuffix) + globCount(t, dir, child.ID+"*"); n != 0 {
		t.Fatalf("%d files leaked after the last referent died", n)
	}
}

func mustPeek(t *testing.T, st *Store, id string) *Session {
	t.Helper()
	s, err := st.Peek(id)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// evictNow spills session id the way an overflow does — claimed locked and
// counted in spilling, as coldest claims a victim, then through st.spill —
// whichever session the eviction order would pick. It stands in for
// pushing a session out by touching others where the order is not the
// test's subject.
func evictNow(t *testing.T, st *Store, id string) {
	t.Helper()
	s := mustPeek(t, st, id)
	s.mu.Lock()
	if s.res != resident || !s.evictableLocked() {
		code := lifeCode(s)
		s.mu.Unlock()
		t.Fatalf("session %s (%s) is not evictable", id, code)
	}
	st.spilling.Add(1)
	st.spill(s)
}

// TestShortJournalQuarantines: on a live store the session's revision is
// known, so a journal whose valid prefix ends short of it — a bit flip in a
// mid-tail record — fails the restore with ErrSnapshotCorrupt, renames the
// journal aside as .corrupt, and poisons only the owning session: the
// bystander keeps serving.
func TestShortJournalQuarantines(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(tailStoreOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := st.Create("a", engine.New(nil)).ID
	applyJournaled(t, st, a, sheetBatch(16))
	evictNow(t, st, a) // a full base
	b := st.Create("b", engine.New(nil)).ID
	evictNow(t, st, b)
	for i := 1; i <= 3; i++ {
		applyJournaled(t, st, a, valueEdit("A1", float64(40+i)))
	}
	evictNow(t, st, a) // a three-record tail, nothing written
	applyJournaled(t, st, b, valueEdit("A1", 1))
	if s := mustPeek(t, st, a); s.Resident() {
		t.Fatal("a still resident")
	}

	jpath := st.journalPath(a)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	hdr := len(journal.JournalMagic)
	recLen := (len(data) - hdr) / 3 // three same-shape records
	data[hdr+recLen+recLen/2] ^= 0x40
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ { // poisoned: every touch fails identically
		err := st.View(a, func(*Session, *engine.Engine) error { return nil })
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("touch %d: err = %v, want ErrSnapshotCorrupt", i, err)
		}
	}
	if _, err := os.Stat(jpath + ".corrupt"); err != nil {
		t.Fatalf("short journal not quarantined: %v", err)
	}
	if got := st.Stats().QuarantinedSnapshots; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if err := st.View(b, func(*Session, *engine.Engine) error { return nil }); err != nil {
		t.Fatalf("bystander poisoned by a's short journal: %v", err)
	}
}

// TestStandbyFailedAppendForcesFullBase: a shipped record whose local journal
// append fails still applies on the standby, but the journal does not hold
// it, and the session degrades — so the next eviction must write a full base
// instead of trusting base + journal, and the restore after it serves the
// shipped value.
func TestStandbyFailedAppendForcesFullBase(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(tailStoreOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := engine.New(nil)
	eng.SetValue(ref.Ref{Col: 1, Row: 1}, formula.Num(1))
	if _, err := st.CreateReplica("replica", "r", eng, 5); err != nil {
		t.Fatal(err)
	}
	defer faultfs.Clear()
	faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpWrite, PathContains: "replica" + journalSuffix,
		Fault: faultfs.Fault{Err: syscall.ENOSPC},
	})
	if err := st.ApplyReplicated("replica", 6, encodeEditOps(valueEdit("A1", 77))); err != nil {
		t.Fatalf("apply with a failing local append: %v", err)
	}
	faultfs.Clear()

	spilled := mSpillBytes.Value()
	evictNow(t, st, "replica")
	if s := mustPeek(t, st, "replica"); s.Resident() {
		t.Fatal("replica still resident")
	}
	if mSpillBytes.Value() == spilled {
		t.Fatal("eviction trusted a journal with a hole: no base written")
	}
	err = st.View("replica", func(s *Session, eng *engine.Engine) error {
		if v := eng.Value(ref.Ref{Col: 1, Row: 1}); v.Num != 77 || s.rev != 6 {
			t.Fatalf("restored replica A1 = %v at rev %d, want the shipped 77 at rev 6", v, s.rev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBootRefcountsAndOrphanSweep: restart refcounts are rebuilt from the
// registry — a frozen base referenced by any surviving entry stays — and
// files no entry accounts for (crash leftovers) are swept at boot.
func TestBootRefcountsAndOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	opts := tailStoreOpts(dir)
	st1, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st1.Close)
	a := st1.Create("a", engine.New(nil)).ID
	applyJournaled(t, st1, a, sheetBatch(16))
	st1.Create("b", engine.New(nil)) // evicts a
	child, err := st1.Fork(a, "kept")
	if err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Crash leftovers: a frozen base and a fork's journal no registry entry
	// names, and a stranded atomic-write temp.
	orphans := []string{
		filepath.Join(dir, "deadbeef.9"+baseSuffix),
		filepath.Join(dir, "deadbeef"+journalSuffix),
		filepath.Join(dir, ".spill-123.tmp"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, journal.JournalMagic, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, p := range orphans {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("orphan %s survived the boot sweep (err=%v)", filepath.Base(p), err)
		}
	}
	// The referenced frozen base survived, and both referents still restore.
	if n := globCount(t, dir, a+".*"+baseSuffix); n != 1 {
		t.Fatalf("frozen base count = %d, want 1", n)
	}
	for _, id := range []string{a, child.ID} {
		if err := st2.View(id, func(*Session, *engine.Engine) error { return nil }); err != nil {
			t.Fatalf("session %s does not restore after restart: %v", id, err)
		}
	}
}

// getJournal asks srv's replication endpoint for id's journal tail above from.
func getJournal(srv *Server, id string, from uint64) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/replication/sessions/%s/journal?from=%d", id, from), nil))
	return rec
}

// shippedRevs decodes a journal tail's revs with the one decoder.
func shippedRevs(t *testing.T, tail []byte) []uint64 {
	t.Helper()
	var revs []uint64
	if _, _, err := journal.Scan(bytes.NewReader(tail), journal.JournalMagic, func(rev uint64, _ []byte) error {
		revs = append(revs, rev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return revs
}

// TestJournalTailFromFilter: journalTail frames exactly the records above
// from as a journal file of their own and reports whether their revs run
// one by one from from+1.
func TestJournalTailFromFilter(t *testing.T) {
	st, err := NewStore(tailStoreOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err := journal.Open(st.journalPath("s"), journal.JournalMagic, journal.SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := append([]byte(nil), journal.JournalMagic...)
	for rev := uint64(1); rev <= 5; rev++ {
		if err := w.Append(rev, []byte{byte(rev)}); err != nil {
			t.Fatal(err)
		}
		if rev > 3 {
			want = journal.AppendRecord(want, rev, []byte{byte(rev)})
		}
	}
	if tail, n, gapless, err := st.journalTail("s", 3); err != nil || n != 2 || !gapless || !bytes.Equal(tail, want) {
		t.Fatalf("tail above 3 = %q (n %d, gapless %t, err %v), want %q", tail, n, gapless, err, want)
	}
	if tail, n, gapless, err := st.journalTail("s", 5); err != nil || n != 0 || !gapless || !bytes.Equal(tail, journal.JournalMagic) {
		t.Fatalf("tail above the head = %q (n %d, gapless %t, err %v), want the magic alone", tail, n, gapless, err)
	}
	// Rev 6 never reached the journal: the tail ships past the hole but is
	// not a run.
	if err := w.Append(7, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if tail, n, gapless, err := st.journalTail("s", 3); err != nil || n != 3 || gapless || !reflect.DeepEqual(shippedRevs(t, tail), []uint64{4, 5, 7}) {
		t.Fatalf("tail over a hole = revs %v (n %d, gapless %t, err %v), want [4 5 7], not gapless", shippedRevs(t, tail), n, gapless, err)
	}
}

// TestMissingJournalIsEmptyTail: a durable session with no journal file has
// an empty tail, not a failing one. The replication endpoint answers 200
// with the magic alone and the session's head, and a fork of a parent whose
// revision runs past its base with no journal to show for it writes a base
// instead of copying a tail.
func TestMissingJournalIsEmptyTail(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTestServer(t, Options{Store: tailStoreOpts(dir)})
	st := srv.Store()
	a := st.Create("a", engine.New(nil)).ID
	applyJournaled(t, st, a, sheetBatch(16))
	evictNow(t, st, a) // a full base
	b := st.Create("b", engine.New(nil)).ID
	evictNow(t, st, b)
	applyJournaled(t, st, a, valueEdit("A1", 41))
	if err := os.Remove(st.journalPath(a)); err != nil {
		t.Fatal(err)
	}
	sa := mustPeek(t, st, a)
	snap, rev := snapState(sa)
	if rev != snap+1 {
		t.Fatalf("parent at rev %d over base %d, want one rev past its base", rev, snap)
	}

	for _, c := range []struct {
		id        string
		from, rev uint64
	}{{b, 0, 0}, {a, snap, rev}} {
		if _, err := os.Stat(st.journalPath(c.id)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("session %s has a journal file (%v)", c.id, err)
		}
		resp := getJournal(srv, c.id, c.from)
		if resp.Code != http.StatusOK || !bytes.Equal(resp.Body.Bytes(), journal.JournalMagic) {
			t.Fatalf("journal of %s from %d = HTTP %d %q, want 200 and the magic alone", c.id, c.from, resp.Code, resp.Body.Bytes())
		}
		if got := resp.Header().Get("X-Journal-Head"); got != fmt.Sprint(c.rev) {
			t.Fatalf("journal of %s: X-Journal-Head %q, want %d", c.id, got, c.rev)
		}
	}

	spilled := mSpillBytes.Value()
	child, err := st.Fork(a, "no-journal")
	if err != nil {
		t.Fatal(err)
	}
	if mSpillBytes.Value() == spilled {
		t.Fatal("fork of a parent past its base with no journal wrote no base")
	}
	if _, err := os.Stat(st.journalPath(child.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("fork over a base copied a journal (%v)", err)
	}
	err = st.View(child.ID, func(_ *Session, eng *engine.Engine) error {
		if v := eng.Value(ref.Ref{Col: 1, Row: 1}); v.Num != 41 {
			t.Fatalf("child A1 = %v, want the parent's 41", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForkCopiesTheShippedTail: a fork and the replication endpoint read a
// session's tail through one function, so the child's journal is byte for
// byte the endpoint's body from the base. Once a shipped gap leaves a hole
// in a durable standby's journal, neither ships the records past it: the
// endpoint answers 409, so a replicator following it re-bases from the
// snapshot, and a fork writes a base instead of copying a tail that is not
// a run. (A failed local append leaves no hole: it degrades the standby's
// session, TestStandbyFailedAppendDegrades.)
func TestForkCopiesTheShippedTail(t *testing.T) {
	dir := t.TempDir()
	srv, tc := newTestServer(t, Options{Store: tailStoreOpts(dir)})
	st := srv.Store()
	eng := engine.New(nil)
	eng.SetValue(ref.Ref{Col: 1, Row: 1}, formula.Num(1))
	if _, err := st.CreateReplica("replica", "r", eng, 5); err != nil {
		t.Fatal(err)
	}
	apply := func(rev uint64, v float64) {
		t.Helper()
		if err := st.ApplyReplicated("replica", rev, encodeEditOps(valueEdit("A1", v))); err != nil {
			t.Fatal(err)
		}
	}
	apply(6, 60)
	apply(7, 70)

	child, err := st.Fork("replica", "copy")
	if err != nil {
		t.Fatal(err)
	}
	copied, err := os.ReadFile(st.journalPath(child.ID))
	if err != nil {
		t.Fatalf("fork copied no tail: %v", err)
	}
	resp := getJournal(srv, "replica", 5)
	if resp.Code != http.StatusOK || !bytes.Equal(copied, resp.Body.Bytes()) {
		t.Fatalf("fork copied %q, endpoint shipped HTTP %d %q", copied, resp.Code, resp.Body.Bytes())
	}
	if got := shippedRevs(t, copied); !reflect.DeepEqual(got, []uint64{6, 7}) {
		t.Fatalf("copied tail revs %v, want [6 7]", got)
	}

	apply(9, 90) // rev 8 never ships
	for _, from := range []uint64{5, 7} {
		resp = getJournal(srv, "replica", from)
		if resp.Code != http.StatusConflict || resp.Header().Get("X-Snapshot-Rev") == "" {
			t.Fatalf("endpoint over a hole from rev %d answered HTTP %d %q, want 409 with X-Snapshot-Rev",
				from, resp.Code, resp.Body.Bytes())
		}
	}

	// A follower at rev 7 re-bases from the snapshot instead of applying rev 9
	// over the missing rev 8.
	follower, err := NewStore(StoreOptions{RecalcWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	at7 := engine.New(nil)
	at7.SetValue(ref.Ref{Col: 1, Row: 1}, formula.Num(70))
	if _, err := follower.CreateReplica("replica", "r", at7, 7); err != nil {
		t.Fatal(err)
	}
	applied, bootstraps := mReplApplied.Value(), mReplSnapshots.Value()
	rp := NewReplicator(follower, StandbyOptions{PrimaryURL: tc.base})
	if rev, err := rp.syncSession(&replSession{ID: "replica", Name: "r", Rev: 9}); err != nil || rev != 9 {
		t.Fatalf("follower sync = rev %d, %v; want rev 9", rev, err)
	}
	if d, b := mReplApplied.Value()-applied, mReplSnapshots.Value()-bootstraps; d != 0 || b != 1 {
		t.Fatalf("follower applied %d shipped records and re-based %d times, want 0 and 1", d, b)
	}

	spilled := mSpillBytes.Value()
	child, err = st.Fork("replica", "based")
	if err != nil {
		t.Fatal(err)
	}
	if mSpillBytes.Value() == spilled {
		t.Fatal("fork copied a journal with a hole: no base written")
	}
	if _, err := os.Stat(st.journalPath(child.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("fork over a base copied a journal (%v)", err)
	}
	err = st.View(child.ID, func(s *Session, eng *engine.Engine) error {
		if v := eng.Value(ref.Ref{Col: 1, Row: 1}); v.Num != 90 || s.rev != 9 {
			t.Fatalf("child A1 = %v at rev %d, want 90 at rev 9", v, s.rev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
