package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type rec struct {
	rev     uint64
	payload string
}

func scanAll(t *testing.T, path string) (recs []rec, head uint64, valid int64) {
	t.Helper()
	head, valid, err := ScanFile(path, JournalMagic, func(rev uint64, payload []byte) error {
		recs = append(recs, rec{rev, string(payload)})
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return recs, head, valid
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{{1, "alpha"}, {2, ""}, {7, "gamma-gamma"}}
	for _, r := range want {
		if err := w.Append(r.rev, []byte(r.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Head(); got != 7 {
		t.Fatalf("head = %d, want 7", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, head, _ := scanAll(t, path)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	if head != 7 {
		t.Fatalf("scan head = %d, want 7", head)
	}

	// Reopen resumes at the recovered head.
	w, err = Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Head(); got != 7 {
		t.Fatalf("reopened head = %d, want 7", got)
	}
	if err := w.Append(8, []byte("delta")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = scanAll(t, path)
	if len(got) != 4 || got[3] != (rec{8, "delta"}) {
		t.Fatalf("after reopen+append: %v", got)
	}
}

func TestJournalTornTailTruncatedAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := w.Append(i, []byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Tear the tail mid-record, as a crash mid-append would.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	recs, head, valid := scanAll(t, path)
	if len(recs) != 2 || head != 2 {
		t.Fatalf("after tear: recs=%v head=%d", recs, head)
	}
	// Open truncates the torn bytes and appends cleanly after them.
	w, err = Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != valid {
		t.Fatalf("open left size=%v err=%v, want %d", fi.Size(), err, valid)
	}
	if err := w.Append(3, []byte("replacement")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, head, _ = scanAll(t, path)
	if len(recs) != 3 || head != 3 || recs[2].payload != "replacement" {
		t.Fatalf("after repair: recs=%v head=%d", recs, head)
	}
}

func TestJournalBitFlipStopsAtLastValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("first-record")); err != nil {
		t.Fatal(err)
	}
	mid, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, []byte("second-record")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[mid.Size()+3] ^= 0x40 // corrupt the second record's body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, head, _ := scanAll(t, path)
	if len(recs) != 1 || head != 1 {
		t.Fatalf("after flip: recs=%v head=%d", recs, head)
	}
}

func TestJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := uint64(1); i <= 4; i++ {
		if err := w.Append(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := w.Head(); got != 0 {
		t.Fatalf("head after reset = %d", got)
	}
	if err := w.Append(5, []byte("post-reset")); err != nil {
		t.Fatal(err)
	}
	recs, head, _ := scanAll(t, path)
	if len(recs) != 1 || head != 5 || recs[0].payload != "post-reset" {
		t.Fatalf("after reset: recs=%v head=%d", recs, head)
	}
}

func TestJournalGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			if err := w.Append(uint64(i+1), []byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Error(err)
				return
			}
			if err := w.Sync(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	recs, _, _ := scanAll(t, path)
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
}

func TestRegistryRoundTripAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.tacor")
	r, err := OpenRegistry(path, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Entry{ID: "aaa", Name: "first", SnapRev: 3, SnapHeld: true}); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Entry{ID: "bbb", Name: "second"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Entry{ID: "ccc", SnapRev: 9, SnapHeld: true}); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("bbb"); err != nil {
		t.Fatal(err)
	}
	// Churn one entry enough to cross the compaction threshold.
	for i := 0; i < 1500; i++ {
		if err := r.Put(Entry{ID: "aaa", Name: "first", SnapRev: uint64(i), SnapHeld: true}); err != nil {
			t.Fatal(err)
		}
	}
	if r.appends >= 1024 {
		t.Fatalf("expected a compaction to have reset the log: appends=%d live=%d", r.appends, r.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenRegistry(path, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got := map[string]Entry{}
	for _, e := range r2.Entries() {
		got[e.ID] = e
	}
	want := map[string]Entry{
		"aaa": {ID: "aaa", Name: "first", SnapRev: 1499, SnapHeld: true},
		"ccc": {ID: "ccc", SnapRev: 9, SnapHeld: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded registry = %v, want %v", got, want)
	}
}

// TestRegistryBaseExtensionCompat pins the shared-base extension's
// compatibility contract: an own-base entry encodes byte-identically to the
// pre-extension format (so a registry written before the extension existed —
// simulated by those identical bytes — opens warm here), a shared-base entry
// round-trips through close/reopen, and a hand-built record from the
// delta-chain build (non-zero link count) fails OpenRegistry with
// ErrLegacyChain instead of being misread as chain-free.
func TestRegistryBaseExtensionCompat(t *testing.T) {
	// Byte-identity with the pre-extension layout: ID, Name, uvarint
	// SnapRev, held byte — and nothing after.
	plain := Entry{ID: "aaa", Name: "old", SnapRev: 300, SnapHeld: true}
	var want []byte
	want = appendString(want, plain.ID)
	want = appendString(want, plain.Name)
	var vb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(vb[:], plain.SnapRev)
	want = append(want, vb[:n]...)
	want = append(want, 1)
	if got := appendEntry(nil, plain); !bytes.Equal(got, want) {
		t.Fatalf("own-base entry encoding diverged from the pre-extension format:\ngot  %x\nwant %x", got, want)
	}

	path := filepath.Join(t.TempDir(), "sessions.tacor")
	r, err := OpenRegistry(path, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(plain); err != nil {
		t.Fatal(err)
	}
	forked := Entry{ID: "bbb", Name: "forked", SnapRev: 7, SnapHeld: true, BaseID: "aaa"}
	if err := r.Put(forked); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenRegistry(path, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Entry{}
	for _, e := range r2.Entries() {
		got[e.ID] = e
	}
	if !reflect.DeepEqual(got["aaa"], plain) {
		t.Fatalf("pre-extension entry = %+v, want %+v", got["aaa"], plain)
	}
	if !reflect.DeepEqual(got["bbb"], forked) {
		t.Fatalf("shared-base entry = %+v, want %+v", got["bbb"], forked)
	}
	r2.Close()

	// The delta-chain build's layout: BaseID, BaseRev, link count, links.
	legacy := appendString(nil, "ccc")
	legacy = appendString(legacy, "chained")
	legacy = append(legacy, 7, 1) // SnapRev 7, held
	legacy = appendString(legacy, "aaa")
	legacy = append(legacy, 3, 1) // BaseRev 3, one link
	legacy = appendString(legacy, "ccc")
	legacy = append(legacy, 7) // link rev
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(AppendRecord(nil, regOpPut, legacy)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenRegistry(path, SyncNever, nil); !errors.Is(err, ErrLegacyChain) {
		t.Fatalf("registry with a chained entry: err = %v, want ErrLegacyChain", err)
	}
}

func TestRegistryTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.tacor")
	r, err := OpenRegistry(path, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Put(Entry{ID: "keep", SnapRev: 1, SnapHeld: true})
	r.Put(Entry{ID: "torn", SnapRev: 2, SnapHeld: true})
	r.Close()
	fi, _ := os.Stat(path)
	os.Truncate(path, fi.Size()-3)
	r2, err := OpenRegistry(path, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 1 || r2.Entries()[0].ID != "keep" {
		t.Fatalf("after tear: %v", r2.Entries())
	}
}

// FuzzJournalDecode asserts the scanner's contract on arbitrary bytes: it
// never panics, stops at the last valid record, and reports a valid prefix
// that rescans to the identical record sequence.
func FuzzJournalDecode(f *testing.F) {
	var seed []byte
	seed = append(seed, JournalMagic...)
	seed = AppendRecord(seed, 1, []byte("hello"))
	seed = AppendRecord(seed, 2, []byte(""))
	seed = AppendRecord(seed, 3, bytes.Repeat([]byte{0xAB}, 300))
	f.Add(seed)
	f.Add(seed[:len(seed)-2])      // torn tail
	f.Add([]byte("TACOJ1"))        // empty log
	f.Add([]byte("TACOX9garbage")) // wrong magic
	f.Add(bytes.Repeat(seed, 3))   // magic bytes inside record data
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []rec
		head, valid, err := Scan(bytes.NewReader(data), JournalMagic, func(rev uint64, payload []byte) error {
			recs = append(recs, rec{rev, string(payload)})
			return nil
		})
		if err != nil {
			t.Fatalf("scan returned error on arbitrary input: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		if len(recs) > 0 && recs[len(recs)-1].rev != head {
			t.Fatalf("head %d != last record rev %d", head, recs[len(recs)-1].rev)
		}
		// The reported prefix must rescan to the same records: that is what
		// Open keeps after truncating a torn tail.
		var recs2 []rec
		head2, valid2, _ := Scan(bytes.NewReader(data[:valid]), JournalMagic, func(rev uint64, payload []byte) error {
			recs2 = append(recs2, rec{rev, string(payload)})
			return nil
		})
		if head2 != head || valid2 != valid || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("rescan of valid prefix diverged: (%d,%d,%v) vs (%d,%d,%v)",
				head, valid, recs, head2, valid2, recs2)
		}
	})
}

// TestScanPoolsItsReader: a scan over a reader that is not a *bufio.Reader
// borrows its 64 KiB buffer from the pool, so it allocates only the record
// body it decodes into.
func TestScanPoolsItsReader(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	log := append([]byte(nil), JournalMagic...)
	for rev := uint64(1); rev <= 8; rev++ {
		log = AppendRecord(log, rev, []byte("payload"))
	}
	rd := bytes.NewReader(log)
	count := func(uint64, []byte) error { return nil }
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(log)
		if head, _, err := Scan(rd, JournalMagic, count); err != nil || head != 8 {
			t.Fatalf("scan: head %d, err %v", head, err)
		}
	})
	if allocs > 1 {
		t.Errorf("Scan allocates %.0f times a call, want at most 1 (the record body)", allocs)
	}
}
