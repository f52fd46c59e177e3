package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"taco/internal/faultfs"
)

// TestScanTailsLiveWriter: scans interleaved with a live writer's appends
// each read exactly the records appended so far — none on a fresh log —
// and the valid prefix they report is the writer's own size.
func TestScanTailsLiveWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if recs, head, _ := scanAll(t, path); len(recs) != 0 || head != 0 {
		t.Fatalf("empty journal scanned %v (head %d)", recs, head)
	}
	for rev := uint64(1); rev <= 3; rev++ {
		if err := w.Append(rev, []byte(fmt.Sprintf("e%d", rev))); err != nil {
			t.Fatal(err)
		}
	}
	want := []rec{{1, "e1"}, {2, "e2"}, {3, "e3"}}
	// A second scan with nothing appended in between reads the same.
	for range 2 {
		if recs, head, valid := scanAll(t, path); !reflect.DeepEqual(recs, want) || head != 3 || valid != w.Size() {
			t.Fatalf("scan = %v (head %d, valid %d), want %v (head 3, valid %d)", recs, head, valid, want, w.Size())
		}
	}
	if err := w.Append(4, []byte("e4")); err != nil {
		t.Fatal(err)
	}
	want = append(want, rec{4, "e4"})
	if recs, head, valid := scanAll(t, path); !reflect.DeepEqual(recs, want) || head != 4 || valid != w.Size() {
		t.Fatalf("scan after append = %v (head %d, valid %d), want %v (head 4, valid %d)", recs, head, valid, want, w.Size())
	}
}

func TestWriterTornPoisonAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(1, []byte("committed")); err != nil {
		t.Fatal(err)
	}

	// A short write tears the record AND the wind-back truncate fails: the
	// writer must poison itself rather than append past the tear.
	restore := faultfs.Inject(
		faultfs.Rule{Op: faultfs.OpWrite, Count: 1, Fault: faultfs.Fault{Err: syscall.ENOSPC, ShortBytes: 4}},
		faultfs.Rule{Op: faultfs.OpTruncate, Count: 1, Fault: faultfs.Fault{Err: syscall.EIO}},
	)
	defer restore()

	err = w.Append(2, []byte("doomed"))
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("append over failed wind-back: want ErrTorn, got %v", err)
	}
	if err := w.Append(3, []byte("after")); !errors.Is(err, ErrTorn) {
		t.Fatalf("poisoned append: want ErrTorn, got %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrTorn) {
		t.Fatalf("poisoned sync: want ErrTorn, got %v", err)
	}
	faultfs.Clear()

	// Re-arm: a base now holds record 1 (the caller's checkpoint), so Reset
	// cuts the file to its header, torn bytes and all, instead of trusting
	// what the failed write left.
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := w.Append(2, []byte("retried")); err != nil {
		t.Fatalf("post-reset append: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("post-reset sync: %v", err)
	}

	// The journal must be scan-valid end to end: the retried record alone.
	var got []string
	head, _, err := ScanFile(path, JournalMagic, func(rev uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", rev, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if head != 2 || len(got) != 1 || got[0] != "2:retried" {
		t.Fatalf("post-reset scan = %v (head %d)", got, head)
	}
}

// TestWriterFailedFsyncPoisons: a failed fsync may have dropped the dirty
// pages it could not write, so a later fsync that succeeds proves nothing.
// Under group commit the failure poisons the writer — the next Append and
// Sync return it, a one-shot fault or not — until Reset re-arms it.
func TestWriterFailedFsyncPoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	restore := faultfs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: 1, Fault: faultfs.Fault{Err: syscall.EIO}})
	defer restore()
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted sync: want EIO, got %v", err)
	}
	if err := w.Append(2, []byte("b")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after a failed fsync: want the fsync's EIO, got %v", err)
	}
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync after a failed fsync: want the fsync's EIO, got %v", err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(3, []byte("c")); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync after Reset: %v", err)
	}
}

// TestWriterFailedBackgroundFsyncPoisons: under the interval policy the
// Syncer's flush is the only fsync; its failure poisons the writer, so the
// log's next Append reports it instead of the error vanishing.
func TestWriterFailedBackgroundFsyncPoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	sy := NewSyncer(time.Hour) // flushed by hand below
	defer sy.Close()
	w, err := Open(path, JournalMagic, SyncInterval, sy)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	restore := faultfs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: 1, Fault: faultfs.Fault{Err: syscall.EIO}})
	defer restore()
	sy.flush()
	if err := w.Append(2, []byte("b")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after a failed background fsync: want EIO, got %v", err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(3, []byte("c")); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
}

// TestRegistryRewritesAPoisonedLog: the registry shares the journal's
// writer, so a torn append poisons it too. Once the fault clears, the next
// Put rewrites the live set to a fresh log (the registry's own base) and
// lands there; a reload sees every entry.
func TestRegistryRewritesAPoisonedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.tacor")
	r, err := OpenRegistry(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Put(Entry{ID: "a", Name: "x", SnapRev: 1}); err != nil {
		t.Fatal(err)
	}
	restore := faultfs.Inject(
		faultfs.Rule{Op: faultfs.OpWrite, PathContains: "sessions.tacor", Count: 1, Fault: faultfs.Fault{Err: syscall.ENOSPC, ShortBytes: 3}},
		faultfs.Rule{Op: faultfs.OpTruncate, PathContains: "sessions.tacor", Count: 1, Fault: faultfs.Fault{Err: syscall.EIO}},
	)
	if err := r.Put(Entry{ID: "b", Name: "y", SnapRev: 2}); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn registry append: want ErrTorn, got %v", err)
	}
	restore()
	if err := r.Put(Entry{ID: "b", Name: "y", SnapRev: 3}); err != nil {
		t.Fatalf("Put after the fault cleared: %v", err)
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync after the fault cleared: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenRegistry(path, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	found := map[string]uint64{}
	for _, e := range r2.Entries() {
		found[e.ID] = e.SnapRev
	}
	if !reflect.DeepEqual(found, map[string]uint64{"a": 1, "b": 3}) {
		t.Fatalf("reloaded registry = %v, want a:1 b:3", found)
	}
}

func TestWriterShortWriteStaysScanValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}

	// ENOSPC mid-record, but truncate-back succeeds: the append fails,
	// the writer stays usable, and the file holds exactly the valid prefix.
	defer faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpWrite, Count: 1,
		Fault: faultfs.Fault{Err: syscall.ENOSPC, ShortBytes: 2},
	})()

	if err := w.Append(2, []byte("fails")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if err := w.Append(2, []byte("retried")); err != nil {
		t.Fatalf("writer should not be poisoned after clean wind-back: %v", err)
	}
	var got []string
	head, _, err := ScanFile(path, JournalMagic, func(rev uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", rev, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if head != 2 || len(got) != 2 || got[1] != "2:retried" {
		t.Fatalf("scan after short write = %v (head %d)", got, head)
	}
}

func TestRegistryCompactionTornRenameKeepsOldLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sessions.tacor")
	r, err := OpenRegistry(path, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Arm a rename fault, then churn one entry until amplification triggers
	// a compaction — whose swap never lands.
	defer faultfs.Inject(faultfs.Rule{
		Op: faultfs.OpRename, PathContains: "sessions.tacor", Count: 1,
		Fault: faultfs.Fault{Err: syscall.EIO},
	})()
	var compErr error
	for i := 0; i < 1100 && compErr == nil; i++ {
		compErr = r.Put(Entry{ID: "churn", Name: "n", SnapRev: uint64(i)})
	}
	if compErr == nil {
		t.Fatal("compaction under torn rename should surface the error")
	}
	faultfs.Clear()

	if err := r.Put(Entry{ID: "live", Name: "keep", SnapRev: 7}); err != nil {
		t.Fatalf("registry unusable after failed compaction: %v", err)
	}

	// The registry must remain writable and the live set intact.
	if err := r.Put(Entry{ID: "live2", Name: "keep2", SnapRev: 8}); err != nil {
		t.Fatalf("registry unusable after failed compaction: %v", err)
	}
	found := map[string]Entry{}
	for _, e := range r.Entries() {
		found[e.ID] = e
	}
	if found["live"].SnapRev != 7 || found["live2"].SnapRev != 8 || found["churn"].Name != "n" {
		t.Fatalf("live set after failed compaction = %+v", found)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after failed compaction")
	}

	// Reload from disk: the surviving log must replay to the same set.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenRegistry(path, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	found = map[string]Entry{}
	for _, e := range r2.Entries() {
		found[e.ID] = e
	}
	if found["live"].SnapRev != 7 || found["live2"].SnapRev != 8 {
		t.Fatalf("reloaded live set = %+v", found)
	}
}
