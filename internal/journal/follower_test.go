package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"taco/internal/faultfs"
)

// collect drains a poll into (rev, payload-string) pairs.
func collect(t *testing.T, fl *Follower) []string {
	t.Helper()
	var got []string
	n, err := fl.Poll(func(rev uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", rev, payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if n != len(got) {
		t.Fatalf("Poll reported %d, delivered %d", n, len(got))
	}
	return got
}

func TestFollowerTailsLiveWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fl := NewFollower(path, JournalMagic, 0)
	if got := collect(t, fl); len(got) != 0 {
		t.Fatalf("empty journal delivered %v", got)
	}

	for rev := uint64(1); rev <= 3; rev++ {
		if err := w.Append(rev, []byte(fmt.Sprintf("e%d", rev))); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, fl)
	want := []string{"1:e1", "2:e2", "3:e3"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("first poll = %v, want %v", got, want)
		}
	}
	// Nothing new: empty poll, cursor holds.
	if got := collect(t, fl); len(got) != 0 {
		t.Fatalf("idle poll delivered %v", got)
	}
	// New appends resume mid-file.
	if err := w.Append(4, []byte("e4")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, fl); len(got) != 1 || got[0] != "4:e4" {
		t.Fatalf("resume poll = %v", got)
	}
	if fl.Cursor() != 4 {
		t.Fatalf("cursor = %d", fl.Cursor())
	}
}

func TestFollowerMissingFileAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.tacoj")
	fl := NewFollower(path, JournalMagic, 0)
	if got := collect(t, fl); len(got) != 0 {
		t.Fatalf("missing file delivered %v", got)
	}

	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer mid-append: a torn half-record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := AppendRecord(nil, 2, []byte("torn-record"))
	if _, err := f.Write(full[:len(full)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if got := collect(t, fl); len(got) != 1 || got[0] != "1:good" {
		t.Fatalf("torn-tail poll = %v", got)
	}
	// Writer restarts (truncating the tear) and finishes the record.
	w, err = Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(2, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, fl); len(got) != 1 || got[0] != "2:whole" {
		t.Fatalf("post-tear poll = %v", got)
	}
}

func TestFollowerSurvivesCheckpointReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fl := NewFollower(path, JournalMagic, 0)
	if err := w.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, fl); len(got) != 2 {
		t.Fatalf("pre-reset poll = %v", got)
	}

	// Checkpoint: snapshot superseded the log, file shrinks to the header.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, fl); len(got) != 0 {
		t.Fatalf("post-reset poll delivered %v", got)
	}
	if err := w.Append(3, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, fl); len(got) != 1 || got[0] != "3:c" {
		t.Fatalf("post-reset append poll = %v", got)
	}
}

func TestFollowerResetAndRegrowPastOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fl := NewFollower(path, JournalMagic, 0)
	if err := w.Append(1, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, fl); len(got) != 1 {
		t.Fatalf("first poll = %v", got)
	}

	// Between polls: reset, then regrow LARGER than the follower's offset
	// with a record boundary that does not line up with it.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 256)
	for i := range big {
		big[i] = byte(i)
	}
	if err := w.Append(2, big); err != nil {
		t.Fatal(err)
	}
	got := collect(t, fl)
	if len(got) != 1 || got[0] != fmt.Sprintf("2:%s", big) {
		t.Fatalf("misaligned-regrow poll delivered %d records", len(got))
	}
}

func TestFollowerFromCursorSkipsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for rev := uint64(1); rev <= 5; rev++ {
		if err := w.Append(rev, []byte{byte(rev)}); err != nil {
			t.Fatal(err)
		}
	}
	fl := NewFollower(path, JournalMagic, 3)
	got := collect(t, fl)
	if len(got) != 2 || got[0] != "4:\x04" || got[1] != "5:\x05" || fl.Cursor() != 5 {
		t.Fatalf("from=3 poll = %q, cursor %d", got, fl.Cursor())
	}
}

func TestFollowerFnErrorResumesSameRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tacoj")
	w, err := Open(path, JournalMagic, SyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for rev := uint64(1); rev <= 3; rev++ {
		if err := w.Append(rev, []byte{'p', byte('0' + rev)}); err != nil {
			t.Fatal(err)
		}
	}
	fl := NewFollower(path, JournalMagic, 0)
	boom := errors.New("apply failed")
	n, err := fl.Poll(func(rev uint64, payload []byte) error {
		if rev == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("first poll = (%d, %v)", n, err)
	}
	// Retry resumes at rev 2, not after it.
	var revs []uint64
	if _, err := fl.Poll(func(rev uint64, payload []byte) error {
		revs = append(revs, rev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(revs) != 2 || revs[0] != 2 || revs[1] != 3 {
		t.Fatalf("retry delivered %v, want [2 3]", revs)
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

	// Repair: reopen revalidates, drops the torn bytes, re-arms.
	head, err := w.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if head != 1 {
		t.Fatalf("reopened head = %d, want 1", head)
	}
	if err := w.Append(2, []byte("retried")); err != nil {
		t.Fatalf("post-reopen append: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("post-reopen sync: %v", err)
	}

	// The journal must be scan-valid end to end: committed, then retried.
	var got []string
	head, _, err = ScanFile(path, JournalMagic, func(rev uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", rev, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if head != 2 || len(got) != 2 || got[0] != "1:committed" || got[1] != "2:retried" {
		t.Fatalf("post-repair scan = %v (head %d)", got, head)
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

func TestBackoff(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("Next #%d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("post-reset Next = %v", got)
	}
}
