// Package journal implements the serving layer's crash-safety primitives:
// an append-only record log with per-record CRC32C trailers (the per-session
// edit journal) and, on the same format, a log-structured session registry
// (registry.go). Together they make a hosted session `snapshot + journal
// replay`: every accepted edit batch is appended here before the response
// commits, so a crashed server replays the tail of each journal on top of
// the session's last snapshot and loses nothing.
//
// Log format:
//
//	magic (6 bytes) | record | record | ...
//	record = uvarint(len(body)) | body | crc32c(body) little-endian
//	body   = uvarint(rev) | payload
//
// rev is the session revision the record produced (registry logs reuse the
// field as an opcode). Decoding is valid-prefix: a scan stops at the first
// record whose length, checksum, or header fails — a torn tail from a crash
// mid-append is silently dropped, never an error — and Open truncates the
// file back to that valid prefix before appending. Records are written with
// a single write(2), so anything short of a power failure (SIGKILL included)
// leaves at worst one torn record at the tail.
//
// Durability is policy-driven. write(2) already survives process death; the
// fsync policy buys power-loss durability at three price points: SyncAlways
// fsyncs before each Sync() returns (group commit: concurrent committers
// share one fsync), SyncInterval (the default) lets a background Syncer
// fsync dirty logs on a short ticker, and SyncNever leaves write-back
// entirely to the kernel.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"taco/internal/faultfs"
)

// Magic values identifying the two log kinds. Same length by design: the
// scanner slices its header buffer by the magic it is given.
var (
	JournalMagic  = []byte("TACOJ1")
	RegistryMagic = []byte("TACOR1")
)

// MaxRecordBytes bounds one record's body — comfortably above the server's
// largest accepted edit batch, and small enough that a corrupt length prefix
// can never provoke a huge allocation.
const MaxRecordBytes = 64 << 20

// crcTable is CRC32-Castagnoli, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed Writer.
var ErrClosed = errors.New("journal: writer closed")

// ErrTorn poisons a writer whose failed append could not be wound back to
// the last record boundary: the file may end mid-record, so further appends
// would be invisible to every valid-prefix scan (recovery, replication,
// forks) while looking accepted to callers. Append and Sync return it until
// Reset truncates the file to its header, which the caller does once a
// snapshot holds every record; the file is never repaired in place.
var ErrTorn = errors.New("journal: writer torn, reset required")

// Policy selects when appended records are fsynced.
type Policy int8

const (
	// SyncInterval (the default) marks the log dirty on append and lets the
	// store's Syncer fsync it on a short ticker: a crash loses nothing, a
	// power failure loses at most one interval of acknowledged edits.
	SyncInterval Policy = iota
	// SyncAlways fsyncs before every Sync() returns, with group commit:
	// committers that race share one fsync instead of queueing their own.
	SyncAlways
	// SyncNever performs no fsyncs at all; the kernel writes back when it
	// pleases. Process crashes still lose nothing (records reach the page
	// cache synchronously); only power loss can.
	SyncNever
)

// ParsePolicy maps the flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Writer appends records to one log file. Appends serialise on an internal
// mutex and issue exactly one write(2) each; Sync applies the policy's
// durability barrier. Safe for concurrent use.
type Writer struct {
	mu      sync.Mutex
	f       *faultfs.File
	path    string
	magic   []byte
	pol     Policy
	sy      *Syncer
	head    uint64 // rev of the last valid record
	size    int64  // length of the valid prefix (== file size between appends)
	scratch []byte // record encode buffer, reused under mu
	poison  error  // ErrTorn, or a failed fsync: returned by Append and Sync until Reset

	// Group-commit state (SyncAlways): seq counts appends, synced the highest
	// seq a completed fsync covered. A committer whose appends are already
	// covered returns without touching the disk; otherwise one committer
	// fsyncs while the rest wait on cond, and the fsync covers every append
	// that happened before it started.
	seq     uint64
	synced  uint64
	syncing bool
	cond    *sync.Cond
}

// Open opens (creating if needed) the log at path, validates its prefix, and
// positions the writer after the last valid record. A torn or corrupt tail —
// the expected state after a crash mid-append — is truncated away; a file
// whose header is unrecognisable is reinitialised empty. sy may be nil (no
// background syncing; relevant only under SyncInterval).
func Open(path string, magic []byte, pol Policy, sy *Syncer) (*Writer, error) {
	head, valid, err := ScanFile(path, magic, nil)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	f, err := faultfs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if valid == 0 {
		// Fresh file, or one whose magic never made it to disk: write a
		// clean header.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt(magic, 0)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		valid = int64(len(magic))
	} else if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		// Torn tail from a crash mid-append: wind back to the valid prefix.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, err
		}
		mTruncations.Inc()
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{f: f, path: path, magic: magic, pol: pol, sy: sy, head: head, size: valid}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// Head returns the rev of the last appended (or recovered) record; 0 when
// the log is empty.
func (w *Writer) Head() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.head
}

// Size returns the byte length of the log's valid prefix (header included).
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Append encodes and appends one record in a single write(2). The record is
// process-crash durable when Append returns; call Sync for the policy's
// power-loss barrier. On a write error the file is wound back to the prior
// valid prefix so a partial record never lingers at the tail (an ENOSPC
// mid-record leaves the journal scan-valid for every reader); if even the
// wind-back fails the writer poisons itself with ErrTorn rather than let
// later appends land beyond an undecodable gap. A poisoned writer — torn, or
// after a failed fsync — refuses every append until Reset.
func (w *Writer) Append(rev uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if w.poison != nil {
		return w.poison
	}
	w.scratch = AppendRecord(w.scratch[:0], rev, payload)
	if _, err := w.f.Write(w.scratch); err != nil {
		mAppendErrors.Inc()
		// A short write may have torn the tail; restore the invariant that
		// the file holds exactly the valid prefix. If the truncate or seek
		// itself fails the invariant is gone: poison the writer so nothing
		// appends past the tear.
		if terr := w.f.Truncate(w.size); terr != nil {
			return w.poisonLocked(fmt.Errorf("%w: %w (append: %w)", ErrTorn, terr, err))
		}
		if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
			return w.poisonLocked(fmt.Errorf("%w: %w (append: %w)", ErrTorn, serr, err))
		}
		return err
	}
	w.size += int64(len(w.scratch))
	w.head = rev
	w.seq++
	mAppends.Inc()
	mAppendBytes.Add(uint64(len(w.scratch)))
	if w.pol == SyncInterval && w.sy != nil {
		w.sy.note(w)
	}
	return nil
}

// poisonLocked records the first error that leaves the file untrustworthy
// and returns it. A failed fsync counts: the kernel may have dropped the
// dirty pages it failed to write, so a later fsync that succeeds proves
// nothing about the records before it. Called with w.mu held.
func (w *Writer) poisonLocked(err error) error {
	if w.poison == nil {
		w.poison = err
		mTornWriters.Inc()
	}
	return w.poison
}

// Err returns the error poisoning the writer, or nil while it accepts
// appends.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.poison
}

// Sync is the durability barrier: under SyncAlways it returns only after an
// fsync covering every prior Append has completed (group commit — racing
// committers share one fsync); under SyncInterval and SyncNever it is a
// no-op, those policies never block the commit path on the disk.
func (w *Writer) Sync() error {
	if w.pol != SyncAlways {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	target := w.seq
	for w.synced < target && w.syncing {
		w.cond.Wait()
	}
	if w.synced >= target {
		return nil // a racing committer's fsync covered us
	}
	if w.f == nil {
		return ErrClosed
	}
	if w.poison != nil {
		return w.poison // the committer's fsync failed, or the file is torn
	}
	cover := w.seq
	w.syncing = true
	f := w.f
	w.mu.Unlock()
	err := f.Sync()
	w.mu.Lock()
	w.syncing = false
	if err == nil {
		mFsyncs.Inc()
		if cover > w.synced {
			w.synced = cover
		}
	} else {
		err = w.poisonLocked(fmt.Errorf("journal: fsync: %w", err))
	}
	w.cond.Broadcast()
	return err
}

// backgroundSync is the Syncer's flush of one dirty log. The fsync runs
// outside the writer mutex so it never stalls the append path; a failure
// poisons the writer, so the log's next Append reports it.
func (w *Writer) backgroundSync() {
	w.mu.Lock()
	f := w.f
	w.mu.Unlock()
	if f == nil {
		return
	}
	err := f.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.poisonLocked(fmt.Errorf("journal: background fsync: %w", err))
		return
	}
	mFsyncs.Inc()
}

// Reset truncates the log back to its header: the snapshot the caller just
// wrote has superseded every record. The head rev resets to 0, and a
// poisoned writer is re-armed: a file cut back to its header ends on a
// record boundary, and none of its records is needed any more. A failed
// seek after the cut poisons the writer, since its offset no longer
// matches the file.
func (w *Writer) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if err := w.f.Truncate(int64(len(w.magic))); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(len(w.magic)), io.SeekStart); err != nil {
		return w.poisonLocked(fmt.Errorf("%w: %w (reset)", ErrTorn, err))
	}
	w.size, w.head, w.poison = int64(len(w.magic)), 0, nil
	mTruncations.Inc()
	return nil
}

// Close flushes (per policy) and closes the log. Further operations return
// ErrClosed. Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	f := w.f
	w.f = nil
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	if w.sy != nil {
		w.sy.forget(w)
	}
	var err error
	if w.pol != SyncNever {
		if err = f.Sync(); err == nil {
			mFsyncs.Inc()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// AppendRecord encodes one record — `uvarint(len) | body | crc32c(body)` with
// body = `uvarint(rev) | payload` — onto dst. It is the only encoder of the
// on-disk framing: Writer.Append, the registry, and callers that assemble a
// log in memory (replication streams, fork tail copies) all go through it.
func AppendRecord(dst []byte, rev uint64, payload []byte) []byte {
	var rb [binary.MaxVarintLen64]byte
	rn := binary.PutUvarint(rb[:], rev)
	var lb [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(lb[:], uint64(rn+len(payload)))
	dst = append(dst, lb[:ln]...)
	body := len(dst)
	dst = append(dst, rb[:rn]...)
	dst = append(dst, payload...)
	var cb [4]byte
	binary.LittleEndian.PutUint32(cb[:], crc32.Checksum(dst[body:], crcTable))
	return append(dst, cb[:]...)
}

// readers recycles 64 KiB read buffers: Scan's, since every restore's
// replay, replication poll and fork tail copy scans a log, and the server's
// base restores'. Each would otherwise allocate a fresh buffer for the GC
// to reclaim. A pooled reader holds no source, so it pins no file.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// GetReader returns a pooled 64 KiB reader over r. Hand it back with
// PutReader once done.
func GetReader(r io.Reader) *bufio.Reader {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader drops br's source and returns it to the pool.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}

// Scan decodes the valid prefix of a log, invoking fn (when non-nil) per
// record with the rev and payload. It is the only decoder of the framing:
// recovery, the registry, replication and fork tail copies all read
// through it. The payload slice is reused between records. It returns the
// rev of the last valid record and the byte length of the valid prefix. A
// torn, truncated, or bit-flipped tail stops the scan cleanly — never a
// panic, never an error — because that is the normal post-crash state;
// only fn's own error propagates. An unreadable or absent magic yields
// (0, 0, nil): nothing valid, caller reinitialises.
func Scan(r io.Reader, magic []byte, fn func(rev uint64, payload []byte) error) (head uint64, valid int64, err error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = GetReader(r)
		defer PutReader(br)
	}
	if m, err := br.Peek(len(magic)); err != nil || !bytes.Equal(m, magic) {
		return 0, 0, nil
	}
	br.Discard(len(magic)) // cannot fail: Peek buffered these bytes
	valid = int64(len(magic))
	var body []byte // a record's body and its CRC, read in one piece
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n == 0 || n > MaxRecordBytes {
			return head, valid, nil
		}
		if uint64(cap(body)) < n+4 {
			body = make([]byte, n+4)
		}
		body = body[:n+4]
		if _, err := io.ReadFull(br, body); err != nil {
			return head, valid, nil
		}
		sum := binary.LittleEndian.Uint32(body[n:])
		body = body[:n]
		if crc32.Checksum(body, crcTable) != sum {
			return head, valid, nil
		}
		rev, rn := binary.Uvarint(body)
		if rn <= 0 {
			return head, valid, nil
		}
		if fn != nil {
			if err := fn(rev, body[rn:]); err != nil {
				return head, valid, err
			}
		}
		head = rev
		valid += int64(uvarintLen(n)) + int64(n) + 4
	}
}

// ScanFile is Scan over the file at path. A missing file surfaces as
// os.ErrNotExist so callers can treat it as an empty log.
func ScanFile(path string, magic []byte, fn func(rev uint64, payload []byte) error) (head uint64, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return Scan(f, magic, fn)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Syncer is the background fsync ticker shared by every log of a store under
// SyncInterval: appends mark their writer dirty, and each tick flushes the
// dirty set. One goroutine per store, however many sessions are journaling.
type Syncer struct {
	mu    sync.Mutex
	dirty map[*Writer]struct{}
	quit  chan struct{}
	done  chan struct{}
}

// NewSyncer starts a syncer flushing dirty logs every interval.
func NewSyncer(interval time.Duration) *Syncer {
	sy := &Syncer{
		dirty: make(map[*Writer]struct{}),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(sy.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sy.flush()
			case <-sy.quit:
				sy.flush() // final pass so Close leaves nothing unsynced
				return
			}
		}
	}()
	return sy
}

func (sy *Syncer) flush() {
	sy.mu.Lock()
	batch := make([]*Writer, 0, len(sy.dirty))
	for w := range sy.dirty {
		batch = append(batch, w)
	}
	clear(sy.dirty)
	sy.mu.Unlock()
	if len(batch) > 1 {
		// Every log a store syncs lives in one spill directory: one
		// syncfs(2) is a single disk barrier covering the whole dirty set,
		// instead of a per-file fsync parade stalling concurrent appends on
		// inode locks. It bypasses the File wrapper, so the fault plan is
		// consulted per log: a log with an injected fsync fault takes it as
		// its own fsync's failure.
		var f *faultfs.File
		for _, w := range batch {
			w.mu.Lock()
			if w.f != nil {
				if err := faultfs.Check(faultfs.OpSync, w.path); err != nil {
					w.poisonLocked(fmt.Errorf("journal: background fsync: %w", err))
				} else if f == nil {
					f = w.f
				}
			}
			w.mu.Unlock()
		}
		if f != nil && syncFS(f.File) {
			mFsyncs.Inc()
			return
		}
	}
	for _, w := range batch {
		w.backgroundSync()
	}
}

func (sy *Syncer) note(w *Writer) {
	sy.mu.Lock()
	sy.dirty[w] = struct{}{}
	sy.mu.Unlock()
}

func (sy *Syncer) forget(w *Writer) {
	sy.mu.Lock()
	delete(sy.dirty, w)
	sy.mu.Unlock()
}

// Close stops the ticker after one final flush of the dirty set.
func (sy *Syncer) Close() {
	close(sy.quit)
	<-sy.done
}
