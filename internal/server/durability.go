package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"taco/internal/engine"
	"taco/internal/faultfs"
	"taco/internal/formula"
	"taco/internal/journal"
)

// This file is the store's durability layer (StoreOptions.Durable): a
// session on disk is its base at the disk state's rev plus the journal
// records above it (lifecycle.go). Every accepted edit batch is appended to
// the journal before the response commits; every base write is a checkpoint
// that truncates it; a restarted store re-registers every registry entry as
// spilled. A restore — after an eviction or a restart alike — reads the base
// (integrity-checked, quarantined on corruption), replays the journal tail
// through the live edit path, and lets the normal drain reconverge values.
//
// Crash ordering. Journal records carry the post-batch revision and replay
// skips records at or below the base's revision, while every edit op is an
// absolute assignment — so replaying a suffix of batches that the base
// already contains is harmless. That idempotence is what makes each crash
// window safe: base rename before registry update (re-replays the tail),
// registry update before journal truncation (stale records are skipped),
// truncation last (nothing left to replay).
//
// Durability grades. Appends and snapshot renames are synchronous write(2)s,
// so SIGKILL loses nothing under any policy; the fsync policy only decides
// what a power failure can take: `always` fsyncs journals on every commit
// and snapshots before rename, `interval` (default) bounds loss to one
// background-sync tick, `never` leaves write-back to the kernel.

// registryFile is the session manifest's name inside SpillDir.
const registryFile = "sessions.tacor"

// journalSuffix names per-session edit journals, next to the .tacos spills.
const journalSuffix = ".tacoj"

// ErrSnapshotCorrupt marks a session whose base snapshot failed its integrity
// check at restore, or whose journal ends short of the session's revision.
// The file has been quarantined (renamed *.corrupt) and the session keeps
// failing with this error rather than serving bad data — one corrupt session
// never degrades the rest of the store.
var ErrSnapshotCorrupt = errors.New("server: session snapshot corrupt (quarantined)")

func (st *Store) journalPath(id string) string {
	return filepath.Join(st.opts.SpillDir, id+journalSuffix)
}

// syncFiles reports whether snapshot writes should fsync before rename:
// only under `fsync=always` — eviction-heavy workloads spill hundreds of
// times per second, and rename atomicity alone already survives anything
// short of power loss.
func (st *Store) syncFiles() bool {
	return st.opts.Durable && st.pol == journal.SyncAlways
}

// openDurability wires the durability layer into a new store: the fsync
// policy, the shared background syncer (interval policy only), and the
// session registry. Called from NewStore before any session exists.
func (st *Store) openDurability() error {
	pol, err := journal.ParsePolicy(st.opts.FsyncPolicy)
	if err != nil {
		return err
	}
	st.pol = pol
	if pol == journal.SyncInterval {
		st.syncer = journal.NewSyncer(st.opts.FsyncInterval)
	}
	st.reg, err = journal.OpenRegistry(filepath.Join(st.opts.SpillDir, registryFile), pol, st.syncer)
	if err != nil {
		if st.syncer != nil {
			st.syncer.Close()
		}
		return fmt.Errorf("server: open session registry: %w", err)
	}
	return nil
}

// bootRecover re-registers every session the registry knows about, as
// non-resident: restore stays lazy, exactly like a spilled session, so a
// warm boot costs one registry replay plus one journal header scan per
// session regardless of corpus size. A session's revision resumes at its
// journal head (every acknowledged batch), or its snapshot revision when
// the journal is empty or truncated away.
func (st *Store) bootRecover() {
	for _, e := range st.reg.Entries() {
		head, _, err := journal.ScanFile(st.journalPath(e.ID), journal.JournalMagic, nil)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			head = 0 // unreadable journal: serve the snapshot alone
		}
		s := &Session{ID: e.ID, Name: e.Name}
		s.bootRecover(e, head)
		// Every registry entry is a live referent of its frozen base; the
		// post-recovery orphan sweep relies on these counts being complete
		// before the store serves.
		if p := st.frozenBaseLocked(s); p != "" {
			st.incref(p)
		}
		_ = st.register(s) // cannot fail: the registry holds each ID once
		st.recovered.Add(1)
		mRecoveredSessions.Inc()
	}
}

// closeDurability flushes and closes every journal, the syncer, and the
// registry. Called once from Close after the drain workers have stopped.
func (st *Store) closeDurability() {
	st.Each(func(s *Session) bool {
		s.mu.Lock()
		if s.jw != nil {
			s.jw.Close()
			s.jw = nil
		}
		s.mu.Unlock()
		return true
	})
	if st.syncer != nil {
		st.syncer.Close()
	}
	st.reg.Close()
}

// sessionJournal lazily opens the session's journal writer. Called with
// s.mu held.
func (st *Store) sessionJournal(s *Session) (*journal.Writer, error) {
	if s.jw != nil {
		return s.jw, nil
	}
	w, err := journal.Open(st.journalPath(s.ID), journal.JournalMagic, st.pol, st.syncer)
	if err != nil {
		return nil, err
	}
	s.jw = w
	return w, nil
}

// writeFullLocked is the one base writer, the checkpoint. It publishes the
// resident engine's snapshot at s.rev as the session's own base file (pooled
// buffer, same-directory temp file + rename: no crash or restarted store ever
// sees a torn base) and, on a durable store, points the registry entry at it
// durably, releases the frozen base it supersedes, and only then truncates
// the journal — replay skips (or idempotently re-applies) records the base
// holds, so no crash window loses an acknowledged batch and a failed
// truncation only keeps stale records. An error leaves the disk state as it
// was: the registry never names a base that is not on disk. Called with s.mu
// held and the session resident.
func (st *Store) writeFullLocked(s *Session) error {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	buf.Reset()
	if err := s.eng.WriteSnapshot(buf); err != nil {
		return err
	}
	if err := writeFileAtomic(st.spillPath(s.ID), buf.Bytes(), st.syncFiles()); err != nil {
		return err
	}
	mSpillBytes.Add(uint64(buf.Len()))
	if !st.opts.Durable {
		s.checkpoint(int64(buf.Len()))
		return nil
	}
	if err := st.putEntries(journal.Entry{ID: s.ID, Name: s.Name, SnapRev: s.rev, SnapHeld: true}); err != nil {
		return err
	}
	journaled := s.jw != nil || s.disk.tailBytes > 0 // else the journal holds no records
	oldBase := st.frozenBaseLocked(s)
	s.checkpoint(int64(buf.Len()))
	if oldBase != "" {
		st.decref(oldBase)
	}
	if journaled {
		w, err := st.sessionJournal(s)
		if err == nil {
			err = w.Reset()
		}
		if err != nil {
			mDurabilityErrors.Inc()
		}
	}
	return nil
}

// putEntries writes registry entries and makes them durable.
func (st *Store) putEntries(es ...journal.Entry) error {
	var err error
	for _, e := range es {
		if err == nil {
			err = st.reg.Put(e)
		}
	}
	if err == nil {
		err = st.reg.Sync()
	}
	if err != nil {
		mDurabilityErrors.Inc()
	}
	return err
}

// restoreEngine rebuilds a non-resident session's engine: base snapshot
// first (integrity-checked; corruption quarantines the file and poisons the
// session with ErrSnapshotCorrupt), then the journal tail replayed through
// the live edit path. Replayed cells come back dirty and reconverge on the
// normal drain. Called with s.mu held.
func (st *Store) restoreEngine(s *Session) (*engine.Engine, error) {
	if s.res == quarantined {
		return nil, fmt.Errorf("%w: session %s", ErrSnapshotCorrupt, s.ID)
	}
	var eng *engine.Engine
	if s.disk.held {
		var err error
		path := st.baseFilePathLocked(s)
		eng, err = st.readSpill(path, s.graph)
		if err != nil {
			if errors.Is(err, engine.ErrSnapshotChecksum) || errors.Is(err, engine.ErrBadEngineSnapshot) {
				st.quarantine(s, path)
				return nil, fmt.Errorf("%w: session %s: %v", ErrSnapshotCorrupt, s.ID, err)
			}
			return nil, err
		}
	} else {
		// A session that never had a snapshot (created blank, then only
		// journaled edits): replay rebuilds it from an empty engine.
		eng = engine.New(nil)
	}
	if st.opts.Durable && s.rev > s.disk.rev {
		if err := st.replayJournal(s, eng); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// quarantine renames a corrupt file of the session aside (its base snapshot —
// own or frozen and shared — or its journal) and poisons the session so every
// subsequent touch fails the same way instead of retrying the decode.
// Sessions sharing a broken frozen base fail the same way at their own
// restore; sessions that don't reference the file are untouched.
func (st *Store) quarantine(s *Session, path string) {
	os.Rename(path, path+".corrupt")
	if s.health.broken != 0 {
		st.degradedCount.Add(-1)
	}
	s.quarantine()
	st.quarantined.Add(1)
	mQuarantined.Inc()
}

// valueOnly reports whether every op is a plain value assignment — the edit
// shape that leaves the formula graph as it is.
func valueOnly(edits []EditOp) bool {
	for _, op := range edits {
		if op.Value == nil {
			return false
		}
	}
	return true
}

// journalRecordBytes converts a journal's valid-prefix length to the framed
// size of the records it holds.
func journalRecordBytes(valid int64) int64 {
	return max(valid-int64(len(journal.JournalMagic)), 0)
}

// replayJournal applies the session's journal tail — records above the base
// revision — onto eng through the same parse/apply path as live edits, and
// recomputes the session's tail state from what it read. The replay must
// reach s.rev: the scanner's valid-prefix semantics stop silently at the
// first bad record, so a short replay IS the corruption signal (at boot rev
// was taken from the same valid prefix, so only a live store can see one) —
// the journal is quarantined and only this session poisoned. Called with
// s.mu held, eng not yet published.
func (st *Store) replayJournal(s *Session, eng *engine.Engine) error {
	start := time.Now()
	path := st.journalPath(s.ID)
	last := s.disk.rev
	replayed := 0
	k := tailValues
	_, valid, err := journal.ScanFile(path, journal.JournalMagic, func(rev uint64, payload []byte) error {
		if rev <= s.disk.rev {
			return nil // the base already contains this batch
		}
		edits, err := applyRecord(eng, payload)
		if err != nil {
			return fmt.Errorf("record rev %d: %w", rev, err)
		}
		switch {
		case rev != last+1:
			k = tailBroken
		case !valueOnly(edits):
			k = max(k, tailStructural)
		}
		last = rev
		replayed++
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		// A record with a valid checksum that fails to decode or re-parse is
		// a format bug or version skew, not disk corruption; fail the restore
		// loudly rather than serving a silently incomplete session.
		return fmt.Errorf("replay journal for session %s: %w", s.ID, err)
	}
	if last < s.rev {
		st.quarantine(s, path)
		return fmt.Errorf("%w: session %s: journal replays to rev %d, want %d",
			ErrSnapshotCorrupt, s.ID, last, s.rev)
	}
	s.replay(k, journalRecordBytes(valid))
	st.replayed.Add(uint64(replayed))
	mReplayRecords.Add(uint64(replayed))
	mReplayDuration.Observe(time.Since(start).Seconds())
	return nil
}

// applyRecord decodes one journal record's payload and applies it to eng
// through the live edit path, returning its edits: the one applier for a
// replayed tail and a shipped record alike.
func applyRecord(eng *engine.Engine, payload []byte) ([]EditOp, error) {
	edits, err := decodeEditOps(payload)
	if err != nil {
		return nil, err
	}
	ops, err := parseBatch(edits)
	if err != nil {
		return nil, err
	}
	applyBatch(eng, ops)
	return edits, nil
}

// journalTail reads the session's journal records with rev > from through
// journal.Scan and frames them as a journal file of their own: the magic,
// then each record through journal.AppendRecord. n counts them, and gapless
// reports whether their revs run from+1, from+2, … one by one. A missing
// journal is an empty tail. Valid-prefix reads are safe against the live
// writer, so no session lock is needed. It is what the replication endpoint
// ships and what a fork copies.
func (st *Store) journalTail(id string, from uint64) (tail []byte, n int, gapless bool, err error) {
	tail = append(tail, journal.JournalMagic...)
	gapless = true
	_, _, err = journal.ScanFile(st.journalPath(id), journal.JournalMagic, func(rev uint64, payload []byte) error {
		if rev > from {
			n++
			gapless = gapless && rev == from+uint64(n)
			tail = journal.AppendRecord(tail, rev, payload)
		}
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	return tail, n, gapless, err
}

// writeFileAtomic writes data via a same-directory temp file and rename, so
// no reader — concurrent or post-crash — can ever observe a torn file at
// the final path. With sync set, the file is fsynced before the rename and
// the directory after it (power-loss durability for the rename itself).
// File operations run through faultfs so tests can tear any step.
func writeFileAtomic(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	f, err := faultfs.CreateTemp(dir, ".spill-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = faultfs.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		if d, derr := os.Open(dir); derr == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Edit-batch journal codec
// ---------------------------------------------------------------------------

// Journal payload op kinds, mirroring EditOp's exactly-one-of shape.
const (
	journalOpValue = iota
	journalOpText
	journalOpFormula
	journalOpClear
)

// maxJournalCellRef bounds the cell-reference field on decode.
const maxJournalCellRef = 64

// encodeEditOps serialises a validated edit batch for the journal:
// uvarint(count), then per op the A1 cell reference, a kind byte, and the
// kind's payload (float64 bits little-endian, or a length-prefixed string).
// The batch has passed parseBatch, so every op has exactly one kind set.
func encodeEditOps(edits []EditOp) []byte {
	var vb [binary.MaxVarintLen64]byte
	putUvarint := func(dst []byte, v uint64) []byte {
		n := binary.PutUvarint(vb[:], v)
		return append(dst, vb[:n]...)
	}
	putString := func(dst []byte, s string) []byte {
		dst = putUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	}
	buf := putUvarint(nil, uint64(len(edits)))
	for _, op := range edits {
		buf = putString(buf, op.Cell)
		switch {
		case op.Value != nil:
			buf = append(buf, journalOpValue)
			var fb [8]byte
			binary.LittleEndian.PutUint64(fb[:], math.Float64bits(*op.Value))
			buf = append(buf, fb[:]...)
		case op.Text != nil:
			buf = append(buf, journalOpText)
			buf = putString(buf, *op.Text)
		case op.Formula != nil:
			buf = append(buf, journalOpFormula)
			buf = putString(buf, *op.Formula)
		default:
			buf = append(buf, journalOpClear)
		}
	}
	return buf
}

// decodeEditOps is encodeEditOps's inverse, with the same bounds the HTTP
// layer enforces so a journal can never smuggle in what a request couldn't.
func decodeEditOps(payload []byte) ([]EditOp, error) {
	bad := errors.New("server: malformed journal edit record")
	takeString := func(limit int) (string, error) {
		n, m := binary.Uvarint(payload)
		if m <= 0 || n > uint64(limit) || uint64(len(payload)-m) < n {
			return "", bad
		}
		s := string(payload[m : m+int(n)])
		payload = payload[m+int(n):]
		return s, nil
	}
	count, m := binary.Uvarint(payload)
	if m <= 0 || count > uint64(len(payload)) {
		return nil, bad
	}
	payload = payload[m:]
	edits := make([]EditOp, 0, count)
	for i := uint64(0); i < count; i++ {
		var op EditOp
		var err error
		if op.Cell, err = takeString(maxJournalCellRef); err != nil {
			return nil, err
		}
		if len(payload) == 0 {
			return nil, bad
		}
		kind := payload[0]
		payload = payload[1:]
		switch kind {
		case journalOpValue:
			if len(payload) < 8 {
				return nil, bad
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload))
			payload = payload[8:]
			op.Value = &v
		case journalOpText:
			s, err := takeString(formula.MaxTextBytes)
			if err != nil {
				return nil, err
			}
			op.Text = &s
		case journalOpFormula:
			s, err := takeString(formula.MaxTextBytes)
			if err != nil {
				return nil, err
			}
			op.Formula = &s
		case journalOpClear:
			op.Clear = true
		default:
			return nil, bad
		}
		edits = append(edits, op)
	}
	if len(payload) != 0 {
		return nil, bad
	}
	return edits, nil
}

// Durable reports whether the store journals edits (StoreOptions.Durable).
func (st *Store) Durable() bool { return st.opts.Durable }

// appendTailLocked journals the batch that produces rev and advances the
// session to it. A failed append, or a gap the caller reports, leaves a hole
// the journal-as-tail design must not trust: the tail breaks, so the next
// eviction writes a full base. Returns the writer to sync, nil on failure,
// on which the caller degrades the session. Called with s.mu held.
func (st *Store) appendTailLocked(s *Session, rev uint64, edits []EditOp, record []byte, gap bool) *journal.Writer {
	w, err := st.sessionJournal(s)
	if err == nil {
		err = w.Append(rev, record)
	}
	if err != nil {
		mDurabilityErrors.Inc()
		s.append(rev, tailBroken, 0)
		return nil
	}
	k := tailValues
	switch {
	case gap:
		k = tailBroken
	case !valueOnly(edits):
		k = tailStructural
	}
	s.append(rev, k, journalRecordBytes(w.Size()))
	return w
}

// UpdateJournaled is a write: fn applies edits (already validated by
// parseBatch) under the session write lock and the revision advances. On a
// durable store the batch is appended to the session's journal at the new
// revision before UpdateJournaled returns, and the policy's fsync barrier
// has run — the caller can acknowledge the batch knowing a crashed server
// will replay it. On a non-durable store, or with no edits (Update), the
// revision reaches no journal and only a base write covers it. Writes are
// fenced with ErrSessionDegraded while the session is degraded.
//
// A journal append failure degrades the session (degrade.go) instead of
// failing the request or silently dropping durability: the batch is applied
// and acknowledged (engine state must stay consistent with what readers
// already saw), and every subsequent write is fenced until the repairer
// lands a base holding it. A failed group-commit fsync under `always` both
// degrades and surfaces the error, since an fsynced acknowledgement is
// exactly the guarantee that policy sells.
func (st *Store) UpdateJournaled(id string, edits []EditOp, fn func(*Session, *engine.Engine) error) error {
	s, err := st.lookup(id)
	if err != nil {
		return err
	}
	var record []byte
	if st.opts.Durable && edits != nil {
		record = encodeEditOps(edits) // outside the session lock
	}
	var jw *journal.Writer
	err = st.withResident(s, true, func(eng *engine.Engine) error {
		if s.health.broken != 0 {
			return ErrSessionDegraded
		}
		if err := fn(s, eng); err != nil {
			return err
		}
		rev := s.rev + 1
		if record == nil {
			s.append(rev, tailBroken, 0)
		} else if jw = st.appendTailLocked(s, rev, edits, record, false); jw == nil {
			st.degradeLocked(s, brokenJournal)
		}
		return nil
	})
	if err == nil && jw != nil {
		// Group commit outside the session lock: concurrent batches on other
		// sessions (or this one) share the fsync instead of queueing on it.
		if serr := jw.Sync(); serr != nil {
			mDurabilityErrors.Inc()
			s.mu.Lock()
			st.degradeLocked(s, brokenJournal)
			s.mu.Unlock()
			return fmt.Errorf("%w: %w", ErrSessionDegraded, serr)
		}
	}
	return err
}
