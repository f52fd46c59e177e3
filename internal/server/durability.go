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
	"taco/internal/journal"
)

// This file is the store's durability layer (StoreOptions.Durable): a
// session is `base snapshot at snapRev + journal records (snapRev, rev]`.
// Every accepted edit batch is appended to the session's journal before the
// response commits; every full base write is a checkpoint — the base lands
// atomically, the session's registry entry advances, and the journal is
// truncated, so the journal only ever holds records above the base; and a
// restarted store replays the registry at boot, re-registering every session
// as non-resident. Restoring a session — after an eviction or a restart alike
// — means: read the base (integrity-checked, quarantined on corruption),
// replay the journal tail through the live edit path, and let the normal
// drain reconverge values.
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
		s := &Session{
			ID: e.ID, Name: e.Name, rev: e.SnapRev, snapRev: e.SnapRev, snapHeld: e.SnapHeld,
			baseID: e.BaseID,
		}
		if head > s.rev {
			s.rev = head
		}
		// Every registry entry is a live referent of its frozen base; the
		// post-recovery orphan sweep relies on these counts being complete
		// before the store serves.
		if p := st.frozenBaseLocked(s); p != "" {
			st.incref(p)
		}
		s.tick.Store(st.clock.Add(1))
		sh := st.shardFor(e.ID)
		s.shard = sh
		sh.mu.Lock()
		sh.sessions[e.ID] = s
		sh.mu.Unlock()
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

// recordCreate makes a freshly created session durable before it is
// published: a non-empty engine gets an initial snapshot at revision 0 (so
// a crash before the first spill still restores its loaded content), and
// the registry learns the session either way. The engine is still owned
// exclusively by Create's caller, so no locks are taken. Failures degrade
// the session to non-durable with a metric rather than failing creation —
// the spill path's philosophy (a non-TACO graph backend, for example, has
// no snapshot encoding at all).
func (st *Store) recordCreate(s *Session, eng *engine.Engine) {
	if eng.NumCells() > 0 {
		buf := bufPool.Get().(*bytes.Buffer)
		defer func() { buf.Reset(); bufPool.Put(buf) }()
		buf.Reset()
		err := eng.WriteSnapshot(buf)
		if err == nil {
			err = writeFileAtomic(st.spillPath(s.ID), buf.Bytes(), st.syncFiles())
		}
		if err != nil {
			mDurabilityErrors.Inc()
			return
		}
		s.snapHeld = true
		s.snapRev = 0
		s.baseBytes = int64(buf.Len())
		mSpillBytes.Add(uint64(buf.Len()))
	}
	if err := st.reg.Put(regEntryLocked(s)); err != nil {
		mDurabilityErrors.Inc()
		return
	}
	if err := st.reg.Sync(); err != nil {
		mDurabilityErrors.Inc()
	}
}

// writeFullLocked serialises the resident engine to the session's own base
// snapshot file at s.rev (pooled buffer, then atomic publish: same-directory
// temp file + rename, so neither a crash mid-write nor a restarted durable
// store can ever observe a torn snapshot at the final path) and, on a durable
// store, checkpoints: advance the registry entry, make it durable, release
// the frozen base this one supersedes, and only then truncate the journal —
// records the base supersedes are skipped (or idempotently re-applied) by
// replay, so truncating last means no crash window can lose an acknowledged
// batch. A failed checkpoint step keeps what the stale entry still
// references: the journal stays (replay reconstructs past the stale entry)
// and the old frozen base leaks until the next boot's sweep. Called with s.mu
// held and s.eng non-nil.
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
	oldBase := st.frozenBaseLocked(s)
	s.snapHeld = true
	s.snapRev = s.rev
	s.baseID = ""
	s.baseBytes = int64(buf.Len())
	s.tailStructural, s.tailBroken = false, false
	if !st.opts.Durable {
		return nil
	}
	err := st.reg.Put(regEntryLocked(s))
	if err == nil {
		err = st.reg.Sync()
	}
	if err != nil {
		mDurabilityErrors.Inc()
		return nil
	}
	if oldBase != "" {
		st.decref(oldBase)
	}
	if s.jw != nil || s.tailBytes > 0 { // else the journal holds no records
		w, err := st.sessionJournal(s)
		if err == nil {
			err = w.Reset()
		}
		if err != nil {
			mDurabilityErrors.Inc()
		} else {
			s.tailBytes = 0
		}
	}
	return nil
}

// recordDelete erases a session's durable state: journal file and registry
// entry. The journal writer was detached and closed by Delete already.
func (st *Store) recordDelete(id string) {
	os.Remove(st.journalPath(id))
	if err := st.reg.Delete(id); err != nil {
		mDurabilityErrors.Inc()
		return
	}
	if err := st.reg.Sync(); err != nil {
		mDurabilityErrors.Inc()
	}
}

// restoreEngine rebuilds a non-resident session's engine: base snapshot
// first (integrity-checked; corruption quarantines the file and poisons the
// session with ErrSnapshotCorrupt), then the journal tail replayed through
// the live edit path. Replayed cells come back dirty and reconverge on the
// normal drain. Called with s.mu held.
func (st *Store) restoreEngine(s *Session) (*engine.Engine, error) {
	if s.corrupt {
		return nil, fmt.Errorf("%w: session %s", ErrSnapshotCorrupt, s.ID)
	}
	var eng *engine.Engine
	if s.snapHeld {
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
	if st.opts.Durable && s.rev > s.snapRev {
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
	s.corrupt = true
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
	last := s.snapRev
	replayed := 0
	gap, structural := false, false
	_, valid, err := journal.ScanFile(path, journal.JournalMagic, func(rev uint64, payload []byte) error {
		if rev <= s.snapRev {
			return nil // the base already contains this batch
		}
		edits, err := decodeEditOps(payload)
		if err != nil {
			return fmt.Errorf("record rev %d: %w", rev, err)
		}
		ops, err := parseBatch(edits)
		if err != nil {
			return fmt.Errorf("record rev %d: %w", rev, err)
		}
		applyBatch(eng, ops)
		gap = gap || rev != last+1
		structural = structural || !valueOnly(edits)
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
	s.tailBytes = journalRecordBytes(valid)
	s.tailStructural, s.tailBroken = structural, gap
	st.replayed.Add(uint64(replayed))
	mReplayRecords.Add(uint64(replayed))
	mReplayDuration.Observe(time.Since(start).Seconds())
	return nil
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
			s, err := takeString(maxEditStringBytes)
			if err != nil {
				return nil, err
			}
			op.Text = &s
		case journalOpFormula:
			s, err := takeString(maxEditStringBytes)
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

// appendTailLocked journals the batch that produced s.rev and folds it into
// the session's tail state. A failed append leaves a hole the journal-as-tail
// design must not trust: the tail is marked broken so the next eviction
// writes a full base. Called with s.mu held.
func (st *Store) appendTailLocked(s *Session, edits []EditOp, record []byte) (*journal.Writer, error) {
	w, err := st.sessionJournal(s)
	if err == nil {
		err = w.Append(s.rev, record)
	}
	if err != nil {
		mDurabilityErrors.Inc()
		s.tailBroken = true
		return nil, err
	}
	s.tailBytes = journalRecordBytes(w.Size())
	s.tailStructural = s.tailStructural || !valueOnly(edits)
	return w, nil
}

// UpdateJournaled is Update(id, true, fn) plus the durability contract: on a
// durable store the batch fn applied (edits, already validated by parseBatch)
// is appended to the session's journal at the bumped revision before
// UpdateJournaled returns, and the policy's fsync barrier has run — the
// caller can acknowledge the batch knowing a crashed server will replay it.
//
// A journal append failure degrades the session (degrade.go) instead of
// failing the request or silently dropping durability: the batch is applied
// and acknowledged (engine state must stay consistent with what readers
// already saw), its record is buffered for the background repairer, and
// every subsequent write is fenced with ErrSessionDegraded until the
// repairer lands the buffered records. A failed group-commit fsync under
// `always` both degrades and surfaces the error, since an fsynced
// acknowledgement is exactly the guarantee that policy sells.
func (st *Store) UpdateJournaled(id string, edits []EditOp, fn func(*Session, *engine.Engine) error) error {
	if !st.opts.Durable {
		return st.Update(id, true, fn)
	}
	s, err := st.lookup(id)
	if err != nil {
		return err
	}
	record := encodeEditOps(edits) // outside the session lock
	var jw *journal.Writer
	degradedNow := false
	err = st.withResident(s, true, func(eng *engine.Engine) error {
		if s.degraded {
			return ErrSessionDegraded
		}
		if err := fn(s, eng); err != nil {
			return err
		}
		s.rev++
		var jerr error
		if jw, jerr = st.appendTailLocked(s, edits, record); jerr != nil {
			st.degradeLocked(s, degradedJournal, &pendingRecord{rev: s.rev, payload: record})
			degradedNow = true
		}
		return nil
	})
	if degradedNow {
		st.scheduleRepair(s)
	}
	if err == nil && jw != nil {
		// Group commit outside the session lock: concurrent batches on other
		// sessions (or this one) share the fsync instead of queueing on it.
		if serr := jw.Sync(); serr != nil {
			mDurabilityErrors.Inc()
			s.mu.Lock()
			st.degradeLocked(s, degradedJournal, nil)
			s.mu.Unlock()
			st.scheduleRepair(s)
			return fmt.Errorf("%w: %w", ErrSessionDegraded, serr)
		}
	}
	return err
}
