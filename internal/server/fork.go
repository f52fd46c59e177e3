package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"taco/internal/engine"
	"taco/internal/faultfs"
	"taco/internal/journal"
)

// Copy-on-write forks over shared base snapshots. The paper's thesis —
// spreadsheet state is dominated by repeated structure that should be stored
// once and shared — applies to persistence as much as to formula graphs. A
// durable session's on-disk state is exactly its base plus the journal
// records above it, so a fork is a new registry entry pointing at the
// parent's base plus a copy of the parent's journal tail — O(tail), never
// O(sheet), and never a fault-in of a spilled parent.
//
// Because the parent's own .tacos file is renamed over at its next full
// write, the base a fork shares is first *frozen* under a revision-stamped
// immutable name (<id>.<rev>.tacob, hard-linked when the filesystem allows).
// Frozen bases are only ever created and deleted, so any number of sessions
// can reference one by path; a refcount (rebuilt from the registry at boot)
// deletes each with its last referent, which is what lets a parent die
// without stranding its children.
//
// Crash ordering mirrors the journal's: files are written before any registry
// entry references them, and a full write drops its reference to a frozen
// base only after the registry durably points at the new one. Files orphaned
// inside those windows are swept at the next boot.

// baseSuffix names frozen bases.
const baseSuffix = ".tacob"

// ErrForkUnsupported rejects forks on a store without a durability layer —
// the registry and journal are the fork's storage.
var ErrForkUnsupported = errors.New("server: fork requires a durable store")

func (st *Store) basePath(owner string, rev uint64) string {
	return filepath.Join(st.opts.SpillDir, fmt.Sprintf("%s.%d%s", owner, rev, baseSuffix))
}

// frozenBaseLocked is the refcounted frozen base the session restores from,
// or "" when its own spill file is the base. Called with s.mu held (read or
// write), or on a not-yet-published session.
func (st *Store) frozenBaseLocked(s *Session) string {
	if s.disk.owner == "" {
		return ""
	}
	return st.basePath(s.disk.owner, s.disk.rev)
}

// baseFilePathLocked is the file holding the session's base snapshot: the
// frozen base it shares, or its own spill file. Called with s.mu held (read
// or write).
func (st *Store) baseFilePathLocked(s *Session) string {
	if p := st.frozenBaseLocked(s); p != "" {
		return p
	}
	return st.spillPath(s.ID)
}

// incref records one more session referencing the frozen base at path.
func (st *Store) incref(path string) {
	st.refMu.Lock()
	st.refs[path]++
	st.refMu.Unlock()
}

// decref drops one reference; the last referent's death unlinks the file.
func (st *Store) decref(path string) {
	st.refMu.Lock()
	n := st.refs[path] - 1
	if n <= 0 {
		delete(st.refs, path)
	} else {
		st.refs[path] = n
	}
	st.refMu.Unlock()
	if n <= 0 {
		os.Remove(path)
	}
}

// sweepOrphans removes files no registry entry accounts for — leftovers of
// the crash windows between a file's creation and the registry update that
// references it (a frozen base, a fork's copied journal), or between a full
// write's registry update and the old frozen base's release. Called once at
// boot, after bootRecover has registered every session and rebuilt the
// refcounts, and before the store serves.
func (st *Store) sweepOrphans() {
	bases, _ := filepath.Glob(filepath.Join(st.opts.SpillDir, "*"+baseSuffix))
	for _, m := range bases {
		st.refMu.Lock()
		_, referenced := st.refs[m]
		st.refMu.Unlock()
		if !referenced {
			os.Remove(m)
		}
	}
	journals, _ := filepath.Glob(filepath.Join(st.opts.SpillDir, "*"+journalSuffix))
	for _, m := range journals {
		if _, err := st.Peek(strings.TrimSuffix(filepath.Base(m), journalSuffix)); err != nil {
			os.Remove(m)
		}
	}
	// Atomic-write temp files are stranded by a crash mid-write (a live
	// writeFileAtomic always removes its own on failure); nothing references
	// a temp by name, and no writer runs during boot, so all are stale.
	temps, _ := filepath.Glob(filepath.Join(st.opts.SpillDir, ".spill-*.tmp"))
	for _, m := range temps {
		os.Remove(m)
	}
}

// regEntryLocked builds the session's registry entry from its in-memory
// snapshot state. Called with s.mu held, or on a not-yet-published session.
func regEntryLocked(s *Session) journal.Entry {
	return journal.Entry{
		ID: s.ID, Name: s.Name,
		SnapRev: s.disk.rev, SnapHeld: s.disk.held,
		BaseID: s.disk.owner,
	}
}

// freezeBase publishes an immutable copy of a session's own base snapshot
// under its revision-stamped shared name. A hard link is O(1) and shares
// blocks; filesystems without links get a copy. An already-frozen path is
// fine — the content at a given revision is the same state.
func freezeBase(src, dst string) error {
	err := os.Link(src, dst)
	if err == nil || errors.Is(err, os.ErrExist) {
		return nil
	}
	data, rerr := faultfs.ReadFile(src)
	if rerr != nil {
		return rerr
	}
	return writeFileAtomic(dst, data, false)
}

// Fork creates a copy-on-write child of the parent session: a new registry
// entry whose base is the parent's (frozen) base snapshot, plus its own
// journal seeded with a copy of the parent's tail — O(tail), whatever the
// sheet size, resident parent or not. The child materialises lazily on first
// touch exactly like a spilled session, appends its own edits to its own
// journal, and cuts loose onto a private base at its first full write.
// Frozen bases are refcounted, so deleting the parent never strands a child.
func (st *Store) Fork(parentID, name string) (*Session, error) {
	if !st.opts.Durable {
		return nil, ErrForkUnsupported
	}
	start := time.Now()
	p, err := st.lookup(parentID)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	child, needBase, err := st.forkLocked(p, name)
	p.mu.Unlock()
	if needBase {
		// The parent's base + journal do not reproduce its state (content but
		// no base yet, or a journal with a hole): fault it in and write a full
		// base, forking inside the hold so no edit can slip between.
		err = st.withResident(p, false, func(*engine.Engine) error {
			if err := st.writeFullLocked(p); err != nil {
				return fmt.Errorf("server: fork checkpoint of %s: %w", p.ID, err)
			}
			var ferr error
			child, _, ferr = st.forkLocked(p, name)
			return ferr
		})
	}
	if err != nil {
		return nil, err
	}
	_ = st.register(child) // cannot fail: a fresh random ID
	mSessionsCreated.Inc()
	mForks.Inc()
	mForkDuration.Observe(time.Since(start).Seconds())
	return child, nil
}

// forkLocked builds the child from the parent's base and journal tail.
// needBase=true means those two do not reproduce the parent's state and the
// caller must write a full base (under withResident) and retry. Called with
// p.mu held.
func (st *Store) forkLocked(p *Session, name string) (c *Session, needBase bool, err error) {
	switch {
	case p.res == deleted:
		return nil, false, ErrSessionDeleted
	case p.res == quarantined:
		return nil, false, fmt.Errorf("%w: session %s", ErrSnapshotCorrupt, p.ID)
	case p.health.broken != 0:
		return nil, false, ErrSessionDegraded
	}
	var tail []byte
	if p.rev > p.disk.rev {
		// Without a base the "tail" is the parent's whole history: give the
		// parent a base to share instead of copying the sheet as a journal.
		if p.disk.tail == tailBroken || !p.disk.held {
			return nil, true, nil
		}
		var ok bool
		if tail, ok = st.copyTailLocked(p); !ok {
			return nil, true, nil
		}
	}
	// Freeze the base: children must reference an immutable file, and the
	// parent's own .tacos is renamed over at its next full write.
	if p.disk.held && p.disk.owner == "" {
		frozen := st.basePath(p.ID, p.disk.rev)
		if err := freezeBase(st.spillPath(p.ID), frozen); err != nil {
			return nil, false, fmt.Errorf("server: freeze base of %s: %w", p.ID, err)
		}
		st.incref(frozen) // the parent's own reference
	}
	c = &Session{ID: newSessionID(), Name: name}
	p.fork(c, journalRecordBytes(int64(len(tail))))
	frozen := st.frozenBaseLocked(c)
	if frozen != "" {
		st.incref(frozen)
	}
	// The child's journal lands before the registry names the child, and both
	// sides persist before the child is served: the parent's entry now names
	// its frozen base.
	if tail != nil {
		err = writeFileAtomic(st.journalPath(c.ID), tail, st.syncFiles())
	}
	if err == nil {
		err = st.putEntries(regEntryLocked(c), regEntryLocked(p))
	}
	if err != nil {
		if tail != nil {
			os.Remove(st.journalPath(c.ID))
		}
		if frozen != "" {
			st.decref(frozen)
		}
		return nil, false, fmt.Errorf("server: fork %s: %w", p.ID, err)
	}
	return c, false, nil
}

// copyTailLocked returns the session's journal records above its base,
// framed as a journal file of their own (journalTail). ok=false means the
// file does not hold them as the run disk.rev+1 … rev, one by one. Called
// with s.mu held.
func (st *Store) copyTailLocked(s *Session) (body []byte, ok bool) {
	body, n, gapless, err := st.journalTail(s.ID, s.disk.rev)
	return body, err == nil && gapless && s.disk.rev+uint64(n) == s.rev
}
