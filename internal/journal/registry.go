package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"taco/internal/faultfs"
)

// The registry is the store's session manifest: an append-only log (same
// record format as the journals, magic TACOR1) whose records are put/delete
// operations on {session ID → snapshot rev, journal presence}. Replaying it
// at boot tells a restarted server every session that existed, which
// snapshot revision its spill file holds, and therefore which journal tail
// to replay on top. It compacts in place — rewrite live entries to a temp
// file, fsync, rename — once the log grows well past its live set, so
// eviction-heavy workloads don't grow it without bound.

// Registry record opcodes, carried in the record's rev field.
const (
	regOpPut    = 1
	regOpDelete = 2
)

// maxRegistryString bounds ID and name fields on decode.
const maxRegistryString = 4096

// ErrLegacyChain is returned by OpenRegistry for a manifest written by the
// delta-chain build: its entries name delta record files this build neither
// reads nor writes, so opening it would silently serve stale bases.
var ErrLegacyChain = errors.New("journal: registry entry carries a delta chain (written by an older build; not readable)")

// Entry is one registered session.
type Entry struct {
	// ID is the session identifier; the spill file is <ID>.tacos and the
	// journal <ID>.tacoj in the store's spill directory.
	ID string
	// Name is the client-supplied session label, preserved across restarts.
	Name string
	// SnapRev is the revision the session's base snapshot holds; journal
	// records with rev > SnapRev are the replay tail.
	SnapRev uint64
	// SnapHeld reports whether snapshot state exists at all (a never-edited
	// blank session has none; restore starts from an empty engine).
	SnapHeld bool
	// BaseID, when non-empty, names the session whose frozen base snapshot
	// (<BaseID>.<SnapRev>.tacob) this session restores from — the
	// copy-on-write sharing edge. Empty means the session's own <ID>.tacos
	// file is the base.
	BaseID string
}

// Registry is the persistent session manifest.
type Registry struct {
	mu      sync.Mutex
	w       *Writer
	path    string
	pol     Policy
	sy      *Syncer
	live    map[string]Entry
	appends int // records in the log (live + superseded), drives compaction
}

// OpenRegistry loads (creating if needed) the manifest at path. A torn tail
// from a crash is dropped exactly as for journals; the surviving prefix is
// replayed into the live set. A manifest holding a delta-chain entry fails
// with ErrLegacyChain.
func OpenRegistry(path string, pol Policy, sy *Syncer) (*Registry, error) {
	r := &Registry{path: path, pol: pol, sy: sy, live: make(map[string]Entry)}
	_, _, err := ScanFile(path, RegistryMagic, func(op uint64, payload []byte) error {
		r.appends++
		e, err := decodeEntry(op, payload)
		if errors.Is(err, ErrLegacyChain) {
			return err
		}
		if err != nil {
			// Valid CRC but undecodable: a format bug, not corruption. Skip
			// the record rather than losing the whole manifest.
			return nil
		}
		if op == regOpDelete {
			delete(r.live, e.ID)
		} else {
			r.live[e.ID] = e
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	r.w, err = Open(path, RegistryMagic, pol, sy)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Put upserts a session entry.
func (r *Registry) Put(e Entry) error {
	payload := appendEntry(nil, e)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.writableLocked(); err != nil {
		return err
	}
	if err := r.w.Append(regOpPut, payload); err != nil {
		return err
	}
	mRegistryRecords.Inc()
	r.live[e.ID] = e
	r.appends++
	return r.maybeCompactLocked()
}

// Delete records a session's removal.
func (r *Registry) Delete(id string) error {
	payload := appendString(nil, id)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.writableLocked(); err != nil {
		return err
	}
	if err := r.w.Append(regOpDelete, payload); err != nil {
		return err
	}
	mRegistryRecords.Inc()
	delete(r.live, id)
	r.appends++
	return r.maybeCompactLocked()
}

// writableLocked readies the log for an append. A poisoned writer — a torn
// append, a failed fsync — is never re-armed in place: the live set is the
// registry's own base, so compaction rewrites it to a fresh file and the
// append goes there. Called with r.mu held.
func (r *Registry) writableLocked() error {
	if r.w == nil {
		return ErrClosed
	}
	if r.w.Err() != nil {
		return r.compactLocked()
	}
	return nil
}

// Sync applies the policy's durability barrier to the manifest log.
func (r *Registry) Sync() error {
	r.mu.Lock()
	w := r.w
	r.mu.Unlock()
	if w == nil {
		return ErrClosed
	}
	return w.Sync()
}

// Entries snapshots the live set (unspecified order).
func (r *Registry) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.live))
	for _, e := range r.live {
		out = append(out, e)
	}
	return out
}

// Len returns the live session count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Close flushes and closes the manifest log.
func (r *Registry) Close() error {
	r.mu.Lock()
	w := r.w
	r.w = nil
	r.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// maybeCompactLocked rewrites the log to just the live set once superseded
// records dominate it. The floor keeps small registries from compacting on
// every eviction; past it, 4x amplification triggers a rewrite.
func (r *Registry) maybeCompactLocked() error {
	if r.appends < 1024 || r.appends < 4*len(r.live) {
		return nil
	}
	return r.compactLocked()
}

// compactLocked rewrites the manifest as magic + one put per live entry,
// atomically: temp file in the same directory, fsync, rename over the old
// log, reopen. On any failure the old log (and writer) stay in service,
// poisoned still if they were — compaction is an optimisation, and the
// only way back for a poisoned log.
func (r *Registry) compactLocked() error {
	var buf bytes.Buffer
	buf.Write(RegistryMagic)
	var scratch, rec []byte
	for _, e := range r.live {
		scratch = appendEntry(scratch[:0], e)
		rec = AppendRecord(rec[:0], regOpPut, scratch)
		buf.Write(rec)
	}
	tmp := r.path + ".tmp"
	f, err := faultfs.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: compact registry: %w", err)
	}
	if _, err = f.Write(buf.Bytes()); err == nil && r.pol != SyncNever {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact registry: %w", err)
	}
	// Swap under the old writer's feet only after the replacement is fully
	// on disk. Close before rename so no handle still points at the
	// unlinked inode holding appends the new log would silently drop.
	poison := r.w.Err()
	r.w.Close()
	r.w = nil
	if err := faultfs.Rename(tmp, r.path); err != nil {
		os.Remove(tmp)
		// Reopen the (unreplaced) old log so the registry stays writable.
		if w, oerr := Open(r.path, RegistryMagic, r.pol, r.sy); oerr == nil {
			w.poison = poison
			r.w = w
		}
		return fmt.Errorf("journal: compact registry: %w", err)
	}
	if r.pol != SyncNever {
		// The rename itself lives in the directory: without a dir fsync a
		// crash right here can resurface the pre-compaction log even though
		// the replacement was fully synced. Mirrors writeFileAtomic.
		if d, derr := os.Open(filepath.Dir(r.path)); derr == nil {
			d.Sync()
			d.Close()
		}
	}
	w, err := Open(r.path, RegistryMagic, r.pol, r.sy)
	if err != nil {
		return fmt.Errorf("journal: compact registry: reopen: %w", err)
	}
	r.w = w
	r.appends = len(r.live)
	mRegistryCompactions.Inc()
	return nil
}

func appendEntry(dst []byte, e Entry) []byte {
	dst = appendString(dst, e.ID)
	dst = appendString(dst, e.Name)
	var vb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(vb[:], e.SnapRev)
	dst = append(dst, vb[:n]...)
	held := byte(0)
	if e.SnapHeld {
		held = 1
	}
	dst = append(dst, held)
	// The shared-base extension rides after the original fixed tail, and is
	// written only when present: entries with an own-file base stay
	// byte-identical to the pre-extension format. Its layout is BaseID, the
	// base's revision (always SnapRev), and a delta-link count that is always
	// 0 — kept so the delta-chain build's records stay distinguishable.
	if e.BaseID == "" {
		return dst
	}
	dst = appendString(dst, e.BaseID)
	n = binary.PutUvarint(vb[:], e.SnapRev)
	dst = append(dst, vb[:n]...)
	return append(dst, 0)
}

func decodeEntry(op uint64, payload []byte) (Entry, error) {
	var e Entry
	var err error
	e.ID, payload, err = takeString(payload)
	if err != nil {
		return e, err
	}
	if op == regOpDelete {
		return e, nil
	}
	e.Name, payload, err = takeString(payload)
	if err != nil {
		return e, err
	}
	rev, n := binary.Uvarint(payload)
	if n <= 0 || len(payload) < n+1 {
		return e, fmt.Errorf("journal: malformed registry entry")
	}
	e.SnapRev = rev
	e.SnapHeld = payload[n] != 0
	payload = payload[n+1:]
	if len(payload) == 0 {
		// Pre-extension record: own-file base.
		return e, nil
	}
	e.BaseID, payload, err = takeString(payload)
	if err != nil {
		return e, err
	}
	baseRev, n := binary.Uvarint(payload)
	if n <= 0 {
		return e, fmt.Errorf("journal: malformed registry entry")
	}
	payload = payload[n:]
	links, n := binary.Uvarint(payload)
	if n <= 0 {
		return e, fmt.Errorf("journal: malformed registry entry")
	}
	if links != 0 {
		return e, fmt.Errorf("%w: session %s", ErrLegacyChain, e.ID)
	}
	if baseRev != e.SnapRev || len(payload) != n {
		return e, fmt.Errorf("journal: malformed registry entry")
	}
	return e, nil
}

func appendString(dst []byte, s string) []byte {
	var vb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(vb[:], uint64(len(s)))
	dst = append(dst, vb[:n]...)
	return append(dst, s...)
}

func takeString(b []byte) (string, []byte, error) {
	n, m := binary.Uvarint(b)
	if m <= 0 || n > maxRegistryString || uint64(len(b)-m) < n {
		return "", nil, fmt.Errorf("journal: malformed registry string")
	}
	return string(b[m : m+int(n)]), b[m+int(n):], nil
}
