package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"taco/internal/engine"
	"taco/internal/journal"
)

// Replication is journal shipping: the compressed formula graphs keep
// sessions compact enough that `snapshot + journal tail` is a cheap wire
// format, so a warm standby is just a store that bootstraps each session
// from the primary's snapshot and then tails its journal over HTTP,
// applying records through the same replay path crash recovery uses.
//
// Primary side: three read-only endpoints under /replication — the session
// manifest, per-session snapshots, and per-session journal tails streamed
// in the journal's own record format from a requested revision. Standby
// side: a Replicator polls the manifest, bootstraps missing sessions,
// applies shipped records (bumping each session's rev to the shipped rev,
// journaling them locally when the standby is itself durable), deletes
// sessions the primary dropped, and tracks how far behind it is. The store
// is read-only while following — writes are rejected with 503 — and
// POST /admin/promote fences the replicator's cursor and lifts the fence,
// making the standby the new primary.

// ErrStandby rejects writes while the store follows a primary (HTTP 503).
var ErrStandby = errors.New("server: standby is read-only (not promoted)")

// StandbyOptions configures follower mode.
type StandbyOptions struct {
	// PrimaryURL is the primary's base URL (e.g. http://host:port). Empty
	// disables follower mode.
	PrimaryURL string
	// Interval is the shipping poll period (default 100ms). Transient
	// errors back off exponentially from Interval to 32x.
	Interval time.Duration
}

// replSession is one row of the primary's replication manifest.
type replSession struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Rev     uint64 `json:"rev"`
	SnapRev uint64 `json:"snap_rev"`
}

// PromoteResult is the body of POST /admin/promote.
type PromoteResult struct {
	Promoted bool `json:"promoted"`
	// AlreadyPrimary reports an idempotent promote (never a standby, or
	// promoted earlier).
	AlreadyPrimary bool `json:"already_primary,omitempty"`
	// Sessions is the hosted session count at promotion.
	Sessions int `json:"sessions"`
	// LagRevs is the shipping deficit at the moment of promotion — revisions
	// the dead primary acknowledged that this standby never received.
	LagRevs uint64 `json:"lag_revs"`
}

// ---------------------------------------------------------------------------
// Primary-side endpoints
// ---------------------------------------------------------------------------

// handleReplSessions serves the replication manifest: every session's ID,
// name, revision, and snapshot revision.
func (s *Server) handleReplSessions(w http.ResponseWriter, r *http.Request) {
	out := []replSession{}
	s.store.Each(func(sess *Session) bool {
		sess.mu.RLock()
		if sess.res != deleted {
			out = append(out, replSession{ID: sess.ID, Name: sess.Name, Rev: sess.rev, SnapRev: sess.disk.rev})
		}
		sess.mu.RUnlock()
		return true
	})
	writeJSON(w, http.StatusOK, out)
}

// handleReplSnapshot streams the session's base for a standby, with
// X-Snapshot-Rev naming the revision it captures. The standby bootstraps (or
// re-bases) from this.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	buf.Reset()
	rev, err := s.store.replicaBase(r.PathValue("id"), buf)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Snapshot-Rev", strconv.FormatUint(rev, 10))
	w.Write(buf.Bytes())
}

// handleReplJournal ships the session's journal records with rev > from in
// the journal's own format (magic + CRC-trailed records): read by
// journal.Scan, the decoder recovery uses, on both ends of the wire. It
// ships only a tail that runs from+1, from+2, … without a gap; otherwise —
// the requested revision predates the snapshot (the journal was
// checkpointed past it), or the journal has a hole (a failed local append
// on a standby) — it answers 409: the standby must re-base from the
// snapshot. The base revision is read after the scan, so a checkpoint
// landing mid-request shows as one or the other.
func (s *Server) handleReplJournal(w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		writeErr(w, http.StatusNotFound, errors.New("replication journal requires a durable store"))
		return
	}
	id := r.PathValue("id")
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad ?from: %w", err))
		return
	}
	sess, err := s.store.Peek(id)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	// One reader, journal.Scan, over the live file (journalTail). The
	// records keep their own CRCs, so the wire format IS the journal format.
	tail, shipped, gapless, err := s.store.journalTail(id, from)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	sess.mu.RLock()
	head, snapRev := sess.rev, sess.disk.rev
	sess.mu.RUnlock()
	if from < snapRev || !gapless {
		// Records at or below the base were truncated away by its checkpoint,
		// or a hole breaks the run: the snapshot is the only complete source.
		w.Header().Set("X-Snapshot-Rev", strconv.FormatUint(snapRev, 10))
		writeErr(w, http.StatusConflict,
			fmt.Errorf("journal from rev %d is not a gapless tail above snapshot rev %d: fetch the snapshot", from, snapRev))
		return
	}
	mReplShipped.Add(uint64(shipped))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Journal-Head", strconv.FormatUint(head, 10))
	w.Header().Set("X-Snapshot-Rev", strconv.FormatUint(snapRev, 10))
	w.Write(tail)
}

// handlePromote fences the replicator (no further shipped records apply)
// and lifts the read-only fence: the standby becomes the new primary.
// Idempotent; on a server that was never a standby it reports
// AlreadyPrimary.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	res := PromoteResult{Promoted: true, Sessions: s.store.Stats().Sessions}
	repl := s.repl
	if repl == nil || !repl.fence() {
		res.AlreadyPrimary = true
	} else {
		res.LagRevs = repl.LagRevs()
		mPromotions.Inc()
	}
	s.store.SetReadOnly(false)
	writeJSON(w, http.StatusOK, res)
}

// ---------------------------------------------------------------------------
// Store-side replica operations
// ---------------------------------------------------------------------------

// SetReadOnly flips the store's write fence (standby mode).
func (st *Store) SetReadOnly(v bool) { st.readOnly.Store(v) }

// ReadOnly reports whether writes are fenced (store is a standby).
func (st *Store) ReadOnly() bool { return st.readOnly.Load() }

// CreateReplica registers a session replicated from a primary, under the
// primary's session ID, with its engine restored from the primary's
// snapshot at revision rev. On a durable store the snapshot is checkpointed
// as the replica's base before anything else can touch it, so a standby
// crash re-bootstraps from local disk instead of the wire.
func (st *Store) CreateReplica(id, name string, eng *engine.Engine, rev uint64) (*Session, error) {
	return st.admit(id, name, eng, rev)
}

// replicaBase fills buf with a base of the session for a standby and returns
// its revision. A spilled session's base file ships as it lies, without
// faulting the session in — a standby bootstrapping every cold session must
// not evict the hot set — and the journal endpoint ships the tail above it.
// Otherwise the engine is drained and encoded at its revision.
func (st *Store) replicaBase(id string, buf *bytes.Buffer) (uint64, error) {
	s, err := st.lookup(id)
	if err != nil {
		return 0, err
	}
	s.mu.RLock()
	rev, fromFile := s.disk.rev, s.res == spilled && s.disk.held
	if fromFile {
		f, err := os.Open(st.baseFilePathLocked(s))
		if err == nil {
			_, err = buf.ReadFrom(f)
			f.Close()
		}
		if fromFile = err == nil; !fromFile {
			buf.Reset()
		}
	}
	s.mu.RUnlock()
	if fromFile {
		st.spillReads.Add(1)
		mSpillReads.Inc()
		return rev, nil
	}
	err = st.withResident(s, false, func(eng *engine.Engine) error {
		rev = s.rev
		return eng.WriteSnapshot(buf)
	})
	return rev, err
}

// ApplyReplicated applies one shipped journal record: decode with the
// recovery codec, apply through the live edit path, and set the session's
// revision to the shipped revision (revs are assigned by the primary).
// Records at or below the local revision are duplicates of state the
// snapshot or an earlier poll already delivered and are skipped — shipping
// is at-least-once, application exactly-once. On a durable standby the
// record is re-journaled locally under the same revision; a failed local
// append or fsync degrades the session as it does a primary's, and later
// records are refused with ErrSessionDegraded until the repairer lands a
// base: the primary still holds them, so the replicator ships them again
// after the repair, and the local journal never takes a record over a hole.
func (st *Store) ApplyReplicated(id string, rev uint64, payload []byte) error {
	s, err := st.lookup(id)
	if err != nil {
		return err
	}
	var jw *journal.Writer
	err = st.withResident(s, true, func(eng *engine.Engine) error {
		if rev <= s.rev {
			return nil
		}
		if s.health.broken != 0 {
			return ErrSessionDegraded
		}
		edits, err := applyRecord(eng, payload)
		if err != nil {
			return fmt.Errorf("shipped record rev %d: %w", rev, err)
		}
		if !st.opts.Durable {
			s.append(rev, tailBroken, 0) // no local journal holds it
		} else if jw = st.appendTailLocked(s, rev, edits, payload, rev != s.rev+1); jw == nil {
			st.degradeLocked(s, brokenJournal)
		}
		mReplApplied.Inc()
		return nil
	})
	if err == nil && jw != nil {
		if serr := jw.Sync(); serr != nil {
			mDurabilityErrors.Inc()
			s.mu.Lock()
			st.degradeLocked(s, brokenJournal)
			s.mu.Unlock()
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Standby-side replicator
// ---------------------------------------------------------------------------

// Replicator is the standby's shipping loop: poll the primary's manifest,
// bootstrap missing sessions from snapshots, tail journals from each local
// revision, prune dropped sessions, track lag. One goroutine; transient
// errors retry with capped exponential backoff.
type Replicator struct {
	store    *Store
	base     string
	client   *http.Client
	interval time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	fenced atomic.Bool

	lagRevs atomic.Uint64
	// behindNanos is the wall-clock (UnixNano) when the standby last fell
	// behind; 0 while caught up. Lag-ms = now - behindNanos.
	behindNanos atomic.Int64
}

// NewReplicator builds (without starting) a replicator against the
// primary's base URL.
func NewReplicator(store *Store, opts StandbyOptions) *Replicator {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Replicator{
		store:    store,
		base:     opts.PrimaryURL,
		client:   &http.Client{Timeout: 30 * time.Second},
		interval: opts.Interval,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
}

// Start launches the shipping loop.
func (rp *Replicator) Start() {
	go func() {
		defer close(rp.done)
		bo := Backoff{Base: rp.interval, Cap: 32 * rp.interval}
		for {
			delay := rp.interval
			if err := rp.cycle(); err != nil {
				delay = bo.Next()
				mReplErrors.Inc()
			} else {
				bo.Reset()
			}
			select {
			case <-rp.ctx.Done():
				return
			case <-time.After(delay):
			}
		}
	}()
}

// fence stops the loop and reports whether this call did the fencing
// (false: already fenced). After fence returns, no further shipped record
// will ever apply — the promotion guarantee.
func (rp *Replicator) fence() bool {
	if !rp.fenced.CompareAndSwap(false, true) {
		return false
	}
	rp.cancel()
	<-rp.done
	return true
}

// Close stops the replicator (idempotent with fence).
func (rp *Replicator) Close() { rp.fence() }

// LagRevs returns the shipping deficit observed by the last poll: the sum
// over sessions of primary rev - local rev.
func (rp *Replicator) LagRevs() uint64 { return rp.lagRevs.Load() }

// LagMs returns how long the standby has been behind, in milliseconds
// (0 = caught up at the last poll).
func (rp *Replicator) LagMs() int64 {
	since := rp.behindNanos.Load()
	if since == 0 {
		return 0
	}
	return (time.Now().UnixNano() - since) / int64(time.Millisecond)
}

// cycle runs one shipping pass.
func (rp *Replicator) cycle() error {
	var manifest []replSession
	if err := rp.getJSON("/replication/sessions", &manifest); err != nil {
		return err
	}
	primary := make(map[string]bool, len(manifest))
	var lag uint64
	var firstErr error
	for i := range manifest {
		if rp.ctx.Err() != nil {
			return rp.ctx.Err()
		}
		ps := &manifest[i]
		primary[ps.ID] = true
		localRev, err := rp.syncSession(ps)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ps.Rev > localRev {
			lag += ps.Rev - localRev
		}
	}
	// Prune sessions the primary dropped.
	var stale []string
	rp.store.Each(func(s *Session) bool {
		if !primary[s.ID] {
			stale = append(stale, s.ID)
		}
		return true
	})
	for _, id := range stale {
		rp.store.Delete(id)
	}
	rp.lagRevs.Store(lag)
	if lag == 0 {
		rp.behindNanos.Store(0)
	} else {
		rp.behindNanos.CompareAndSwap(0, time.Now().UnixNano())
	}
	mReplLagRevs.Set(int64(lag))
	return firstErr
}

// syncSession brings one session up to the primary's revision: bootstrap
// from a snapshot when missing (or when the journal tail is truncated past
// our cursor), then apply the journal tail. Returns the local revision
// after the pass.
func (rp *Replicator) syncSession(ps *replSession) (uint64, error) {
	local, err := rp.store.Peek(ps.ID)
	if errors.Is(err, ErrSessionNotFound) {
		local, err = rp.bootstrap(ps)
	}
	if err != nil {
		return 0, err
	}
	localRev := local.Rev()
	if ps.Rev <= localRev {
		return localRev, nil
	}
	status, err := rp.shipJournal(ps.ID, localRev)
	if status == http.StatusConflict {
		// Our cursor predates the primary's snapshot (the tail we need was
		// checkpointed away), or the primary's tail has a hole. Re-base from
		// the snapshot.
		if err = rp.store.Delete(ps.ID); err == nil {
			local, err = rp.bootstrap(ps)
		}
	}
	if err != nil {
		return localRev, err
	}
	return local.Rev(), nil
}

// bootstrap creates the local replica from the primary's snapshot.
func (rp *Replicator) bootstrap(ps *replSession) (*Session, error) {
	body, hdr, err := rp.get("/replication/sessions/" + ps.ID + "/snapshot")
	if err != nil {
		return nil, err
	}
	rev, err := strconv.ParseUint(hdr.Get("X-Snapshot-Rev"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("replication: snapshot of %s: bad X-Snapshot-Rev: %w", ps.ID, err)
	}
	// The primary streams a spilled base as it lies on its disk, unverified:
	// check the trailer before trusting a byte of it.
	if err := engine.CheckSnapshotIntegrity(body); err != nil {
		return nil, fmt.Errorf("replication: snapshot of %s: %w", ps.ID, err)
	}
	eng, err := engine.RestoreSnapshot(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("replication: snapshot of %s: %w", ps.ID, err)
	}
	s, err := rp.store.CreateReplica(ps.ID, ps.Name, eng, rev)
	if err == nil {
		mReplSnapshots.Inc()
	}
	return s, err
}

// shipJournal fetches and applies the session's journal tail past rev,
// reporting the HTTP status.
func (rp *Replicator) shipJournal(id string, from uint64) (int, error) {
	resp, err := rp.client.Get(rp.base + "/replication/sessions/" + id + "/journal?from=" + strconv.FormatUint(from, 10))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("replication: journal of %s: HTTP %d", id, resp.StatusCode)
	}
	_, _, err = journal.Scan(resp.Body, journal.JournalMagic, func(rev uint64, payload []byte) error {
		if rp.fenced.Load() {
			return errors.New("replication: fenced")
		}
		return rp.store.ApplyReplicated(id, rev, payload)
	})
	return resp.StatusCode, err
}

func (rp *Replicator) get(path string) ([]byte, http.Header, error) {
	resp, err := rp.client.Get(rp.base + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("replication: GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, resp.Header, nil
}

func (rp *Replicator) getJSON(path string, v any) error {
	body, _, err := rp.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
