// Package server is the multi-tenant serving layer: it hosts many concurrent
// workbook sessions, each backed by an engine.Engine over its own TACO
// graph, behind a sharded session store and a JSON HTTP API. This is the
// DataSpread-style deployment the paper targets — compressed formula graphs
// answering dependents queries and driving incremental recalculation for
// live, concurrently edited spreadsheets.
package server

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"taco/internal/core"
	"taco/internal/engine"
	"taco/internal/faultfs"
	"taco/internal/journal"
)

// ErrSessionNotFound is returned for unknown session IDs.
var ErrSessionNotFound = errors.New("server: session not found")

// ErrSessionDeleted is returned when a request races a deletion.
var ErrSessionDeleted = errors.New("server: session deleted")

// StoreOptions configures the session store.
type StoreOptions struct {
	// Shards is the number of hash shards (default 16). More shards reduce
	// contention on the session index; sessions themselves are locked
	// individually.
	Shards int
	// MaxResident caps in-memory sessions across the store. When exceeded,
	// the least recently used sessions are spilled to SpillDir as engine
	// snapshots and restored lazily on next touch. 0 means unlimited.
	MaxResident int
	// SpillDir is where evicted sessions are written. Required when
	// MaxResident > 0.
	SpillDir string
	// RecalcWorkers sets the background recalculation worker pool size. An
	// edit batch returns after graph maintenance and the dirty-set traversal
	// only; these store-owned workers drain the resulting dirty cells behind
	// the response. 0 means one worker per available CPU; -1 starts none —
	// recalculation then happens only in Wait barriers, which run the chunks
	// themselves, and on spill (useful for deterministic tests).
	RecalcWorkers int
	// RecalcChunk bounds the evaluations started per session-lock hold while
	// a worker drains (default 256), so readers interleave with a large
	// recalculation instead of stalling behind it. The engine's resumable
	// wavefront schedule survives across holds — levelling runs once per
	// dirty generation however small the chunk — so the bound applies
	// uniformly to serial and levelled drains: a levelled hold covers at
	// most one (possibly truncated) level's worth of this many evaluations,
	// and a reader arriving mid-drain waits for at most that.
	RecalcChunk int
	// Durable enables crash-safe sessions: every accepted edit batch is
	// appended to a per-session journal before the response commits, a
	// persistent registry in SpillDir maps sessions to their snapshots and
	// journals, and a restarted store re-registers every session at boot,
	// replaying journal tails on top of snapshots at first touch. Requires
	// SpillDir (with or without MaxResident eviction).
	Durable bool
	// FsyncPolicy picks the journal fsync discipline when Durable:
	// "interval" (default) flushes dirty journals every FsyncInterval on a
	// background syncer, "always" group-commits an fsync before every edit
	// acknowledgement, "never" leaves write-back to the kernel. All three
	// survive a process crash (appends are synchronous write(2)s); the
	// policy only decides what a power failure can take.
	FsyncPolicy string
	// FsyncInterval is the background flush period under FsyncPolicy
	// "interval" (default 50ms) — the upper bound on edits a power failure
	// can lose.
	FsyncInterval time.Duration
	// DeltaSnapshots is accepted and ignored: a durable store always evicts a
	// session whose base + journal already reproduce its state without
	// writing. The field survives only because bench/serve_sessions.go sets
	// it and bench/ was frozen for the PR that removed the option; the next
	// benchmark PR should delete both.
	DeltaSnapshots bool
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.RecalcWorkers == 0 {
		o.RecalcWorkers = runtime.GOMAXPROCS(0)
	}
	if o.RecalcWorkers < 0 {
		o.RecalcWorkers = -1
	}
	if o.RecalcChunk <= 0 {
		o.RecalcChunk = 256
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 50 * time.Millisecond
	}
	return o
}

// Session is one hosted workbook session. The zero rev is the freshly
// created state; every successful edit batch increments it, so clients can
// detect missed updates cheaply.
type Session struct {
	// ID is the server-assigned session identifier.
	ID string
	// Name is the optional client-supplied label.
	Name string

	mu      sync.RWMutex
	eng     *engine.Engine // nil while spilled
	rev     uint64
	deleted bool
	// pending counts dirty cells awaiting background recalculation (guarded
	// by mu). Reads serve last-computed values and report this so clients
	// can distinguish settled values from in-flight ones.
	pending int
	// snapRev is the revision the session's base snapshot holds (snapHeld:
	// one exists at all). The base is the session's own spill file, or —
	// while baseID is set — the frozen <baseID>.<snapRev>.tacob it shares
	// copy-on-write with the session it was forked from (fork.go).
	// baseBytes is the base's size (0 = unknown, e.g. boot-recovered).
	// Guarded by mu.
	snapRev   uint64
	snapHeld  bool
	baseID    string
	baseBytes int64
	// Journal-tail state, guarded by mu: what is known in memory about the
	// journal records above the base, so eviction decides whether base +
	// journal already reproduce the session without opening the file. While
	// tailBroken is false the journal holds exactly the records
	// (snapRev, rev], contiguously; tailBroken marks a revision that never
	// reached it (non-durable store, failed append, shipped gap).
	// tailStructural marks a tail record that is not a plain value
	// assignment — replaying it would not leave the pinned graph as it is.
	// tailBytes is the framed size of the journal's records. Maintained by
	// every revision bump, recomputed by replayJournal, reset by a full
	// write.
	tailBytes      int64
	tailStructural bool
	tailBroken     bool
	// graph pins the session's compressed formula graph across a spill (nil
	// while resident, and for a session recovered at boot, which has not yet
	// been restored). The compressed graph is the compact part of a
	// session, so keeping it lets restores skip the graph decode. Guarded by
	// mu; valid only while eng == nil.
	graph *core.Graph
	// queued marks a worker turn — in the recalc queue or mid-chunk on a
	// worker — guarded by the store's recalc mutex, not the session lock.
	queued bool
	// draining marks the drain's one owner, a worker or a Wait barrier, from
	// its claim to its chunk's end; waiters counts the Wait barriers, which
	// fence revision-bumping writes; drained wakes sleepers at a chunk's end
	// and at the last waiter's exit. Guarded by mu.
	draining bool
	waiters  int
	drained  sync.Cond
	// jw is the session's edit journal writer, opened lazily on the first
	// journaled edit of a durable store (guarded by mu).
	jw *journal.Writer
	// corrupt poisons a session whose spill file failed its integrity check
	// at restore; the file is quarantined and every touch returns
	// ErrSnapshotCorrupt rather than serving bad data. Guarded by mu.
	corrupt bool
	// Degradation state (degrade.go), guarded by mu: while degraded, writes
	// are fenced with ErrSessionDegraded (reads still serve) and the store's
	// repair worker retries the broken durability path on repairBackoff.
	// pendingRecs buffers acknowledged batches whose journal append failed,
	// in rev order, until the repairer lands them.
	degraded       bool
	degradedReason string
	degradedSince  time.Time
	pendingRecs    []pendingRecord
	repairBackoff  journal.Backoff

	shard *shard
	elem  *list.Element // LRU position; nil while spilled (guarded by shard.mu)
	// tick is the store-wide logical time of the last touch; eviction picks
	// the resident session with the smallest tick across shard tails.
	tick atomic.Uint64
	// unevictable marks a session whose snapshot failed to write (disk
	// full, oversized content). Eviction skips it so one bad session cannot
	// stall the LRU and let residents grow unboundedly.
	unevictable atomic.Bool
}

// Rev returns the session's revision counter.
func (s *Session) Rev() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rev
}

// Pending returns the number of cells awaiting background recalculation.
func (s *Session) Pending() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pending
}

// Resident reports whether the session is currently in memory.
func (s *Session) Resident() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng != nil
}

type shard struct {
	mu       sync.Mutex
	sessions map[string]*Session
	lru      *list.List // resident sessions; front = most recently used
	resident int
}

// Store is the sharded session store. Sessions are hash-sharded by ID; each
// shard has its own index lock and LRU list, and each session its own
// RWMutex, so requests for different sessions never serialise on shared
// state beyond the brief index lookup.
type Store struct {
	opts   StoreOptions
	shards []*shard

	// recalc is the store-owned background recalculation queue: sessions
	// with pending dirty cells, drained by the worker pool in bounded
	// chunks. The queue is FIFO and a session goes to the tail after every
	// bounded hold, so drain capacity round-robins fairly across sessions —
	// one giant recalculation shares the workers with everyone else instead
	// of monopolising them. Lock order: rq.mu is leaf-only on the enqueue
	// side (callers may hold a session lock); workers never hold rq.mu
	// while taking a session lock.
	rq struct {
		mu     sync.Mutex
		cond   *sync.Cond
		queue  []*Session
		closed bool
	}
	wg sync.WaitGroup
	// drainsInFlight counts the goroutines inside drainChunk — at most one
	// per session — surfaced in Stats.
	drainsInFlight atomic.Int64

	// Durability layer (nil / zero unless StoreOptions.Durable): fsync
	// policy, the shared background syncer (interval policy), and the
	// persistent session registry. See durability.go.
	pol    journal.Policy
	syncer *journal.Syncer
	reg    *journal.Registry

	// refs counts live sessions referencing each frozen base by path; the
	// last decref unlinks the file. Rebuilt from the registry at boot. refMu
	// is a leaf lock, safe under a session lock. See fork.go.
	refMu sync.Mutex
	refs  map[string]int

	// repq is the degraded-session repair queue (degrade.go): one worker,
	// deduplicated entries, per-session capped backoff between attempts.
	// Lock order: repq.mu is a leaf, safe under a session lock.
	repq struct {
		mu     sync.Mutex
		cond   *sync.Cond
		queue  []*Session
		queued map[*Session]bool
		closed bool
	}
	degradedCount atomic.Int64

	// readOnly fences every write path with ErrStandby (503): the store is
	// following a primary and applies nothing except shipped records.
	// Promotion flips it off (replication.go).
	readOnly atomic.Bool

	clock       atomic.Uint64
	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	restores    atomic.Uint64
	recalcs     atomic.Uint64 // background drains completed
	snapSkips   atomic.Uint64 // evictions that skipped an unchanged snapshot write
	spillReads  atomic.Uint64 // spilled bases streamed to a standby without restoring
	recovered   atomic.Uint64 // sessions re-registered from the registry at boot
	replayed    atomic.Uint64 // journal records replayed at restores
	quarantined atomic.Uint64 // spill files quarantined as corrupt
}

// NewStore builds a session store. It creates SpillDir when eviction is
// enabled.
func NewStore(opts StoreOptions) (*Store, error) {
	opts = opts.withDefaults()
	if opts.MaxResident > 0 && opts.SpillDir == "" {
		return nil, errors.New("server: MaxResident requires SpillDir")
	}
	if opts.Durable && opts.SpillDir == "" {
		return nil, errors.New("server: Durable requires SpillDir")
	}
	if opts.SpillDir != "" {
		if err := os.MkdirAll(opts.SpillDir, 0o755); err != nil {
			return nil, err
		}
	}
	st := &Store{opts: opts, shards: make([]*shard, opts.Shards)}
	st.refs = make(map[string]int)
	for i := range st.shards {
		st.shards[i] = &shard{sessions: make(map[string]*Session), lru: list.New()}
	}
	if opts.Durable {
		if err := st.openDurability(); err != nil {
			return nil, err
		}
		st.bootRecover()
		st.sweepOrphans()
	}
	st.rq.cond = sync.NewCond(&st.rq.mu)
	st.repq.cond = sync.NewCond(&st.repq.mu)
	st.repq.queued = make(map[*Session]bool)
	st.wg.Add(1)
	go st.repairWorker()
	if opts.RecalcWorkers > 0 {
		st.wg.Add(opts.RecalcWorkers)
		for i := 0; i < opts.RecalcWorkers; i++ {
			go st.recalcWorker()
		}
	}
	storeGaugesOnce.Do(registerStoreGauges)
	liveStores.Store(st, struct{}{})
	return st, nil
}

// Options returns the store's effective configuration (defaults applied) —
// for startup logging and diagnostics.
func (st *Store) Options() StoreOptions { return st.opts }

// Close stops the background recalculation workers, waiting for them to
// exit. Undrained sessions simply keep their dirty sets; the spill path
// drains before writing, so no state is lost. Wait barriers after Close
// still settle: with no worker left, the waiter owns the drain.
func (st *Store) Close() {
	liveStores.Delete(st)
	st.rq.mu.Lock()
	closed := st.rq.closed
	if !closed {
		st.rq.closed = true
		st.rq.cond.Broadcast()
	}
	st.rq.mu.Unlock()
	st.repq.mu.Lock()
	if !st.repq.closed {
		st.repq.closed = true
		st.repq.cond.Broadcast()
	}
	st.repq.mu.Unlock()
	st.wg.Wait()
	if st.opts.Durable && !closed {
		st.closeDurability()
	}
}

// enqueueRecalc registers a session for background draining. Safe to call
// while holding the session lock; duplicate enqueues collapse.
func (st *Store) enqueueRecalc(s *Session) {
	st.rq.mu.Lock()
	if !st.rq.closed && !s.queued {
		s.queued = true
		st.rq.queue = append(st.rq.queue, s)
		st.rq.cond.Signal()
	}
	st.rq.mu.Unlock()
}

// endTurnLocked ends a worker's turn: back to the queue's tail while work
// remains. Under s.mu, so an edit lands before the decision or enqueues
// after it.
func (st *Store) endTurnLocked(s *Session, more bool) {
	st.rq.mu.Lock()
	if more && !st.rq.closed {
		st.rq.queue = append(st.rq.queue, s)
		st.rq.cond.Signal()
	} else {
		s.queued = false
	}
	st.rq.mu.Unlock()
}

func (st *Store) recalcWorker() {
	defer st.wg.Done()
	for {
		st.rq.mu.Lock()
		for len(st.rq.queue) == 0 && !st.rq.closed {
			st.rq.cond.Wait()
		}
		if st.rq.closed {
			st.rq.mu.Unlock()
			return
		}
		s := st.rq.queue[0]
		st.rq.queue = st.rq.queue[1:]
		st.rq.mu.Unlock()
		s.mu.Lock()
		if s.draining { // a Wait barrier owns it and settles it before leaving
			st.endTurnLocked(s, false)
			s.mu.Unlock()
			continue
		}
		s.draining = true
		s.mu.Unlock()
		st.drainChunk(s, true)
	}
}

// drainChunk, the store's only drainer, recalculates one bounded chunk of a
// session's dirty cells under one short session-lock hold; its caller owns
// the drain (draining set). The engine's resumable wavefront schedule
// persists across holds, so a hold stays at RecalcChunk evaluations (at most
// one truncated level): readers take the lock between holds, and an edit
// landing between them starts a dirty generation whose first hold rebuilds
// the remaining schedule. The chunk's end releases the drain, wakes the
// sleepers and, on a worker's turn, re-queues the session.
func (st *Store) drainChunk(s *Session, worker bool) {
	st.drainsInFlight.Add(1)
	s.mu.Lock()
	s.pending = 0 // deleted, or spilled with its dirty set drained or kept
	if !s.deleted && s.eng != nil && s.eng.Pending() > 0 {
		// The hold timer runs inside the lock so the sample is published
		// before any barrier observes pending == 0, and because the hold IS
		// the quantity measured: how long a reader can stall behind a chunk.
		holdStart := time.Now()
		s.eng.RecalculateN(st.opts.RecalcChunk)
		mDrainHold.Observe(time.Since(holdStart).Seconds())
		if s.pending = s.eng.Pending(); s.pending == 0 {
			st.recalcs.Add(1)
			mDrains.Inc()
		}
	}
	if worker {
		st.endTurnLocked(s, s.pending > 0)
	}
	st.drainsInFlight.Add(-1) // before the next owner can claim the drain
	s.draining = false
	s.drained.Broadcast()
	s.mu.Unlock()
}

// sleepLocked waits on drained. Called with s.mu held; returns with it held.
func (s *Session) sleepLocked() {
	if s.drained.L == nil {
		s.drained.L = &s.mu
	}
	s.drained.Wait()
}

// Wait is the read-your-writes barrier: it blocks until the session has no
// pending recalculation. It registers as a waiter, which fences the
// session's revision-bumping writes, so it drains at most the backlog it
// found. While a chunk runs it sleeps; otherwise it owns the drain and runs
// the next chunk itself, in the bounded holds a worker takes. A spilled
// session whose base is current, or an already-clean one, is a no-op — a
// base write drains first — which keeps barriers from faulting cold
// sessions back in and evicting warm ones.
func (st *Store) Wait(id string) error {
	s, err := st.lookup(id)
	if err != nil {
		return err
	}
	s.mu.RLock()
	// A non-resident session with a journal tail above its base (evicted
	// without a write, or boot-recovered) is NOT settled even though it has
	// no engine: eviction dropped residency without draining, and restore
	// re-dirties every replayed edit — the barrier must fault it in so those
	// cells drain.
	tail := !s.deleted && s.eng == nil && s.rev != s.snapRev
	settled := !s.deleted && !tail && (s.eng == nil || s.pending == 0)
	s.mu.RUnlock()
	if settled {
		return nil
	}
	if tail {
		if err := st.withResident(s, false, func(*engine.Engine) error { return nil }); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waiters++
	for !s.deleted && s.eng != nil && s.eng.Pending() > 0 {
		if s.draining {
			s.sleepLocked()
			continue
		}
		s.draining = true
		s.mu.Unlock()
		st.drainChunk(s, false)
		s.mu.Lock()
	}
	if s.waiters--; s.waiters == 0 {
		s.drained.Broadcast() // lift the write fence
	}
	if s.deleted {
		return ErrSessionDeleted
	}
	return nil
}

func (st *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return st.shards[h.Sum32()%uint32(len(st.shards))]
}

func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: session id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Create registers a new session around an engine and returns it. The
// insertion may push the store over MaxResident, in which case the coldest
// sessions are spilled before Create returns.
func (st *Store) Create(name string, eng *engine.Engine) *Session {
	s := &Session{ID: newSessionID(), Name: name, eng: eng}
	if st.opts.Durable {
		st.recordCreate(s, eng)
	}
	s.tick.Store(st.clock.Add(1))
	sh := st.shardFor(s.ID)
	s.shard = sh
	sh.mu.Lock()
	sh.sessions[s.ID] = s
	s.elem = sh.lru.PushFront(s)
	sh.resident++
	sh.mu.Unlock()
	mSessionsCreated.Inc()
	st.evictOverflow()
	return s
}

// View runs fn with the session's engine under the session read lock.
// Engine reads are side-effect-free (Value/Peek never evaluate), so graph
// queries, value reads, and metadata are all safe here and run concurrently;
// use Update for mutations. A spilled session is restored first, its spill
// file checked against its CRC: View is the only way a read reaches a
// session's cells or graph.
func (st *Store) View(id string, fn func(*Session, *engine.Engine) error) error {
	s, err := st.lookup(id)
	if err != nil {
		return err
	}
	s.mu.RLock()
	if s.eng != nil && !s.deleted {
		defer s.mu.RUnlock()
		return fn(s, s.eng)
	}
	s.mu.RUnlock()
	// Spilled (or racing a delete): take the write lock and restore.
	return st.withResident(s, false, func(eng *engine.Engine) error { return fn(s, eng) })
}

// Update runs fn with the session's engine under the session write lock,
// restoring it from its spill file first when necessary. When fn returns nil
// and bumpRev is true, the revision counter is incremented. Revision-bumping
// updates (the write path) are fenced while the session is degraded.
func (st *Store) Update(id string, bumpRev bool, fn func(*Session, *engine.Engine) error) error {
	s, err := st.lookup(id)
	if err != nil {
		return err
	}
	return st.withResident(s, bumpRev, func(eng *engine.Engine) error {
		if bumpRev && s.degraded {
			return ErrSessionDegraded
		}
		if err := fn(s, eng); err != nil {
			return err
		}
		if bumpRev {
			s.rev++
			s.tailBroken = true // a revision no journal holds: only a base write can
		}
		return nil
	})
}

// Peek finds a session without touching its LRU position or miss/hit
// counters — for metadata reads that must not influence eviction.
func (st *Store) Peek(id string) (*Session, error) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	s := sh.sessions[id]
	sh.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	return s, nil
}

// lookup finds the session and touches its LRU position.
func (st *Store) lookup(id string) (*Session, error) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	s := sh.sessions[id]
	if s != nil {
		s.tick.Store(st.clock.Add(1))
		if s.elem != nil {
			sh.lru.MoveToFront(s.elem)
		}
	}
	sh.mu.Unlock()
	if s == nil {
		st.misses.Add(1)
		mLookupMisses.Inc()
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	st.hits.Add(1)
	mLookupHits.Inc()
	return s, nil
}

// withResident runs fn under the session write lock, restoring the engine
// from disk if it was spilled; a write (a revision bump) first sleeps out
// any Wait barrier. Eviction overflow is handled after the session lock is
// released — a goroutine never holds two session locks, so spills cannot
// deadlock with restores.
func (st *Store) withResident(s *Session, write bool, fn func(*engine.Engine) error) error {
	s.mu.Lock()
	for write && s.waiters > 0 {
		s.sleepLocked()
	}
	if s.deleted {
		s.mu.Unlock()
		return ErrSessionDeleted
	}
	restored := false
	if s.eng == nil {
		// restoreEngine reads the snapshot (integrity-checked) and replays
		// any journal tail. When rev == snapRev afterwards the file holds
		// exactly this state and eviction can drop residency without
		// rewriting; a replayed session keeps rev > snapRev, forcing the
		// next spill to write a fresh snapshot.
		eng, err := st.restoreEngine(s)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("server: restore session %s: %w", s.ID, err)
		}
		s.eng = eng
		s.graph = nil // live again; the engine owns it now
		restored = true
		st.restores.Add(1)
		mRestores.Inc()
		sh := s.shard
		sh.mu.Lock()
		s.elem = sh.lru.PushFront(s)
		sh.resident++
		sh.mu.Unlock()
	}
	err := fn(s.eng)
	// Refresh the pending count and hand any new dirty cells to the
	// background pool. This is the asynchronous model's control-return
	// point: fn did graph maintenance and the dirty-set traversal only.
	s.pending = s.eng.Pending()
	enqueue := s.pending > 0 && st.opts.RecalcWorkers > 0
	s.mu.Unlock()
	if enqueue {
		st.enqueueRecalc(s)
	}
	if restored {
		st.evictOverflow()
	}
	return err
}

// Delete removes a session and its spill file. It is idempotent.
func (st *Store) Delete(id string) error {
	sh := st.shardFor(id)
	sh.mu.Lock()
	s := sh.sessions[id]
	if s == nil {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	delete(sh.sessions, id)
	sh.mu.Unlock()
	s.mu.Lock()
	s.deleted = true
	s.eng = nil
	s.graph = nil
	if s.degraded {
		s.degraded = false
		s.pendingRecs = nil
		st.degradedCount.Add(-1)
	}
	jw := s.jw
	s.jw = nil
	frozen := st.frozenBaseLocked(s)
	s.baseID = ""
	// Unlink from the LRU while still holding s.mu (the permitted s.mu ->
	// sh.mu order): a restore that raced the map removal above may have
	// re-registered the session, and leaving it listed would permanently
	// overcount residents and skew eviction.
	sh.mu.Lock()
	if s.elem != nil {
		sh.lru.Remove(s.elem)
		s.elem = nil
		sh.resident--
	}
	sh.mu.Unlock()
	s.mu.Unlock()
	if jw != nil {
		jw.Close()
	}
	if st.opts.SpillDir != "" {
		os.Remove(st.spillPath(id))
	}
	// A frozen base goes away only with its last referent — a forked child
	// keeps its parent's base alive past the parent's deletion.
	if frozen != "" {
		st.decref(frozen)
	}
	if st.opts.Durable {
		st.recordDelete(id)
	}
	mSessionsDeleted.Inc()
	return nil
}

// Each visits every session (unspecified order) until fn returns false.
func (st *Store) Each(fn func(*Session) bool) {
	for _, sh := range st.shards {
		sh.mu.Lock()
		batch := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			batch = append(batch, s)
		}
		sh.mu.Unlock()
		for _, s := range batch {
			if !fn(s) {
				return
			}
		}
	}
}

func (st *Store) spillPath(id string) string {
	return filepath.Join(st.opts.SpillDir, id+".tacos")
}

// evictOverflow spills least-recently-used sessions until the resident count
// is back under MaxResident. Called only while the caller holds no session
// lock.
func (st *Store) evictOverflow() {
	if st.opts.MaxResident <= 0 {
		return
	}
	for st.residentCount() > st.opts.MaxResident {
		victim := st.coldest()
		if victim == nil {
			return
		}
		if err := st.spill(victim); err != nil {
			// Spill failure (disk full, unsnapshottable content): put the
			// victim back so it stays servable, mark it so coldest skips
			// it from now on, and keep shrinking with other victims. The
			// session degrades — reads fine, writes fenced — until the
			// repair worker lands a snapshot again.
			mSpillErrors.Inc()
			victim.unevictable.Store(true)
			victim.mu.Lock()
			st.degradeLocked(victim, degradedSpill, nil)
			victim.mu.Unlock()
			st.scheduleRepair(victim)
			sh := victim.shard
			sh.mu.Lock()
			if victim.elem == nil {
				victim.elem = sh.lru.PushFront(victim)
				sh.resident++
			}
			sh.mu.Unlock()
		}
	}
}

// coldest pops the globally least-recently-touched evictable session,
// approximated as the oldest tick among the shard LRU tails (unevictable
// sessions are passed over). Returns nil when nothing is evictable.
func (st *Store) coldest() *Session {
	// evictableTail walks from the shard's LRU tail past unevictable
	// entries. Caller holds sh.mu.
	evictableTail := func(sh *shard) *list.Element {
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			if !el.Value.(*Session).unevictable.Load() {
				return el
			}
		}
		return nil
	}
	var best *shard
	var bestTick uint64
	for _, sh := range st.shards {
		sh.mu.Lock()
		if el := evictableTail(sh); el != nil {
			t := el.Value.(*Session).tick.Load()
			if best == nil || t < bestTick {
				best, bestTick = sh, t
			}
		}
		sh.mu.Unlock()
	}
	if best == nil {
		return nil
	}
	best.mu.Lock()
	defer best.mu.Unlock()
	el := evictableTail(best)
	if el == nil {
		return nil
	}
	victim := el.Value.(*Session)
	best.lru.Remove(el)
	victim.elem = nil
	best.resident--
	return victim
}

// bufPool recycles spill serialisation buffers; brPool recycles sized read
// buffers. Both exist because the eviction loop runs constantly under a
// resident cap — one allocation per spill or restore is one allocation too
// many.
var (
	bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	brPool  = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}
)

// maxTailRecords caps the journal records an eviction may leave above the
// base: replaying one costs roughly a seventh of restoring a whole base, so
// the record count, not the byte count, is what bounds restore latency.
const maxTailRecords = 32

// tailReplayableLocked reports whether base + journal already reproduce the
// session, so eviction may drop residency without writing. Everything above
// the base must be in the journal and value-only (the pinned graph stays
// exact), the session healthy, and the tail under its
// caps; capped reports a refusal on the caps alone. The byte cap — once the
// tail outweighs half the base, replaying it approaches the cost of restoring
// the sheet itself — is skipped while the base size is unknown. Decided from
// in-memory state only. Called with s.mu held.
func (s *Session) tailReplayableLocked() (ok, capped bool) {
	if !s.snapHeld || s.degraded || s.tailBroken || s.tailStructural {
		return false, false
	}
	if s.rev-s.snapRev > maxTailRecords || (s.baseBytes > 0 && s.tailBytes > s.baseBytes/2) {
		return false, true
	}
	return true, false
}

// spill releases the victim's in-memory state, first writing a full base
// snapshot unless base + journal already hold the state. A session touched
// between LRU removal and here is simply spilled anyway — the next touch
// restores it (approximate LRU).
func (st *Store) spill(victim *Session) error {
	victim.mu.Lock()
	defer victim.mu.Unlock()
	if victim.eng == nil || victim.deleted {
		return nil
	}
	replayable, capped := victim.tailReplayableLocked()
	switch {
	case !replayable:
		// writeFullLocked drains pending recalculation before serialising, so
		// the stored values are authoritative.
		if err := st.writeFullLocked(victim); err != nil {
			return err
		}
		if capped {
			mDeltaCompactions.Inc()
		}
	case victim.rev == victim.snapRev:
		// The base already holds this exact state — the session has only been
		// read since. Restoring the file reproduces the engine (including any
		// still-unevaluated oversized-value cells, which the snapshot
		// round-trips as dirty).
		st.snapSkips.Add(1)
		mSnapSkips.Inc()
	default:
		// The journal holds the value edits above the base. Restore replays
		// them through the bulk-edit path, re-dirtying their dependents, so
		// pending recalculation need not drain before residency drops.
		mDeltaWrites.Inc()
	}
	victim.graph = victim.eng.TACOGraph()
	victim.eng.Recycle()
	victim.eng = nil
	victim.pending = 0
	st.evictions.Add(1)
	mEvictions.Inc()
	return nil
}

// readSpill restores an engine from the snapshot file at path, verifying
// the snapshot's whole-file checksum first. With a pinned graph the restore
// decodes only the cell section and rebuilds around it.
func (st *Store) readSpill(path string, pinned *core.Graph) (*engine.Engine, error) {
	data, err := faultfs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := engine.CheckSnapshotIntegrity(data); err != nil {
		return nil, err
	}
	br := brPool.Get().(*bufio.Reader)
	br.Reset(bytes.NewReader(data))
	defer func() { br.Reset(nil); brPool.Put(br) }()
	if pinned != nil {
		return engine.RestoreSnapshotWithGraph(br, pinned)
	}
	return engine.RestoreSnapshot(br)
}

func (st *Store) residentCount() int {
	n := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		n += sh.resident
		sh.mu.Unlock()
	}
	return n
}

// StoreStats is the store-wide health snapshot served by GET /stats.
type StoreStats struct {
	Sessions  int    `json:"sessions"`
	Resident  int    `json:"resident"`
	Spilled   int    `json:"spilled"`
	Shards    int    `json:"shards"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Restores  uint64 `json:"restores"`
	// Recalcs counts drains settled, by a worker or a Wait barrier.
	Recalcs uint64 `json:"recalcs"`
	// SnapSkips counts evictions that dropped residency without rewriting an
	// unchanged snapshot.
	SnapSkips uint64 `json:"snap_skips"`
	// SpillReads counts spilled base snapshots the replication snapshot
	// endpoint streamed to a standby without restoring the session.
	SpillReads uint64 `json:"spill_reads"`
	// RecalcQueue is the number of sessions currently queued for a drain
	// worker — the recalculation backlog's breadth.
	RecalcQueue int `json:"recalc_queue"`
	// DrainsInFlight is the number of recalculation chunks running right
	// now, at most one per session.
	DrainsInFlight int `json:"drains_in_flight"`
	// Durable reports whether the store journals edits for crash recovery.
	Durable bool `json:"durable,omitempty"`
	// RecoveredSessions counts sessions re-registered from the persistent
	// registry at warm boot.
	RecoveredSessions uint64 `json:"recovered_sessions,omitempty"`
	// ReplayedRecords counts journal records replayed onto restored
	// snapshots since boot.
	ReplayedRecords uint64 `json:"replayed_records,omitempty"`
	// QuarantinedSnapshots counts spill files that failed their integrity
	// check and were renamed aside as *.corrupt.
	QuarantinedSnapshots uint64 `json:"quarantined_snapshots,omitempty"`
	// DegradedSessions is the number of sessions currently write-fenced by a
	// durability fault (journal append or snapshot write failure) awaiting
	// background repair.
	DegradedSessions int `json:"degraded_sessions,omitempty"`
	// ReadOnly reports a standby store: writes are rejected with 503 until
	// promotion.
	ReadOnly bool `json:"read_only,omitempty"`
}

// Stats summarises the store.
func (st *Store) Stats() StoreStats {
	total := 0
	resident := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		total += len(sh.sessions)
		resident += sh.resident
		sh.mu.Unlock()
	}
	st.rq.mu.Lock()
	queued := len(st.rq.queue)
	st.rq.mu.Unlock()
	return StoreStats{
		Sessions:       total,
		Resident:       resident,
		Spilled:        total - resident,
		Shards:         len(st.shards),
		Hits:           st.hits.Load(),
		Misses:         st.misses.Load(),
		Evictions:      st.evictions.Load(),
		Restores:       st.restores.Load(),
		Recalcs:        st.recalcs.Load(),
		SnapSkips:      st.snapSkips.Load(),
		SpillReads:     st.spillReads.Load(),
		RecalcQueue:    queued,
		DrainsInFlight: int(st.drainsInFlight.Load()),

		Durable:              st.opts.Durable,
		RecoveredSessions:    st.recovered.Load(),
		ReplayedRecords:      st.replayed.Load(),
		QuarantinedSnapshots: st.quarantined.Load(),
		DegradedSessions:     int(st.degradedCount.Load()),
		ReadOnly:             st.readOnly.Load(),
	}
}
