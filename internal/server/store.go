// Package server is the multi-tenant serving layer: it hosts many concurrent
// workbook sessions, each backed by an engine.Engine over its own TACO
// graph, behind a sharded session store and a JSON HTTP API. This is the
// DataSpread-style deployment the paper targets — compressed formula graphs
// answering dependents queries and driving incremental recalculation for
// live, concurrently edited spreadsheets.
package server

import (
	"bytes"
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
	// the store's SIEVE hand picks sessions not looked up since it last
	// passed them and spills them to SpillDir (a base snapshot, or nothing
	// where base + journal already hold the session), to be restored lazily
	// on next touch. 0 means unlimited.
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
// detect missed updates cheaply. Its lifecycle — residency, what its files
// hold, health — is the typed state of lifecycle.go, guarded by mu and
// changed only by the transitions there; the rest is drain ownership, the
// journal writer and the eviction ring's bookkeeping.
type Session struct {
	// ID is the server-assigned session identifier.
	ID string
	// Name is the optional client-supplied label.
	Name string

	mu  sync.RWMutex
	rev uint64
	// pending counts dirty cells awaiting background recalculation (guarded
	// by mu). Reads serve last-computed values and report this so clients
	// can distinguish settled values from in-flight ones.
	pending int

	// The lifecycle parts (lifecycle.go). eng is set only while resident, and
	// with it the session's links in the store's eviction ring (newer, older,
	// guarded by the ring's mu); graph pins the compressed graph across a
	// spill, so a restore skips its decode (nil until a boot-recovered or
	// forked session is first restored).
	res    residency
	eng    *engine.Engine
	graph  *core.Graph
	disk   diskState
	health health

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

	// ring is the store's eviction ring; newer and older link the session
	// into it while it is resident.
	ring         *ring
	newer, older *Session
	// visited is SIEVE's bit: every lookup sets it, and entering the ring
	// and the hand passing over the session clear it.
	visited atomic.Bool
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
	return s.res == resident
}

type shard struct {
	mu       sync.Mutex
	sessions map[string]*Session
}

// ring is the store's eviction order, SIEVE (Zhang et al., "SIEVE is Simpler
// than LRU", NSDI 2024): the resident sessions in the order they entered,
// newest at the head, and a hand that walks from the tail toward the head
// and wraps around. A lookup only sets the session's visited bit, so a hit
// moves nothing and takes no lock here; the hand clears the bits it passes
// and stops at the first unvisited session it can claim. Lock order: a
// session's mu, then mu; coldest, which holds mu, only TryLocks sessions.
type ring struct {
	mu         sync.Mutex
	head, tail *Session
	hand       *Session // the next session the walk looks at; nil: the tail
	n          int
}

// push links s in at the head.
func (r *ring) push(s *Session) {
	r.mu.Lock()
	s.newer, s.older = nil, r.head
	if r.head != nil {
		r.head.newer = s
	} else {
		r.tail = s
	}
	r.head = s
	r.n++
	r.mu.Unlock()
}

// remove unlinks s; a hand pointing at it first moves one step toward the
// head.
func (r *ring) remove(s *Session) {
	r.mu.Lock()
	if r.hand == s {
		r.hand = s.newer
	}
	if s.newer != nil {
		s.newer.older = s.older
	} else {
		r.head = s.older
	}
	if s.older != nil {
		s.older.newer = s.newer
	} else {
		r.tail = s.newer
	}
	s.newer, s.older = nil, nil
	r.n--
	r.mu.Unlock()
}

func (r *ring) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Store is the sharded session store. Sessions are hash-sharded by ID; each
// shard has its own index lock, each session its own RWMutex, and the
// resident sessions one store-wide eviction ring that a lookup never locks,
// so requests for different sessions never serialise on shared state beyond
// the brief index lookup.
type Store struct {
	opts   StoreOptions
	shards []*shard
	ring   ring

	// recalc is the store-owned background recalculation queue: sessions
	// with pending dirty cells, drained by the worker pool in bounded
	// chunks. The queue is FIFO and a session goes to the tail after every
	// bounded hold, so drain capacity round-robins fairly across sessions —
	// one giant recalculation shares the workers with everyone else instead
	// of monopolising them. Lock order: rq.mu is leaf-only on the enqueue
	// side (callers may hold a session lock); workers never hold rq.mu
	// while taking a session lock. closed also bars new repair loops
	// (degrade.go), and stop ends the waiting ones.
	rq struct {
		mu     sync.Mutex
		cond   *sync.Cond
		queue  []*Session
		closed bool
	}
	stop chan struct{}
	wg   sync.WaitGroup
	// drainsInFlight counts the goroutines inside drainChunk — at most one
	// per session — surfaced in Stats.
	drainsInFlight atomic.Int64
	// spilling counts the still-resident victims evictors hold mid-spill, so
	// a second evictor neither waits on their base writes nor evicts for them.
	spilling atomic.Int64

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

	degradedCount atomic.Int64

	// readOnly fences every write path with ErrStandby (503): the store is
	// following a primary and applies nothing except shipped records.
	// Promotion flips it off (replication.go).
	readOnly atomic.Bool

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
	st := &Store{opts: opts, shards: make([]*shard, opts.Shards), stop: make(chan struct{})}
	st.refs = make(map[string]int)
	for i := range st.shards {
		st.shards[i] = &shard{sessions: make(map[string]*Session)}
	}
	if opts.Durable {
		if err := st.openDurability(); err != nil {
			return nil, err
		}
		st.bootRecover()
		st.sweepOrphans()
	}
	st.rq.cond = sync.NewCond(&st.rq.mu)
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

// Close stops the background recalculation workers and repair loops,
// waiting for them to exit. Undrained sessions simply keep their dirty sets;
// the spill path drains before writing, so no state is lost. Wait barriers
// after Close still settle: with no worker left, the waiter owns the drain.
func (st *Store) Close() {
	liveStores.Delete(st)
	st.rq.mu.Lock()
	closed := st.rq.closed
	if !closed {
		st.rq.closed = true
		st.rq.cond.Broadcast()
		close(st.stop)
	}
	st.rq.mu.Unlock()
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
	if s.res == resident && s.eng.Pending() > 0 {
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
func (st *Store) Wait(id string) error { return st.waitView(id, nil) }

// waitView is Wait that, with fn set, also reads the settled session: fn
// runs on its engine inside the barrier's final hold, so no eviction can
// come between the barrier and the read and leave a replayed tail dirty
// again. The ?wait=1 reads use it.
//
// The barrier registers as a waiter before it faults a session in, and
// coldest passes over a session with waiters, so the overflow a restore
// triggers cannot spill the session between its fault-in and its drain.
func (st *Store) waitView(id string, fn func(*Session, *engine.Engine) error) error {
	s, err := st.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	// A non-resident session with a journal tail above its base is NOT
	// settled: eviction dropped residency without draining, and restore
	// re-dirties every replayed edit — the barrier faults it in to drain.
	tail := (s.res == spilled || s.res == quarantined) && s.rev != s.disk.rev
	settled := s.res != deleted && !tail && (s.res != resident || s.pending == 0)
	if settled && fn == nil {
		s.mu.Unlock()
		return nil
	}
	s.waiters++
	defer func() {
		if s.waiters--; s.waiters == 0 {
			s.drained.Broadcast() // lift the write fence
		}
		s.mu.Unlock()
	}()
	if s.res != resident && s.res != deleted {
		s.mu.Unlock()
		err := st.withResident(s, false, func(*engine.Engine) error { return nil })
		s.mu.Lock()
		if err != nil {
			return err
		}
	}
	for s.res == resident && s.eng.Pending() > 0 {
		if s.draining {
			s.sleepLocked()
			continue
		}
		s.draining = true
		s.mu.Unlock()
		st.drainChunk(s, false)
		s.mu.Lock()
	}
	if s.res == deleted {
		return ErrSessionDeleted
	}
	if fn != nil {
		return fn(s, s.eng)
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
	s, _ := st.admit(newSessionID(), name, eng, 0) // cannot fail: a fresh random ID
	return s
}

// register publishes a session in its shard's index; it fails when the ID
// is taken.
func (st *Store) register(s *Session) error {
	sh := st.shardFor(s.ID)
	s.ring = &st.ring
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.sessions[s.ID]; dup {
		return fmt.Errorf("server: session %s already exists", s.ID)
	}
	sh.sessions[s.ID] = s
	return nil
}

// admit registers a resident session at rev around eng (Create, and
// CreateReplica at the shipped revision) and, on a durable store, makes it
// durable before anyone can write it: a non-empty engine through the
// checkpoint, an empty one — which needs no base — with its registry entry
// alone. A failure degrades the session as a failed eviction does, so its
// writes are fenced until the repairer lands the base and the entry.
func (st *Store) admit(id, name string, eng *engine.Engine, rev uint64) (*Session, error) {
	s := &Session{ID: id, Name: name}
	s.mu.Lock()
	if err := st.register(s); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.create(eng, rev)
	if st.opts.Durable {
		var err error
		if eng.NumCells() > 0 {
			err = st.writeFullLocked(s)
		} else {
			err = st.putEntries(regEntryLocked(s))
		}
		if err != nil {
			st.baseFailedLocked(s)
		}
	}
	s.mu.Unlock()
	mSessionsCreated.Inc()
	st.evictOverflow()
	return s, nil
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
	if s.res == resident {
		defer s.mu.RUnlock()
		return fn(s, s.eng)
	}
	s.mu.RUnlock()
	// Spilled (or racing a delete): take the write lock and restore.
	return st.withResident(s, false, func(eng *engine.Engine) error { return fn(s, eng) })
}

// Update runs fn with the session's engine under the session write lock,
// restoring it from its spill file first when necessary. When fn returns nil
// and bumpRev is true, the revision counter is incremented: a write, which
// is UpdateJournaled with no batch to journal.
func (st *Store) Update(id string, bumpRev bool, fn func(*Session, *engine.Engine) error) error {
	if bumpRev {
		return st.UpdateJournaled(id, nil, fn)
	}
	s, err := st.lookup(id)
	if err != nil {
		return err
	}
	return st.withResident(s, false, func(eng *engine.Engine) error { return fn(s, eng) })
}

// Peek finds a session without setting its visited bit or touching the
// miss/hit counters — for metadata reads that must not influence eviction.
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

// lookup finds the session and sets its visited bit, which spares it the
// eviction hand's next pass. It moves nothing and takes no ring lock.
func (st *Store) lookup(id string) (*Session, error) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	s := sh.sessions[id]
	sh.mu.Unlock()
	if s == nil {
		st.misses.Add(1)
		mLookupMisses.Inc()
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	if !s.visited.Load() {
		s.visited.Store(true)
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
	if s.res == deleted {
		s.mu.Unlock()
		return ErrSessionDeleted
	}
	restored := s.res != resident
	if restored {
		// restoreEngine reads the base (integrity-checked) and replays any
		// journal tail, which leaves the tail's kind as the journal holds it.
		eng, err := st.restoreEngine(s)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("server: restore session %s: %w", s.ID, err)
		}
		s.restore(eng)
		st.restores.Add(1)
		mRestores.Inc()
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

// Delete removes a session and its files.
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
	frozen := st.frozenBaseLocked(s)
	if s.health.broken != 0 {
		st.degradedCount.Add(-1)
	}
	s.delete()
	jw := s.jw
	s.jw = nil
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
	if st.opts.Durable { // the journal writer is closed: erase journal and entry
		os.Remove(st.journalPath(id))
		err := st.reg.Delete(id)
		if err == nil {
			err = st.reg.Sync()
		}
		if err != nil {
			mDurabilityErrors.Inc()
		}
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

// evictOverflow spills the sessions coldest picks until the resident count
// is back under MaxResident. Called only while the caller holds no session
// lock.
func (st *Store) evictOverflow() {
	if st.opts.MaxResident <= 0 {
		return
	}
	for st.ring.len()-int(st.spilling.Load()) > st.opts.MaxResident {
		victim := st.coldest()
		if victim == nil {
			return
		}
		st.spill(victim)
	}
}

// coldest claims the eviction victim: the ring's hand walks from where it
// stopped toward the head, wrapping at it, and clears the visited bit of
// each session it passes. It passes over a visited session, one locked
// elsewhere (in use, or mid-spill), one whose base write failed and one
// with a Wait barrier registered, which must find the session resident
// when it settles. The first session left is the victim, returned locked
// and counted in spilling, and the hand stays at the session after it. The
// walk gives up, returning nil, after twice the ring's length. TryLock never
// waits, so holding the ring's lock meanwhile cannot deadlock.
func (st *Store) coldest() *Session {
	r := &st.ring
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < 2*r.n; i++ {
		s := r.hand
		if s == nil {
			s = r.tail
		}
		r.hand = s.newer
		if s.visited.Load() {
			s.visited.Store(false)
			continue
		}
		if !s.mu.TryLock() {
			continue
		}
		if !s.evictableLocked() {
			s.mu.Unlock()
			continue
		}
		st.spilling.Add(1)
		return s
	}
	return nil
}

// evictableLocked reports whether coldest may claim the resident session:
// its base writes work and no Wait barrier is registered. Called with s.mu
// held.
func (s *Session) evictableLocked() bool {
	return s.health.broken&brokenSpill == 0 && s.waiters == 0
}

// bufPool recycles spill serialisation buffers, as journal.GetReader does a
// restore's read buffer: the eviction loop runs constantly under a resident
// cap, and one allocation per spill or restore is one allocation too many.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxTailRecords caps the journal records an eviction may leave above the
// base: replaying one costs roughly a seventh of restoring a whole base, so
// the record count, not the byte count, is what bounds restore latency.
const maxTailRecords = 32

// tailReplayableLocked reports whether base + journal already reproduce the
// session, so eviction may drop residency without writing. Everything above
// the base must be in the journal and value-only (the pinned graph stays
// exact), the session healthy, its journal writer unpoisoned (a failed
// fsync may have lost records the restore would read), and the tail under
// its caps; capped reports a refusal on the caps alone. The byte cap — once
// the tail outweighs half the base, replaying it approaches the cost of
// restoring the sheet itself — is skipped while the base size is unknown.
// Decided from in-memory state only. Called with s.mu held.
func (s *Session) tailReplayableLocked() (ok, capped bool) {
	if !s.disk.held || s.health.broken != 0 || s.disk.tail > tailValues || s.jw != nil && s.jw.Err() != nil {
		return false, false
	}
	if s.rev-s.disk.rev > maxTailRecords || (s.disk.bytes > 0 && s.disk.tailBytes > s.disk.bytes/2) {
		return false, true
	}
	return true, false
}

// spill evicts the victim coldest claimed, first writing a full base
// snapshot unless base + journal already hold the state. A failed base write
// degrades the victim instead: it stays resident, and coldest passes it
// over until the repairer lands its base.
func (st *Store) spill(victim *Session) {
	defer func() { victim.mu.Unlock(); st.spilling.Add(-1) }()
	replayable, capped := victim.tailReplayableLocked()
	switch {
	case !replayable:
		// writeFullLocked drains pending recalculation before serialising, so
		// the stored values are authoritative.
		if err := st.writeFullLocked(victim); err != nil {
			st.baseFailedLocked(victim)
			return
		}
		if capped {
			mDeltaCompactions.Inc()
		}
	case victim.rev == victim.disk.rev:
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
	victim.spill()
	victim.pending = 0
	st.evictions.Add(1)
	mEvictions.Inc()
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
	br := journal.GetReader(bytes.NewReader(data))
	defer journal.PutReader(br)
	if pinned != nil {
		return engine.RestoreSnapshotWithGraph(br, pinned)
	}
	return engine.RestoreSnapshot(br)
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
	for _, sh := range st.shards {
		sh.mu.Lock()
		total += len(sh.sessions)
		sh.mu.Unlock()
	}
	resident := st.ring.len()
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
