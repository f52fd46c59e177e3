package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"strconv"

	"taco/internal/core"
	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/telemetry"
	"taco/internal/workload"
	"taco/internal/xlsx"
)

// Options configures a Server.
type Options struct {
	// Store options (sharding, eviction).
	Store StoreOptions
	// MaxUploadBytes caps .xlsx upload size (default 32 MiB).
	MaxUploadBytes int64
	// MaxBatchEdits caps the number of edits in one batch (default 10000).
	MaxBatchEdits int
	// MaxRangeCells caps the rectangle size of a cells read (default
	// 65536): range iteration runs under the session lock, so unbounded
	// rectangles would let one GET starve a session.
	MaxRangeCells int
	// MaxScenarioRows caps the size of generated scenario sessions
	// (default 100000) so one create request cannot exhaust host memory.
	MaxScenarioRows int
	// AccessLog, when set, receives one structured line per request
	// (request ID, method, route, status, bytes, duration). Nil disables
	// access logging; metrics are collected either way.
	AccessLog *slog.Logger
	// Standby, when PrimaryURL is set, boots the server as a warm standby:
	// the store is read-only (writes answer 503), a replicator tails the
	// primary's journals, and POST /admin/promote makes it the new primary.
	Standby StandbyOptions
}

func (o Options) withDefaults() Options {
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 32 << 20
	}
	if o.MaxBatchEdits <= 0 {
		o.MaxBatchEdits = 10000
	}
	if o.MaxRangeCells <= 0 {
		o.MaxRangeCells = 65536
	}
	if o.MaxScenarioRows <= 0 {
		o.MaxScenarioRows = 100000
	}
	return o
}

// Server is the multi-tenant spreadsheet HTTP service. It implements
// http.Handler; mount it directly or under a prefix.
type Server struct {
	opts    Options
	store   *Store
	mux     *http.ServeMux
	handler http.Handler // mux wrapped with the observability middleware
	// repl is the standby's shipping loop (nil on a primary). It survives
	// promotion — fenced — so lag headers can keep reporting the final
	// deficit.
	repl *Replicator
}

// NewServer builds a server with its session store.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	store, err := NewStore(opts.Store)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /sessions", s.handleCreate)
	s.mux.HandleFunc("POST /sessions/xlsx", s.handleCreateXLSX)
	s.mux.HandleFunc("GET /sessions", s.handleList)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleSessionStats)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /sessions/{id}/fork", s.handleFork)
	s.mux.HandleFunc("POST /sessions/{id}/edits", s.handleEdits)
	s.mux.HandleFunc("POST /sessions/{id}/flush", s.handleFlush)
	s.mux.HandleFunc("GET /sessions/{id}/cells", s.handleCells)
	s.mux.HandleFunc("GET /sessions/{id}/dependents", s.handleQuery(true))
	s.mux.HandleFunc("GET /sessions/{id}/precedents", s.handleQuery(false))
	s.mux.HandleFunc("GET /stats", s.handleStoreStats)
	s.mux.Handle("GET /metrics", telemetry.Handler())
	s.mux.HandleFunc("GET /replication/sessions", s.handleReplSessions)
	s.mux.HandleFunc("GET /replication/sessions/{id}/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /replication/sessions/{id}/journal", s.handleReplJournal)
	s.mux.HandleFunc("POST /admin/promote", s.handlePromote)
	s.handler = observe(s.mux, opts.AccessLog)
	if opts.Standby.PrimaryURL != "" {
		store.SetReadOnly(true)
		s.repl = NewReplicator(store, opts.Standby)
		s.repl.Start()
	}
	return s, nil
}

// Store exposes the underlying session store (load drivers, tests).
func (s *Server) Store() *Store { return s.store }

// Close stops the replicator (if any) and the store's background workers.
func (s *Server) Close() {
	if s.repl != nil {
		s.repl.Close()
	}
	s.store.Close()
}

// ServeHTTP implements http.Handler. A standby stamps every response with
// its replication lag, so readers that tolerate staleness can see how stale.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.repl != nil && s.store.ReadOnly() {
		h := w.Header()
		h.Set("X-Replication-Lag-Rev", strconv.FormatUint(s.repl.LagRevs(), 10))
		h.Set("X-Replication-Lag-Ms", strconv.FormatInt(s.repl.LagMs(), 10))
	}
	s.handler.ServeHTTP(w, r)
}

// fenceWrites rejects the request on a standby store. Every mutating
// handler calls it first; shipped records bypass it (ApplyReplicated is not
// an HTTP path).
func (s *Server) fenceWrites(w http.ResponseWriter) bool {
	if !s.store.ReadOnly() {
		return false
	}
	writeErr(w, http.StatusServiceUnavailable, ErrStandby)
	return true
}

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

// CreateRequest creates a session: blank by default, or generated from a
// named workload scenario.
type CreateRequest struct {
	Name     string `json:"name,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Rows     int    `json:"rows,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// SessionInfo describes one session.
type SessionInfo struct {
	ID       string      `json:"id"`
	Name     string      `json:"name,omitempty"`
	Rev      uint64      `json:"rev"`
	Resident bool        `json:"resident"`
	Pending  int         `json:"pending,omitempty"`
	Cells    int         `json:"cells,omitempty"`
	Formulas int         `json:"formulas,omitempty"`
	Graph    *core.Stats `json:"graph,omitempty"`
	// CellStore describes the columnar cell storage backing range reads.
	CellStore *engine.CellStoreStats `json:"cell_store,omitempty"`
	// Recalc describes the recalculation scheduler: the dirty backlog, the
	// live resumable schedule (if a budgeted drain is mid-flight), and the
	// cumulative level/build counters.
	Recalc *engine.RecalcStats `json:"recalc,omitempty"`
}

// EditOp is one operation of a batch. Exactly one of Value, Text, Formula,
// Clear must be set.
type EditOp struct {
	Cell    string   `json:"cell"`
	Value   *float64 `json:"value,omitempty"`
	Text    *string  `json:"text,omitempty"`
	Formula *string  `json:"formula,omitempty"`
	Clear   bool     `json:"clear,omitempty"`
}

// EditBatch is the body of POST /sessions/{id}/edits.
type EditBatch struct {
	Edits []EditOp `json:"edits"`
}

// EditResult reports an applied batch. The response is sent after graph
// maintenance and the dirty-set traversal only; recalculation drains on the
// store's background workers (POST /sessions/{id}/flush or ?wait=1 reads
// give read-your-writes when needed).
type EditResult struct {
	Rev     uint64 `json:"rev"`
	Applied int    `json:"applied"`
	// DirtyCells is the total size of the dirty sets — the cells the
	// asynchronous model marks before control returns.
	DirtyCells int `json:"dirty_cells"`
	// Pending is the number of formula cells still awaiting background
	// recalculation when the response was sent.
	Pending int `json:"pending"`
	// Bulk reports whether the batch took the column-major bulk-build path.
	Bulk bool `json:"bulk"`
}

// CellOut is one cell in a read response.
type CellOut struct {
	Cell    string  `json:"cell"`
	Kind    string  `json:"kind"`
	Num     float64 `json:"num,omitempty"`
	Str     string  `json:"str,omitempty"`
	Bool    bool    `json:"bool,omitempty"`
	Error   string  `json:"error,omitempty"`
	Formula string  `json:"formula,omitempty"`
	// Pending marks a cell whose recalculation is still in flight; the
	// carried value is the last computed one (grey it out client-side).
	Pending bool `json:"pending,omitempty"`
}

// CellsResult is the body of GET /sessions/{id}/cells: the requested cells
// at a consistent revision, with the session-wide count of cells still
// awaiting recalculation.
type CellsResult struct {
	Rev     uint64    `json:"rev"`
	Pending int       `json:"pending"`
	Cells   []CellOut `json:"cells"`
}

// FlushResult is the body of POST /sessions/{id}/flush.
type FlushResult struct {
	Rev uint64 `json:"rev"`
}

// QueryResult is a dependents/precedents answer.
type QueryResult struct {
	Of     string   `json:"of"`
	Ranges []string `json:"ranges"`
	Cells  int      `json:"cells"`
}

type errorBody struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

// writeJSON encodes before the header goes out, so an encode failure is a
// 500 with an errorBody, never a success status over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(errorBody{Error: err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, status int, err error) {
	switch status {
	case http.StatusInsufficientStorage, http.StatusServiceUnavailable:
		// Degraded sessions and standbys heal on their own (background
		// repair, promotion): tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrSessionDeleted):
		return http.StatusGone
	case errors.Is(err, ErrSessionDegraded):
		return http.StatusInsufficientStorage
	case errors.Is(err, ErrForkUnsupported):
		return http.StatusBadRequest
	case errors.Is(err, ErrStandby):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.fenceWrites(w) {
		return
	}
	var req CreateRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	var eng *engine.Engine
	if req.Scenario == "" {
		eng = engine.New(nil)
	} else {
		rows := req.Rows
		if rows <= 0 {
			rows = 100
		}
		if rows > s.opts.MaxScenarioRows {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("rows %d exceeds limit %d", rows, s.opts.MaxScenarioRows))
			return
		}
		sheet, err := workload.BuildScenario(req.Scenario, rows, rand.New(rand.NewSource(req.Seed)))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		eng, err = engine.LoadBulk(sheet)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	sess := s.store.Create(req.Name, eng)
	writeJSON(w, http.StatusCreated, sessionInfo(sess))
}

// ForkRequest is the (optional) body of POST /sessions/{id}/fork.
type ForkRequest struct {
	Name string `json:"name,omitempty"`
}

// handleFork creates a copy-on-write child of the session: a registry entry
// sharing the parent's base snapshot plus a copy of its journal tail,
// independent of sheet size, materialised lazily on first touch. Requires a
// durable store.
func (s *Server) handleFork(w http.ResponseWriter, r *http.Request) {
	if s.fenceWrites(w) {
		return
	}
	var req ForkRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	child, err := s.store.Fork(r.PathValue("id"), req.Name)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, sessionInfo(child))
}

func (s *Server) handleCreateXLSX(w http.ResponseWriter, r *http.Request) {
	if s.fenceWrites(w) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxUploadBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if int64(len(body)) > s.opts.MaxUploadBytes {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("upload exceeds %d bytes", s.opts.MaxUploadBytes))
		return
	}
	sheets, err := xlsx.Read(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parse xlsx: %w", err))
		return
	}
	if len(sheets) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("xlsx has no sheets"))
		return
	}
	sheet := sheets[0]
	if want := r.URL.Query().Get("sheet"); want != "" {
		sheet = nil
		for _, sh := range sheets {
			if sh.Name == want {
				sheet = sh
				break
			}
		}
		if sheet == nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("xlsx has no sheet %q", want))
			return
		}
	}
	// Reject cell strings the spill path could not round-trip: a session
	// must never be admitted that cannot later be snapshotted and restored.
	var tooBig ref.Ref
	for at, c := range sheet.Cells {
		if len(c.Formula) > engine.MaxSnapshotString || len(c.Value.Str) > engine.MaxSnapshotString {
			tooBig = at
			break
		}
	}
	if tooBig.Valid() {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("cell %v holds a string over the %d-byte limit", tooBig, engine.MaxSnapshotString))
		return
	}
	eng, err := engine.LoadBulk(sheet)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = sheet.Name
	}
	sess := s.store.Create(name, eng)
	writeJSON(w, http.StatusCreated, sessionInfo(sess))
}

// sessionInfo snapshots a session's metadata under its read lock without
// faulting a spilled session back in (a spilled session reports Rev and
// Resident=false only) and without touching LRU state — listing and stats
// reads must not reorder eviction.
func sessionInfo(sess *Session) SessionInfo {
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	info := SessionInfo{ID: sess.ID, Name: sess.Name, Rev: sess.rev, Pending: sess.pending}
	if sess.eng != nil {
		info.Resident = true
		info.Cells = sess.eng.NumCells()
		info.Formulas = sess.eng.NumFormulas()
		if gs, ok := sess.eng.GraphStats(); ok {
			info.Graph = &gs
		}
		cs := sess.eng.CellStats()
		info.CellStore = &cs
		rs := sess.eng.RecalcStats()
		info.Recalc = &rs
	}
	return info
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := []SessionInfo{}
	s.store.Each(func(sess *Session) bool {
		out = append(out, sessionInfo(sess))
		return true
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Peek(r.PathValue("id"))
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.fenceWrites(w) {
		return
	}
	if err := s.store.Delete(r.PathValue("id")); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleEdits(w http.ResponseWriter, r *http.Request) {
	if s.fenceWrites(w) {
		return
	}
	id := r.PathValue("id")
	var batch EditBatch
	// The same byte cap as uploads: json.Decoder buffers strings in full,
	// so an unbounded body would sidestep every other per-request limit.
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode batch: %w", err))
		return
	}
	if len(batch.Edits) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("empty edit batch"))
		return
	}
	if len(batch.Edits) > s.opts.MaxBatchEdits {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds limit %d", len(batch.Edits), s.opts.MaxBatchEdits))
		return
	}
	// Validate up front — cell refs, op shape, and formula syntax — so a
	// batch is all-or-nothing: nothing is applied unless every op is valid.
	ops, err := parseBatch(batch.Edits)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// In a durable store UpdateJournaled re-encodes the validated batch,
	// appends it to the session's edit journal (and runs the fsync policy's
	// barrier) before the 200 commits, so an acknowledged batch survives a
	// crash and replays at the next restore.
	var res EditResult
	err = s.store.UpdateJournaled(id, batch.Edits, func(sess *Session, eng *engine.Engine) error {
		applied, dirty, bulk := applyBatch(eng, ops)
		res = EditResult{
			Rev: sess.rev + 1, Applied: applied, DirtyCells: dirty,
			Pending: eng.Pending(), Bulk: bulk,
		}
		return nil
	})
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		if err := s.store.Wait(id); err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		res.Pending = 0
	}
	writeJSON(w, http.StatusOK, res)
}

// handleFlush is the explicit read-your-writes barrier: it returns once the
// session's pending recalculation has drained.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.store.Wait(id); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	sess, err := s.store.Peek(id)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, FlushResult{Rev: sess.Rev()})
}

type parsedOp struct {
	at    ref.Ref
	op    EditOp
	shape *formula.Shape // pre-parsed formula at at (EditOp.Formula ops only)
}

type badEditError struct {
	index int
	err   error
}

func (e *badEditError) Error() string { return fmt.Sprintf("edit %d: %v", e.index, e.err) }
func (e *badEditError) Unwrap() error { return e.err }

// maxEditStringBytes caps formula and text payload sizes — kept below the
// engine snapshot's string limit so no batch can build a session that the
// spill path cannot round-trip.
const maxEditStringBytes = 1 << 20

func parseBatch(edits []EditOp) ([]parsedOp, error) {
	ops := make([]parsedOp, len(edits))
	for i, op := range edits {
		at, err := ref.ParseA1(op.Cell)
		if err != nil {
			return nil, &badEditError{i, err}
		}
		if op.Formula != nil && len(*op.Formula) > maxEditStringBytes {
			return nil, &badEditError{i, fmt.Errorf("formula of %d bytes exceeds limit %d", len(*op.Formula), maxEditStringBytes)}
		}
		if op.Text != nil && len(*op.Text) > maxEditStringBytes {
			return nil, &badEditError{i, fmt.Errorf("text of %d bytes exceeds limit %d", len(*op.Text), maxEditStringBytes)}
		}
		set := 0
		for _, on := range []bool{op.Value != nil, op.Text != nil, op.Formula != nil, op.Clear} {
			if on {
				set++
			}
		}
		if set != 1 {
			return nil, &badEditError{i, errors.New("exactly one of value, text, formula, clear required")}
		}
		var shape *formula.Shape
		if op.Formula != nil {
			// Interned parse: edit streams replay formulae — and shifted
			// copies of them — that load paths (and other tenants'
			// identical sheets) have already parsed.
			shape, err = formula.ParseShape(*op.Formula, at)
			if err != nil {
				return nil, &badEditError{i, err}
			}
		}
		ops[i] = parsedOp{at: at, op: op, shape: shape}
	}
	return ops, nil
}

// applyBatch applies parsed edits; parseBatch has already validated every
// op, so application cannot fail. A batch of pure sets against a fresh
// (empty) session takes the column-major bulk path: the already-parsed
// cells go straight to the streaming compressor, exactly like a file open
// and without a second parse.
func applyBatch(eng *engine.Engine, ops []parsedOp) (applied, dirty int, bulk bool) {
	if eng.NumCells() == 0 && !anyClear(ops) {
		// In batch order: of ops on one ref LoadBulkParsed keeps the last,
		// as sequential application would.
		pcells := make([]engine.ParsedCell, 0, len(ops))
		for _, p := range ops {
			pc := engine.ParsedCell{At: p.at}
			switch {
			case p.op.Value != nil:
				pc.Value = formula.Num(*p.op.Value)
			case p.op.Text != nil:
				pc.Value = formula.Str(*p.op.Text)
			case p.op.Formula != nil:
				pc.Shape = p.shape
			}
			pcells = append(pcells, pc)
		}
		*eng = *engine.LoadBulkParsed(pcells)
		return len(ops), 0, true
	}
	for _, p := range ops {
		switch {
		case p.op.Value != nil:
			dirty += countCells(eng.SetValue(p.at, formula.Num(*p.op.Value)))
		case p.op.Text != nil:
			dirty += countCells(eng.SetValue(p.at, formula.Str(*p.op.Text)))
		case p.op.Formula != nil:
			dirty += countCells(eng.SetFormulaShape(p.at, p.shape))
		case p.op.Clear:
			dirty += countCells(eng.ClearCell(p.at))
		}
		applied++
	}
	// No eager recalculation: the response returns after the dirty-set
	// traversal (the asynchronous model's control-return point). The
	// store's background workers drain the dirty set behind the response;
	// Wait/?wait=1 barriers and the spill path (which recalculates before
	// snapshotting) drain it inline when they need settled values.
	return applied, dirty, false
}

func anyClear(ops []parsedOp) bool {
	for _, p := range ops {
		if p.op.Clear {
			return true
		}
	}
	return false
}

func countCells(rs []ref.Range) int {
	n := 0
	for _, r := range rs {
		n += r.Size()
	}
	return n
}

func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	var rng ref.Range
	switch {
	case q.Get("at") != "":
		at, err := ref.ParseA1(q.Get("at"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		rng = ref.CellRange(at)
	case q.Get("range") != "":
		var err error
		rng, err = ref.ParseRangeA1(q.Get("range"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, errors.New("need ?at=B2 or ?range=A1:C10"))
		return
	}
	if rng.Size() > s.opts.MaxRangeCells {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("range of %d cells exceeds limit %d", rng.Size(), s.opts.MaxRangeCells))
		return
	}
	// ?wait=1 drains pending recalculation first — the read-your-writes
	// barrier. Plain reads serve last-computed values immediately.
	if q.Get("wait") == "1" {
		if err := s.store.Wait(id); err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
	}
	// View, not Update: reads are side-effect-free, so a resident session
	// answers under the read lock and never blocks behind (or triggers)
	// recalculation. A spilled session is restored first — through the
	// integrity-checked path, so a rotted spill file is quarantined, never
	// served.
	res := CellsResult{Cells: []CellOut{}}
	err := s.store.View(id, func(sess *Session, eng *engine.Engine) error {
		res.Rev = sess.rev
		res.Pending = eng.Pending()
		// Columnar scan: contiguous per-column slabs instead of a Peek map
		// probe per cell of the (possibly mostly-empty) rectangle.
		eng.ScanRange(rng, func(at ref.Ref, v formula.Value, src string, clean bool) bool {
			if v.Kind == formula.KindEmpty && src == "" && clean {
				return true // value-less placeholder; same shape the probe path skipped
			}
			res.Cells = append(res.Cells, cellOut(at, v, src, !clean))
			return true
		})
		return nil
	})
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func cellOut(at ref.Ref, v formula.Value, src string, pending bool) CellOut {
	c := CellOut{Cell: ref.FormatA1(at), Formula: src, Pending: pending}
	switch v.Kind {
	case formula.KindEmpty:
		c.Kind = "empty"
	case formula.KindNumber:
		if math.IsInf(v.Num, 0) || math.IsNaN(v.Num) {
			// JSON has no non-finite numbers. Presentation only: the
			// stored value keeps its bits.
			c.Kind, c.Error = "error", formula.ErrNum.String()
		} else {
			c.Kind, c.Num = "number", v.Num
		}
	case formula.KindString:
		c.Kind, c.Str = "string", v.Str
	case formula.KindBool:
		c.Kind, c.Bool = "bool", v.Bool
	case formula.KindError:
		c.Kind, c.Error = "error", v.Err.String()
	}
	return c
}

func (s *Server) handleQuery(dependents bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		of := r.URL.Query().Get("of")
		if of == "" {
			writeErr(w, http.StatusBadRequest, errors.New("need ?of=A1 or ?of=A1:B3"))
			return
		}
		rng, err := ref.ParseRangeA1(of)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var res QueryResult
		build := func(rs []ref.Range) {
			res = QueryResult{Of: rng.String(), Ranges: make([]string, len(rs)), Cells: countCells(rs)}
			for i, rr := range rs {
				res.Ranges[i] = rr.String()
			}
		}
		// A spilled session is restored first; the restore reuses its pinned
		// graph, so the query still traverses the compressed graph and
		// decompresses nothing.
		err = s.store.View(id, func(sess *Session, eng *engine.Engine) error {
			if dependents {
				build(eng.Dependents(rng))
			} else {
				build(eng.Precedents(rng))
			}
			return nil
		})
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Stats())
}
