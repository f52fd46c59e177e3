package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"taco/internal/journal"
	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/workload"
)

// serveSessions is serve_interactive and serve_durable_churn: many small
// sessions (the four workload scenarios) behind the HTTP server, two
// closed-loop clients. The two workloads use the same server layer
// differently.
//
// serve_interactive: non-durable, every session resident, uniform session
// choice; 55% edit batches (15% of the edits rewrite a formula), 25% GET
// cells, 15% GET dependents, 5% flush. Per-request cost dominates.
//
// serve_durable_churn: durable (fsync every 50 ms), delta snapshots, a
// residency cap a quarter of the session count, Zipf(0.9) session choice;
// 70% value-only batches, 10% formula batches (which force the next spill to
// rewrite the full base), 20% GET cells. Journal, spill, delta, restore and
// the registry do most of the work.
type serveSessions struct {
	durable bool
	hash    opHash
	sheets  []*workload.Sheet
	loads   [][]byte    // one bulk edit batch per session
	spans   []ref.Range // populated rectangle per session
	ops     [][]serveOp // per client
	next    []int       // per client cursor

	h      *harness
	dir    string
	ids    []string
	cells  int
	state  []sheetState
	reopen bool               // verify has restarted the store once already
	graph  map[string]float64 // compressed-graph sizes, as the server reports them

	sh  *shadow         // traced runs
	tr  *tracer         // traced runs: the runner's tracer, for verify
	jnl *journal.Writer // traced durable runs: a journal fed the same batches
	rev atomic.Uint64
}

const (
	sopEdit = iota
	sopRead
	sopQuery
	sopFlush
)

// serveSample is the 1-in-k of requests replayed against the shadow layers
// in a traced run.
const serveSample = 16

type serveOp struct {
	kind  int
	sess  int
	path  string          // after /sessions/{id}
	body  []byte          // sopEdit
	edits []server.EditOp // sopEdit, for the oracle and the replay
	rng   ref.Range       // sopRead, sopQuery
}

func (w *serveSessions) clients() int   { return drainWorkers() }
func (w *serveSessions) opHash() string { return w.hash.String() }

// mix returns the cumulative shares of edit, read and query requests; the
// rest are flushes.
func (w *serveSessions) mix() (edit, read, query float64) {
	if w.durable {
		return 0.80, 1.00, 1.00
	}
	return 0.55, 0.80, 0.95
}

func (w *serveSessions) generate(seed int64) error {
	w.hash = newOpHash()
	var err error
	if w.sheets, err = scenarioSheets(sz.sessions, sz.sessionRows, seed); err != nil {
		return err
	}
	w.spans = make([]ref.Range, len(w.sheets))
	for i, s := range w.sheets {
		w.spans[i] = bounds(s)
	}
	if err := w.inputs(); err != nil {
		return err
	}
	nc := w.clients()
	w.ops = make([][]serveOp, nc)
	for c := 0; c < nc; c++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		// Client c owns sessions c, c+nc, ...: no two clients write to one
		// session, so the order of acknowledged batches is each client's own.
		var mine []int
		for s := c; s < len(w.sheets); s += nc {
			mine = append(mine, s)
		}
		pick := func() int { return mine[rng.Intn(len(mine))] }
		if w.durable {
			// Rank follows session order, so every seed has the same
			// scenarios in the hot ranks: their restore costs differ.
			z := newZipf(len(mine), 0.9)
			pick = func() int { return mine[z.draw(rng)] }
		}
		streams := map[int]*editStream{}
		pEdit, pRead, pQuery := w.mix()
		for i := 0; i < sz.opsPerClient; i++ {
			s := pick()
			op := serveOp{sess: s}
			switch roll := rng.Float64(); {
			case roll < pEdit:
				st := streams[s]
				if st == nil {
					st = &editStream{sheet: w.sheets[s], rng: rng, pools: map[float64][]workload.Edit{}, pos: map[float64]int{}}
					streams[s] = st
				}
				op.kind, op.path = sopEdit, "/edits"
				// Interactive: 15% of edits rewrite a formula. Churn: one batch
				// in eight holds formula rewrites, the rest are value-only.
				ratio := 0.15
				if w.durable {
					ratio = 0
					if roll >= pEdit*7/8 {
						ratio = 0.5
					}
				}
				op.edits = st.batch(ratio, w.durable)
				if op.body, err = json.Marshal(server.EditBatch{Edits: op.edits}); err != nil {
					return err
				}
			case roll < pRead:
				op.kind, op.rng = sopRead, readBlock(w.spans[s], rng)
				op.path = "/cells?range=" + op.rng.String()
			case roll < pQuery:
				op.kind, op.rng = sopQuery, workload.QueryStream(w.sheets[s], 1, rng)[0]
				op.path = "/dependents?of=" + op.rng.String()
			default:
				op.kind, op.path = sopFlush, "/flush"
			}
			w.ops[c] = append(w.ops[c], op)
			w.hash.add("%d %d %d %s %s", c, op.kind, op.sess, op.path, op.body)
		}
	}
	return nil
}

// editStream deals one session's edits out in batches, from one pool of
// generated edits per formula share; a pool that runs out starts over.
type editStream struct {
	sheet *workload.Sheet
	rng   *rand.Rand
	pools map[float64][]workload.Edit
	pos   map[float64]int
}

const editPool = 1024

// batch draws batchSize edits with the given share of formula rewrites.
// valuesOnly keeps only plain value writes besides the rewrites: a clear is
// a structural edit to the delta-snapshot path.
func (e *editStream) batch(formulaRatio float64, valuesOnly bool) []server.EditOp {
	if e.pools[formulaRatio] == nil {
		e.pools[formulaRatio] = workload.EditStreamMix(e.sheet, editPool, e.rng, formulaRatio)
	}
	pool := e.pools[formulaRatio]
	var ops []server.EditOp
	for len(ops) < batchSize {
		ed := pool[e.pos[formulaRatio]%len(pool)]
		e.pos[formulaRatio]++
		op := server.EditOp{Cell: ref.FormatA1(ed.At)}
		switch ed.Kind {
		case workload.EditValue:
			op.Value = &ed.Value
		case workload.EditFormula:
			op.Formula = &ed.Formula
		case workload.EditClear:
			if valuesOnly {
				continue
			}
			op.Clear = true
		}
		ops = append(ops, op)
	}
	return ops
}

// readBlock picks a readRows x readCols block inside a sheet's populated
// rectangle.
func readBlock(span ref.Range, rng *rand.Rand) ref.Range {
	col := span.Head.Col + rng.Intn(max(1, span.Cols()-readCols+1))
	row := span.Head.Row + rng.Intn(max(1, span.Rows()-readRows+1))
	return ref.RangeOf(ref.Ref{Col: col, Row: row},
		ref.Ref{Col: min(col+readCols-1, span.Tail.Col), Row: min(row+readRows-1, span.Tail.Row)})
}

func (w *serveSessions) serverOptions() server.Options {
	if !w.durable {
		return server.Options{}
	}
	return server.Options{Store: server.StoreOptions{
		Durable:        true,
		FsyncPolicy:    "interval",
		FsyncInterval:  50 * time.Millisecond,
		DeltaSnapshots: true,
		MaxResident:    sz.maxResident,
		SpillDir:       w.dir,
	}}
}

// inputs encodes every sheet as the one bulk batch that loads it.
func (w *serveSessions) inputs() error {
	if w.loads != nil {
		return nil
	}
	w.loads = make([][]byte, len(w.sheets))
	for i, s := range w.sheets {
		var err error
		if w.loads[i], err = json.Marshal(server.EditBatch{Edits: sheetBatch(s)}); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveSessions) setup(dir string) (int, float64, error) {
	if err := w.inputs(); err != nil {
		return 0, 0, err
	}
	w.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	h, err := startServer(w.serverOptions())
	if err != nil {
		return 0, 0, err
	}
	w.h, w.reopen = h, false
	w.ids = make([]string, len(w.sheets))
	w.state = make([]sheetState, len(w.sheets))
	w.next = make([]int, len(w.ops))
	w.cells = 0
	for i, s := range w.sheets {
		w.state[i] = newSheetState(s)
		w.cells += len(s.Cells)
	}
	w.graph = map[string]float64{}
	var load time.Duration
	for i := range w.sheets {
		t0 := time.Now()
		if w.ids[i], err = h.createLoaded(w.loads[i]); err != nil {
			return 0, 0, err
		}
		load += time.Since(t0)
		// Asked now because only a resident session reports its graph.
		h.graphStats(w.ids[i], w.graph)
	}
	loadS := load.Seconds()
	// Warm-up: the first sixteenth of each client's list.
	var st clientStats
	for c := range w.ops {
		for i := 0; i < len(w.ops[c])/16; i++ {
			w.runOp(c, &st, nil, false)
		}
	}
	if st.failed > 0 {
		return 0, 0, fmt.Errorf("%d of %d warm-up requests failed", st.failed, st.attempted)
	}
	return w.cells, loadS, nil
}

func (w *serveSessions) release() { w.loads = nil }

func (w *serveSessions) teardown() {
	w.h.stop()
	w.h = nil
	w.sh.close()
	w.sh = nil
	if w.jnl != nil {
		w.jnl.Close()
		w.jnl = nil
	}
}

func (w *serveSessions) probe(tr *tracer) error {
	w.tr = tr
	var err error
	if w.sh, err = newShadow(w.sheets, tr); err != nil {
		return err
	}
	// Creating a loaded session, as set-up does for each: create, one bulk
	// batch, first recalculation.
	for _, s := range w.sheets[:min(4, len(w.sheets))] {
		body, err := json.Marshal(server.EditBatch{Edits: sheetBatch(s)})
		if err != nil {
			return err
		}
		t0 := time.Now()
		id, err := w.h.createLoaded(body)
		if err != nil {
			return err
		}
		tr.add("server", "create", time.Since(t0), 1)
		if err := w.h.call("DELETE", "/sessions/"+id, nil, nil); err != nil {
			return err
		}
	}
	if w.durable {
		if w.jnl, err = journal.Open(w.journalPath(), journal.JournalMagic, journal.SyncInterval, nil); err != nil {
			return err
		}
	}
	return nil
}

// journalPath is where a traced durable run keeps the journal it feeds the
// replayed batches: beside the store's directory, not inside it.
func (w *serveSessions) journalPath() string { return filepath.Clean(w.dir) + ".shadow.tacoj" }

func (w *serveSessions) runClient(c int, ep *epochCtl, st *clientStats, tr *tracer) {
	for n := 0; !ep.done(n, len(w.ops[c])); n++ {
		w.runOp(c, st, tr, ep.sampled(w.next[c], serveSample))
	}
}

// runOp sends client c's next request, checks the reply and brings the
// oracle up to date.
func (w *serveSessions) runOp(c int, st *clientStats, tr *tracer, replay bool) {
	i := w.next[c]
	w.next[c] = (i + 1) % len(w.ops[c])
	op := &w.ops[c][i]
	method := "GET"
	if op.kind == sopEdit || op.kind == sopFlush {
		method = "POST"
	}
	g0 := time.Now()
	path := "/sessions/" + w.ids[op.sess] + op.path
	t0 := time.Now()
	reply, status, t1, err := w.h.do(method, path, op.body)
	d := t1.Sub(t0).Seconds()
	st.attempted++
	ok := err == nil && status == 200
	switch op.kind {
	case sopEdit:
		var res server.EditResult
		ok = ok && json.Unmarshal(reply, &res) == nil && res.Applied == len(op.edits)
		if ok {
			st.lat[kEdit] = append(st.lat[kEdit], d)
			st.edits += len(op.edits)
			w.state[op.sess].apply(op.edits)
		}
	case sopRead:
		var res server.CellsResult
		ok = ok && json.Unmarshal(reply, &res) == nil && len(res.Cells) > 0
		st.lat[kRead] = append(st.lat[kRead], d)
	case sopQuery:
		var res server.QueryResult
		ok = ok && json.Unmarshal(reply, &res) == nil && res.Of == op.rng.String()
		st.lat[kQuery] = append(st.lat[kQuery], d)
	case sopFlush:
		st.lat[kSettle] = append(st.lat[kSettle], d)
	}
	if !ok {
		st.failed++
	}
	st.gen += time.Since(g0).Seconds() - d
	if replay && ok {
		w.replay(tr, int64(c)<<32|int64(i), op, t0, t1)
	}
}

func (w *serveSessions) replay(tr *tracer, id int64, op *serveOp, t0, t1 time.Time) {
	switch op.kind {
	case sopEdit:
		root := tr.record(-1, id, "server", "http_edit", t0, t1)
		if w.jnl != nil {
			rev := w.rev.Add(1)
			tr.child(root, id, "journal", "append", func() { w.jnl.Append(rev, op.body) })
		}
		w.sh.replayEdits(tr, root, id, op.sess, op.body, op.edits)
	case sopRead:
		w.sh.replayRead(tr, tr.record(-1, id, "server", "http_read", t0, t1), id, op.sess, op.rng)
	case sopQuery:
		w.sh.replayQuery(tr, tr.record(-1, id, "server", "http_query", t0, t1), id, op.sess, op.rng)
	case sopFlush:
		root := tr.record(-1, id, "server", "http_flush", t0, t1)
		tr.child(root, id, "server", "store_update", func() { w.sh.store.Wait(w.sh.ids[op.sess]) })
	}
}

// verify reads every session back in full and compares it with the local
// replay of the acknowledged batches. The durable workload then closes the
// store, opens a new one on the same directory and checks every session
// again: what was acknowledged must survive the restart.
func (w *serveSessions) verify() (attempted, failed int) {
	if w.jnl != nil {
		// What recovery pays to read the replayed batches back.
		t0 := time.Now()
		n := 0
		_, _, err := journal.ScanFile(w.journalPath(), journal.JournalMagic, func(uint64, []byte) error { n++; return nil })
		w.tr.add("journal", "scan", time.Since(t0), n)
		if err != nil || n != int(w.rev.Load()) {
			attempted, failed = 1, 1
		}
	}
	a, f := w.checkAll()
	attempted, failed = attempted+a, failed+f
	if !w.durable || w.reopen {
		return attempted, failed
	}
	w.reopen = true
	w.h.stop()
	h, err := startServer(w.serverOptions())
	if err != nil {
		w.h = nil
		return attempted + 1, failed + 1
	}
	w.h = h
	a, f = w.checkAll()
	return attempted + a, failed + f
}

func (w *serveSessions) checkAll() (attempted, failed int) {
	for i, id := range w.ids {
		want, err := w.state[i].expected()
		var got server.CellsResult
		if err == nil {
			err = w.h.call("GET", "/sessions/"+id+"/cells?wait=1&range="+w.spans[i].String(), nil, &got)
		}
		if err != nil {
			attempted, failed = attempted+1, failed+1
			continue
		}
		a, f := checkCells(got, want)
		attempted, failed = attempted+a, failed+f
	}
	return attempted, failed
}

func (w *serveSessions) exact(m map[string]float64) {
	for k, v := range w.graph {
		m[k] = v
	}
}
