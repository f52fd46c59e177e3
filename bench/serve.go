package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"taco/internal/core"
	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/workload"
)

// harness is one server on a loopback listener plus the client that drives
// it. The server receives only generated inputs: a blank POST /sessions and
// edit batches, never a server-side scenario.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{} // closed when Serve returns
}

func startServer(opts server.Options) (*harness, error) {
	srv, err := server.NewServer(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return h, nil
}

// stop shuts the listener and the store down and waits for both.
func (h *harness) stop() {
	if h == nil {
		return
	}
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if h.hs.Shutdown(ctx) != nil {
		h.hs.Close()
	}
	<-h.done
	h.srv.Close()
}

// do sends one request and reads the whole reply. The returned time is when
// the last byte of the reply had been read: what a client waits for.
func (h *harness) do(method, path string, body []byte) (reply []byte, status int, end time.Time, err error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, time.Now(), err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, 0, time.Now(), err
	}
	reply, err = io.ReadAll(resp.Body)
	end = time.Now()
	resp.Body.Close()
	return reply, resp.StatusCode, end, err
}

// call is do for set-up and verification: any failure or non-2xx reply is an
// error, and a 2xx reply is decoded into out.
func (h *harness) call(method, path string, body []byte, out any) error {
	reply, status, _, err := h.do(method, path, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(reply))
	}
	if out != nil {
		return json.Unmarshal(reply, out)
	}
	return nil
}

// sheetBatch encodes a whole sheet as one edit batch, which a blank session
// applies through the column-major bulk path.
func sheetBatch(s *workload.Sheet) []server.EditOp {
	ops := make([]server.EditOp, 0, len(s.Cells))
	for at, c := range s.Cells {
		op := server.EditOp{Cell: ref.FormatA1(at)}
		switch {
		case c.IsFormula():
			op.Formula = &c.Formula
		case c.Value.Kind == formula.KindString:
			op.Text = &c.Value.Str
		default:
			op.Value = &c.Value.Num
		}
		ops = append(ops, op)
	}
	return ops
}

// createLoaded makes one session holding the given batch and returns its id
// once the first full recalculation has finished.
func (h *harness) createLoaded(body []byte) (string, error) {
	var info server.SessionInfo
	if err := h.call("POST", "/sessions", []byte("{}"), &info); err != nil {
		return "", err
	}
	if err := h.call("POST", "/sessions/"+info.ID+"/edits", body, nil); err != nil {
		return "", err
	}
	return info.ID, h.call("POST", "/sessions/"+info.ID+"/flush", nil, nil)
}

// cellState is what the oracle knows of one cell: the last acknowledged
// write.
type cellState struct {
	formula string
	value   formula.Value
}

// sheetState is the oracle's copy of one session: a local replay of every
// acknowledged batch, cell by cell.
type sheetState map[ref.Ref]cellState

func newSheetState(s *workload.Sheet) sheetState {
	st := make(sheetState, len(s.Cells))
	for at, c := range s.Cells {
		st[at] = cellState{formula: c.Formula, value: c.Value}
	}
	return st
}

func (st sheetState) apply(ops []server.EditOp) {
	for _, op := range ops {
		at, err := ref.ParseA1(op.Cell)
		if err != nil {
			continue
		}
		switch {
		case op.Value != nil:
			st[at] = cellState{value: formula.Num(*op.Value)}
		case op.Text != nil:
			st[at] = cellState{value: formula.Str(*op.Text)}
		case op.Formula != nil:
			st[at] = cellState{formula: *op.Formula}
		case op.Clear:
			delete(st, at)
		}
	}
}

// expected evaluates the oracle's copy from scratch on a fresh engine.
func (st sheetState) expected() (*engine.Engine, error) {
	s := workload.NewSheet("oracle")
	for at, c := range st {
		s.Cells[at] = workload.Cell{Formula: c.formula, Value: c.value}
	}
	eng, err := engine.LoadBulk(s)
	if err != nil {
		return nil, err
	}
	eng.RecalculateAll()
	return eng, nil
}

// checkCells compares a final GET cells of the whole sheet with the oracle:
// the same populated cells, each with the same formula and the same value,
// none pending. It returns checks made and failed.
func checkCells(got server.CellsResult, want *engine.Engine) (attempted, failed int) {
	attempted = 1
	if got.Pending != 0 || len(got.Cells) != want.NumCells() {
		failed++
	}
	for _, c := range got.Cells {
		attempted++
		at, err := ref.ParseA1(c.Cell)
		// == and not sameValue: the wire format drops the sign of a zero.
		if err != nil || c.Pending || c.Formula != want.Formula(at) || cellValue(c) != want.Value(at) {
			failed++
		}
	}
	return attempted, failed
}

func cellValue(c server.CellOut) formula.Value {
	switch c.Kind {
	case "number":
		return formula.Num(c.Num)
	case "string":
		return formula.Str(c.Str)
	case "bool":
		return formula.Boolean(c.Bool)
	case "error":
		return formula.Errorf(c.Error)
	}
	return formula.Empty()
}

// graphStats adds the compressed-graph size the server reports for one
// session to the counts.
func (h *harness) graphStats(id string, m map[string]float64) {
	var info server.SessionInfo
	if h.call("GET", "/sessions/"+id, nil, &info) == nil && info.Graph != nil {
		m["core.edges"] += float64(info.Graph.Edges)
		m["core.vertices"] += float64(info.Graph.Vertices)
		m["core.deps"] += float64(info.Graph.Dependencies)
		m["compressed_edge_fraction"] = ratio(m["core.edges"], m["core.deps"])
	}
}

// shadow is the set of lower-layer instances a traced serve run replays
// sampled requests against: a store configured like the server's own but
// with no HTTP in front of it and nothing on disk, holding a copy of each
// session, and for each session a copy of its compressed graph outside any
// engine.
type shadow struct {
	store  *server.Store
	ids    []string
	graphs []*core.Graph
}

// newShadow loads the sheets into a bare store and clones each session's
// graph through a snapshot, which also times the snapshot paths.
func newShadow(sheets []*workload.Sheet, tr *tracer) (*shadow, error) {
	store, err := server.NewStore(server.StoreOptions{})
	if err != nil {
		return nil, err
	}
	sh := &shadow{store: store}
	for _, s := range sheets {
		t0 := time.Now()
		eng, err := engine.LoadBulk(s)
		if err != nil {
			store.Close()
			return nil, err
		}
		tr.add("engine", "load_bulk", time.Since(t0), 1)
		eng.RecalculateAll()

		var buf bytes.Buffer
		t0 = time.Now()
		if err := eng.TACOGraph().WriteSnapshot(&buf); err != nil {
			store.Close()
			return nil, err
		}
		tr.add("core", "snapshot_write", time.Since(t0), 1)
		tr.val("core.snapshot_bytes", float64(buf.Len()))
		t0 = time.Now()
		g, err := core.ReadSnapshot(&buf, core.DefaultOptions())
		if err != nil {
			store.Close()
			return nil, err
		}
		tr.add("core", "snapshot_read", time.Since(t0), 1)

		buf.Reset()
		t0 = time.Now()
		if err := eng.WriteSnapshot(&buf); err != nil {
			store.Close()
			return nil, err
		}
		tr.add("engine", "snapshot_write", time.Since(t0), 1)
		tr.val("engine.snapshot_bytes", float64(buf.Len()))
		t0 = time.Now()
		if _, err := engine.RestoreSnapshot(&buf); err != nil {
			store.Close()
			return nil, err
		}
		tr.add("engine", "snapshot_restore", time.Since(t0), 1)

		sh.ids = append(sh.ids, store.Create(s.Name, eng).ID)
		sh.graphs = append(sh.graphs, g)
	}
	return sh, nil
}

func (sh *shadow) close() {
	if sh != nil {
		sh.store.Close()
	}
}

// replayEdits replays one acknowledged edit batch bottom-up: the JSON the
// handler decodes and encodes, the parse of each formula, the store update
// with the engine calls inside it timed on their own, and the graph work of
// each edit on the session's graph copy.
func (sh *shadow) replayEdits(tr *tracer, root int32, id int64, sess int, body []byte, edits []server.EditOp) {
	tr.child(root, id, "server", "json", func() {
		var b server.EditBatch
		json.Unmarshal(body, &b)
		json.Marshal(server.EditResult{Rev: 1, Applied: len(edits), DirtyCells: 1})
	})
	asts := make([]formula.Node, len(edits))
	for i, op := range edits {
		if op.Formula != nil {
			tr.child(root, id, "formula", "parse", func() { asts[i], _ = formula.Parse(*op.Formula) })
		}
	}
	type timed struct{ start, end time.Time }
	calls := make([]timed, len(edits))
	s0 := time.Now()
	sh.store.Update(sh.ids[sess], true, func(_ *server.Session, eng *engine.Engine) error {
		for i, op := range edits {
			at, _ := ref.ParseA1(op.Cell)
			calls[i].start = time.Now()
			switch {
			case op.Value != nil:
				eng.SetValue(at, formula.Num(*op.Value))
			case op.Formula != nil:
				eng.SetFormulaParsed(at, *op.Formula, asts[i])
			case op.Clear:
				eng.ClearCell(at)
			}
			calls[i].end = time.Now()
		}
		return nil
	})
	store := tr.record(root, id, "server", "store_update", s0, time.Now())
	g := sh.graphs[sess]
	for i, op := range edits {
		at, _ := ref.ParseA1(op.Cell)
		cell := ref.CellRange(at)
		if op.Formula == nil {
			set := tr.record(store, id, "engine", "set_value", calls[i].start, calls[i].end)
			tr.child(set, id, "core", "find_dependents", func() { g.FindDependents(cell) })
			continue
		}
		set := tr.record(store, id, "engine", "set_formula", calls[i].start, calls[i].end)
		tr.child(set, id, "core", "clear", func() { g.Clear(cell) })
		for _, r := range formula.Refs(asts[i]) {
			d := core.Dependency{Prec: r.At, Dep: at, HeadFixed: r.HeadFixed, TailFixed: r.TailFixed}
			tr.child(set, id, "core", "add", func() { g.AddDependency(d) })
		}
		tr.child(set, id, "core", "find_dependents", func() { g.FindDependents(cell) })
	}
}

// replayRead replays a GET cells: the store view with the engine's range
// scan inside it, and the encoding of the result.
func (sh *shadow) replayRead(tr *tracer, root int32, id int64, sess int, rng ref.Range) {
	res := server.CellsResult{Cells: []server.CellOut{}}
	var e0, e1 time.Time
	s0 := time.Now()
	sh.store.View(sh.ids[sess], func(_ *server.Session, eng *engine.Engine) error {
		e0 = time.Now()
		eng.ScanRange(rng, func(at ref.Ref, v formula.Value, src string, clean bool) bool {
			res.Cells = append(res.Cells, server.CellOut{Cell: ref.FormatA1(at), Kind: "number", Num: v.Num, Formula: src, Pending: !clean})
			return true
		})
		e1 = time.Now()
		return nil
	})
	store := tr.record(root, id, "server", "store_view", s0, time.Now())
	tr.record(store, id, "engine", "scan_range", e0, e1)
	tr.child(root, id, "server", "json", func() { json.Marshal(res) })
}

// replayQuery replays a GET dependents: the store view with the traversal
// inside it (the engine adds nothing to the graph's own call), and the
// encoding.
func (sh *shadow) replayQuery(tr *tracer, root int32, id int64, sess int, cell ref.Range) {
	var res server.QueryResult
	var e0, e1 time.Time
	s0 := time.Now()
	sh.store.View(sh.ids[sess], func(_ *server.Session, eng *engine.Engine) error {
		e0 = time.Now()
		rs := eng.Dependents(cell)
		e1 = time.Now()
		res = server.QueryResult{Of: cell.String(), Ranges: make([]string, len(rs)), Cells: core.CountCells(rs)}
		for i, r := range rs {
			res.Ranges[i] = r.String()
		}
		return nil
	})
	store := tr.record(root, id, "server", "store_view", s0, time.Now())
	tr.record(store, id, "core", "find_dependents", e0, e1)
	tr.child(root, id, "server", "json", func() { json.Marshal(res) })
}
