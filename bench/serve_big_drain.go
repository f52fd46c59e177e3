package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/workload"
)

// serveBigDrain holds the engine_recalc ledger in two sessions of a
// non-durable server. Client 0 loops rate edits, each followed by a flush;
// client 1 loops 50-row GET cells at random offsets on the same sessions, so
// every read races a live drain. The evaluation work is the
// same as engine_recalc's rate edits, but done by the store's bounded-hold
// drain workers: recalc_cells_per_s here over there is the serving gap, and
// the reads show what a faster drain costs in lock holds.
type serveBigDrain struct {
	seed  int64
	hash  opHash
	sheet *workload.Sheet
	load  []byte
	rates []float64 // client 0
	reads []bigRead // client 1
	next  [2]int

	h    *harness
	ids  []string
	last []float64 // last acknowledged rate per session

	sh *shadow
}

const (
	bigSessions = 2
	bigReadRows = 50
	// bigSample is the 1-in-k of requests replayed in a traced run: every
	// second rate edit, one read in sixteen.
	bigEditSample = 2
	bigReadSample = 16
)

type bigRead struct {
	rng  ref.Range
	path string
}

func (w *serveBigDrain) clients() int   { return 2 }
func (w *serveBigDrain) opHash() string { return w.hash.String() }

func (w *serveBigDrain) inputs() {
	if w.sheet == nil {
		w.sheet = ledgerSheet(sz.ledgerRows, rand.New(rand.NewSource(w.seed)))
	}
	if w.load == nil {
		w.load, _ = json.Marshal(server.EditBatch{Edits: sheetBatch(w.sheet)}) // cannot fail: strings and finite numbers
	}
}

func (w *serveBigDrain) generate(seed int64) error {
	w.seed, w.hash = seed, newOpHash()
	w.inputs()
	rng := rand.New(rand.NewSource(seed ^ 0xb16))
	for i := 0; i < sz.readsPerClient; i++ {
		w.rates = append(w.rates, 1+float64(1+rng.Intn(999))/10000)
		row := 1 + rng.Intn(max(1, sz.ledgerRows-bigReadRows))
		rd := bigRead{rng: ref.RangeOf(ref.Ref{Col: colA, Row: row}, ref.Ref{Col: colH, Row: row + bigReadRows - 1})}
		rd.path = "/cells?range=" + rd.rng.String()
		w.reads = append(w.reads, rd)
		w.hash.add("%v %s", w.rates[i], rd.path)
	}
	return nil
}

func (w *serveBigDrain) setup(string) (int, float64, error) {
	w.inputs()
	// The whole ledger goes up as one batch, so that it takes the bulk path
	// like a file open; the default batch limit would split it into pieces
	// applied one edit at a time.
	h, err := startServer(server.Options{MaxBatchEdits: len(w.sheet.Cells), MaxRangeCells: colH * sz.ledgerRows})
	if err != nil {
		return 0, 0, err
	}
	w.h, w.next = h, [2]int{}
	w.ids = make([]string, bigSessions)
	w.last = make([]float64, bigSessions)
	t0 := time.Now()
	for i := range w.ids {
		if w.ids[i], err = h.createLoaded(w.load); err != nil {
			return 0, 0, err
		}
		w.last[i] = w.sheet.Cells[rateCell].Value.Num
	}
	loadS := time.Since(t0).Seconds()
	// Warm-up: two rate edits per session, and as many reads.
	var st clientStats
	for i := 0; i < 2*bigSessions; i++ {
		w.rateEdit(&st, nil, false)
		w.read(&st, nil, false)
	}
	if st.failed > 0 {
		return 0, 0, fmt.Errorf("%d of %d warm-up requests failed", st.failed, st.attempted)
	}
	return bigSessions * len(w.sheet.Cells), loadS, nil
}

func (w *serveBigDrain) release() { w.load, w.sheet = nil, nil }

func (w *serveBigDrain) teardown() {
	w.h.stop()
	w.h = nil
	w.sh.close()
	w.sh = nil
}

func (w *serveBigDrain) probe(tr *tracer) error {
	w.inputs()
	defer func() { w.sheet = nil }()
	var err error
	// One shadow session per client: the writer's replayed drains hold the
	// session lock for as long as the live ones do, and the reader's replays
	// must not queue behind them.
	w.sh, err = newShadow([]*workload.Sheet{w.sheet, w.sheet}, tr)
	return err
}

func (w *serveBigDrain) runClient(c int, ep *epochCtl, st *clientStats, tr *tracer) {
	if c == 0 {
		for n := 0; !ep.done(n, len(w.rates)); n++ {
			w.rateEdit(st, tr, ep.sampled(w.next[0], bigEditSample))
		}
		return
	}
	for n := 0; !ep.done(n, len(w.reads)); n++ {
		w.read(st, tr, ep.sampled(w.next[1], bigReadSample))
		if n%32 == 0 {
			st.queueMax = max(st.queueMax, w.h.srv.Store().Stats().RecalcQueue)
		}
	}
}

// rateEdit writes $H$1 of the next session and waits for the recalculation
// of every dependent.
func (w *serveBigDrain) rateEdit(st *clientStats, tr *tracer, replay bool) {
	i := w.next[0]
	w.next[0] = (i + 1) % len(w.rates)
	sess, rate := i%bigSessions, w.rates[i]
	body, _ := json.Marshal(server.EditBatch{Edits: []server.EditOp{{Cell: ref.FormatA1(rateCell), Value: &rate}}})
	id := "/sessions/" + w.ids[sess]
	st.attempted++
	t0 := time.Now()
	reply, status, t1, err := w.h.do("POST", id+"/edits", body)
	_, fstatus, t2, ferr := w.h.do("POST", id+"/flush", nil)
	var res server.EditResult
	if err != nil || ferr != nil || status != 200 || fstatus != 200 || json.Unmarshal(reply, &res) != nil || res.Applied != 1 {
		st.failed++
		return
	}
	w.last[sess] = rate
	st.edits++
	st.lat[kEdit] = append(st.lat[kEdit], t1.Sub(t0).Seconds())
	st.lat[kSettle] = append(st.lat[kSettle], t2.Sub(t0).Seconds())
	st.drainCells += res.DirtyCells
	st.drainWall += t2.Sub(t1).Seconds()
	if !replay {
		return
	}
	op := int64(i)
	edit := tr.record(-1, op, "server", "http_edit", t0, t1)
	w.sh.replayEdits(tr, edit, op, 0, body, []server.EditOp{{Cell: ref.FormatA1(rateCell), Value: &rate}})
	// The flush: beneath it the same drain as one engine call on the shadow
	// session, so that the flush's self time is what bounded holds, the HTTP
	// round trip and the racing reader add. Beside it, as references outside
	// the span tree: the store's own chunked Wait on the dirty set the
	// replayed edit left (it runs while the reader spins on an idle live
	// server, so it is no fair child of the live flush), and the drain again
	// with a single worker.
	flush := tr.record(-1, op, "server", "http_flush", t1, t2)
	sid := w.sh.ids[0]
	s := time.Now()
	w.sh.store.Wait(sid)
	tr.add("server", "store_update", time.Since(s), 1)
	for _, serial := range []bool{false, true} {
		w.sh.store.Update(sid, false, func(_ *server.Session, eng *engine.Engine) error {
			par := eng.RecalcParallelism()
			if serial {
				eng.SetRecalcParallelism(1)
			}
			eng.SetValue(rateCell, formula.Num(rate))
			s := time.Now()
			eng.RecalculateAll()
			e := time.Now()
			if serial {
				tr.add("engine", "drain_serial", e.Sub(s), 1)
				eng.SetRecalcParallelism(par)
			} else {
				tr.record(flush, op, "engine", "drain", s, e)
			}
			return nil
		})
	}
}

// read sends the reader's next request.
func (w *serveBigDrain) read(st *clientStats, tr *tracer, replay bool) {
	i := w.next[1]
	w.next[1] = (i + 1) % len(w.reads)
	rd := w.reads[i]
	st.attempted++
	t0 := time.Now()
	reply, status, t1, err := w.h.do("GET", "/sessions/"+w.ids[i%bigSessions]+rd.path, nil)
	var res server.CellsResult
	ok := err == nil && status == 200 && json.Unmarshal(reply, &res) == nil && len(res.Cells) > 0
	st.lat[kRead] = append(st.lat[kRead], t1.Sub(t0).Seconds())
	if replay && ok {
		op := int64(1)<<32 | int64(i)
		w.sh.replayRead(tr, tr.record(-1, op, "server", "http_read", t0, t1), op, 1, rd.rng)
	}
	if !ok {
		st.failed++
	}
	st.gen += time.Since(t1).Seconds()
}

// verify reads both sessions back in full and compares them with the ledger
// evaluated locally at each session's last acknowledged rate.
func (w *serveBigDrain) verify() (attempted, failed int) {
	w.inputs()
	whole := bounds(w.sheet).String()
	for i, id := range w.ids {
		st := newSheetState(w.sheet)
		st[rateCell] = cellState{value: formula.Num(w.last[i])}
		want, err := st.expected()
		var got server.CellsResult
		if err == nil {
			err = w.h.call("GET", "/sessions/"+id+"/cells?wait=1&range="+whole, nil, &got)
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

func (w *serveBigDrain) exact(m map[string]float64) {
	for _, id := range w.ids {
		w.h.graphStats(id, m)
	}
}
