package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// scenario is the code behind one of the five named workloads. The runner
// owns the order of the phases and all the arithmetic; a scenario only
// generates inputs, loads them, drives ops and checks outputs.
type scenario interface {
	// generate makes every input from the seed: contents and op streams. It
	// is the benchmark's own work and is not part of setup_s.
	generate(seed int64) error
	// setup loads the generated inputs into a fresh instance of the program,
	// runs the first full recalculation and one warm-up pass. It reports the
	// cells loaded and the seconds the load alone took. dir is scratch space
	// inside the output directory.
	setup(dir string) (cells int, loadSeconds float64, err error)
	// release drops the generated inputs the timed phase does not need.
	release()
	// probe builds the shadow instances a traced run replays against and
	// makes the one-shot per-layer measurements.
	probe(tr *tracer) error
	clients() int
	// runClient drives client c until ep says stop. Clients of one workload
	// share nothing they write to.
	runClient(c int, ep *epochCtl, st *clientStats, tr *tracer)
	// verify checks the program's final outputs against the oracle and
	// returns checks made and checks failed.
	verify() (attempted, failed int)
	// exact adds the exact size of the compressed graphs as loaded, before
	// any timed op.
	exact(m map[string]float64)
	opHash() string
	teardown()
}

func newWorkload(name string) (scenario, error) {
	switch name {
	case "graph_corpus":
		return &graphCorpus{}, nil
	case "engine_recalc":
		return &engineRecalc{}, nil
	case "serve_interactive", "serve_durable_churn":
		return &serveSessions{durable: name == "serve_durable_churn"}, nil
	case "serve_big_drain":
		return &serveBigDrain{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"graph_corpus", "engine_recalc", "serve_interactive", "serve_durable_churn", "serve_big_drain"}

// epochCtl tells a client when its epoch ends: at the deadline, or, when no
// deadline is set, after its fifth of one pass over its op list.
type epochCtl struct {
	deadline time.Time
	replay   bool // traced run: replay sampled ops against the shadow layers
}

// sampled reports whether op i of a list is one of the 1-in-k that a replay
// epoch replays against the shadow layers.
func (e *epochCtl) sampled(i, k int) bool {
	return e.replay && (sz.replayAll || i%k == 0)
}

// done reports whether a client that has run ops of its listLen ops this
// epoch should stop.
func (e *epochCtl) done(ops, listLen int) bool {
	if e.deadline.IsZero() {
		return ops >= max(1, listLen/epochs)
	}
	return !time.Now().Before(e.deadline)
}

const (
	setupMinReps = 3
	setupMaxReps = 12
	setupBudget  = 4.0 // seconds
)

func sum(xs []float64) (t float64) {
	for _, x := range xs {
		t += x
	}
	return t
}

type runOpts struct {
	seed    int64
	seconds float64 // length of the timed phase; 0 runs one pass over the op lists
	trace   bool
	out     string // output directory
}

// result is one workload's report.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	OpHash    string             `json:"op_hash"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	GenS      float64            `json:"generate_s"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"` // absent: the workload has no such operation
	Raw       map[string]float64 `json:"raw"`     // the timing metrics before they were put at yardRef speed
	Samples   map[string]int     `json:"samples"`
	Spread    map[string]float64 `json:"epoch_spread"`
}

// liveHeap is HeapAlloc after two forced collections (the second one frees
// what finalizers released during the first), less the yardstick's array.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-uint64(8*len(yardMem))) / (1 << 20)
}

func runWorkload(name string, o runOpts, log io.Writer) (*result, error) {
	start := time.Now()
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: o.seed, Traced: o.trace,
		Metrics: map[string]float64{}, Raw: map[string]float64{}, Samples: map[string]int{}, Spread: map[string]float64{}}
	if err := w.generate(o.seed); err != nil {
		return nil, fmt.Errorf("%s: generate: %w", name, err)
	}
	res.GenS = time.Since(start).Seconds()
	res.OpHash = w.opHash()

	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up, several times over so that setup_s is a median. Two set-ups
	// precede the timed phase (the second is the instance it runs on) and the
	// rest follow it, so that the median spans two stretches of host time.
	// Traced runs and fixed-length runs report no set-up time and set up once.
	// yard is the latest yardstick reading. Consecutive set-ups, and
	// consecutive epochs, share the reading between them.
	yard := 0.0
	var setupTimes, loadRates, setupSpeeds []float64
	setupOnce := func() error {
		w.teardown()
		runtime.GC() // every set-up starts from the same heap
		if yard == 0 {
			yard = yardstick()
		}
		y0 := yard
		t0 := time.Now()
		cells, loadS, err := w.setup(filepath.Join(scratch, fmt.Sprint("setup", len(setupTimes))))
		if err != nil {
			return fmt.Errorf("%s: setup: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		loadRates = append(loadRates, float64(cells)/loadS)
		yard = yardstick()
		setupSpeeds = append(setupSpeeds, hostSpeed(y0, yard))
		return nil
	}
	defer w.teardown()
	once := o.trace || o.seconds == 0
	if !once {
		if err := setupOnce(); err != nil {
			return nil, err
		}
	}
	if err := setupOnce(); err != nil {
		return nil, err
	}
	w.release()
	res.Metrics["live_heap_mb"] = liveHeap()
	w.exact(res.Metrics)

	tr := newTracer(time.Now())
	if o.trace {
		if err := w.probe(tr); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", name, err)
		}
	}

	// The timed phase.
	var clean, replayed []epochStats
	var tele telemetrySnap
	yard = yardstick()
	for e := 0; e < epochs; e++ {
		ep := &epochCtl{replay: o.trace && e%2 == 1}
		if o.seconds > 0 {
			ep.deadline = time.Now().Add(time.Duration(o.seconds / epochs * float64(time.Second)))
		}
		var before telemetrySnap
		if !ep.replay {
			before = scrapeTelemetry()
		}
		y0 := yard
		es := runEpoch(w, ep, tr)
		yard = yardstick()
		es.speed = hostSpeed(y0, yard)
		if ep.replay {
			replayed = append(replayed, es)
		} else {
			tele.addInterval(before, scrapeTelemetry())
			clean = append(clean, es)
		}
		res.Attempted += es.attempted
		res.Failed += es.failed
	}

	va, vf := w.verify()
	res.Attempted += va
	res.Failed += vf
	yard = 0

	// The remaining set-ups: at least setupMinReps in all, and until
	// setupBudget is spent, so that a cheap set-up is sampled for as long as
	// a dear one.
	for !once && len(setupTimes) < setupMaxReps && (len(setupTimes) < setupMinReps || sum(setupTimes) < setupBudget) {
		if err := setupOnce(); err != nil {
			return nil, err
		}
	}
	res.set("setup_s", setupTimes, setupSpeeds, false, len(setupTimes))
	res.set("load_cells_per_s", loadRates, setupSpeeds, true, len(setupTimes))

	res.summarise(clean)
	tele.metrics(res.Metrics)
	edits := 0
	for _, es := range clean {
		edits += es.edits
	}
	if disk := res.Metrics["journal.append_bytes"] + res.Metrics["server.spill_bytes"]; disk > 0 && edits > 0 {
		res.Metrics["disk_bytes_per_edit"] = disk / float64(edits)
	}
	res.Metrics["failed_op_fraction"] = float64(res.Failed) / float64(max(res.Attempted, 1))

	if o.trace {
		for key, a := range tr.acc {
			res.Metrics[key+"_s"] = a.seconds
			res.Metrics[key+"_calls"] = float64(a.calls)
		}
		for key, v := range tr.vals {
			res.Metrics[key] = v
		}
		derivedSpeedups(res.Metrics)
		at := tr.attribute()
		at.print(log, name)
		res.Metrics["trace.unattributed_fraction"] = at.unattributedFraction()
		res.Metrics["trace.overhead_fraction"] = 1 - ratio(medianRate(replayed), medianRate(clean))
		if err := tr.writeFile(filepath.Join(o.out, "trace_"+name+".json")); err != nil {
			return nil, err
		}
	}
	for name := range res.Metrics {
		if !knownMetric[name] {
			return nil, fmt.Errorf("%s: metric %q is not in the benchmark's lists", name, name)
		}
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// epochStats is the merged client statistics of one epoch plus its wall time.
type epochStats struct {
	clientStats
	wall    float64
	clients int
	speed   float64 // of the host while the epoch ran, relative to yardRef
}

func runEpoch(w scenario, ep *epochCtl, tr *tracer) epochStats {
	n := w.clients()
	sts := make([]clientStats, n)
	trs := make([]*tracer, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < n; c++ {
		trs[c] = newTracer(tr.t0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.runClient(c, ep, &sts[c], trs[c])
		}()
	}
	wg.Wait()
	es := epochStats{wall: time.Since(t0).Seconds(), clients: n}
	for c := range sts {
		es.merge(&sts[c])
		tr.merge(trs[c])
	}
	return es
}

func medianRate(es []epochStats) float64 {
	var r []float64
	for _, e := range es {
		r = append(r, float64(e.edits)/e.wall/e.speed)
	}
	return median(r)
}

// summarise reduces the untraced epochs to the timing metrics: each is the
// median over epochs of that epoch's value.
func (res *result) summarise(es []epochStats) {
	speeds := make([]float64, len(es))
	for i, e := range es {
		speeds[i] = e.speed
	}
	type pct struct {
		name  string
		kind  int
		q     float64
		scale float64
	}
	for _, p := range []pct{
		{"edit_p50_ms", kEdit, 0.50, 1e3}, {"edit_p99_ms", kEdit, 0.99, 1e3},
		{"settle_p50_ms", kSettle, 0.50, 1e3},
		{"read_p50_ms", kRead, 0.50, 1e3}, {"read_p99_ms", kRead, 0.99, 1e3},
		{"query_p50_us", kQuery, 0.50, 1e6},
	} {
		vals := make([]float64, len(es))
		n := 0
		for i, e := range es {
			vals[i] = p.scale * percentile(e.lat[p.kind], p.q)
			n += len(e.lat[p.kind])
		}
		res.set(p.name, vals, speeds, false, n)
	}
	rate := make([]float64, len(es))
	recalc := make([]float64, len(es))
	edits, drains, late, queue := 0, 0, 0, 0
	for i, e := range es {
		queue = max(queue, e.queueMax)
		rate[i] = float64(e.edits) / e.wall
		recalc[i] = math.NaN()
		if e.drainWall > 0 {
			recalc[i] = float64(e.drainCells) / e.drainWall
		}
		edits += e.edits
		drains += e.drainCells
		if e.gen > 0.5*e.wall*float64(e.clients) {
			late++
		}
	}
	res.set("edits_per_s", rate, speeds, true, edits)
	res.set("recalc_cells_per_s", recalc, speeds, true, drains)
	res.Metrics["gen.late_fraction"] = float64(late) / float64(max(len(es), 1))
	res.Metrics["server.recalc_queue_depth_max"] = float64(queue)
}

// set reports one timing metric from its values per interval (epoch or
// set-up): raw as measured, and in Metrics at yardRef speed, a time
// multiplied and a rate divided by the host's speed during its interval.
func (res *result) set(name string, vals, speeds []float64, rate bool, samples int) {
	raw, _ := overEpochs(vals)
	if math.IsNaN(raw) {
		return
	}
	scaled := make([]float64, len(vals))
	for i, v := range vals {
		if rate {
			scaled[i] = v / speeds[i]
		} else {
			scaled[i] = v * speeds[i]
		}
	}
	res.Raw[name] = raw
	res.Metrics[name], res.Spread[name] = overEpochs(scaled)
	res.Samples[name] = samples
}

// derivedSpeedups are the paper's Figs. 10-12 as ratios of per-call cost.
func derivedSpeedups(m map[string]float64) {
	perCall := func(key string) float64 { return ratio(m[key+"_s"], m[key+"_calls"]) }
	if t := perCall("core.find_dependents"); t > 0 {
		m["core.find_dependents_speedup_vs_nocomp"] = perCall("nocomp.find_dependents") / t
	}
	if t := perCall("core.clear"); t > 0 {
		m["core.modify_speedup_vs_nocomp"] = perCall("nocomp.clear") / t
	}
}
