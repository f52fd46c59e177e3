// Command tacoload drives a tacoserve instance with a concurrent,
// scenario-derived workload and reports throughput and latency percentiles.
// It is the serving counterpart of cmd/tacobench: where tacobench measures
// the graph substrate, tacoload measures the whole service — session
// creation, batched edits through live TACO graphs, dependent queries, and
// (when the server runs with -max-resident) spill/restore traffic.
//
// Usage:
//
//	tacoload [-addr http://host:8737] [-inproc] [-sessions 32] [-rows 100]
//	         [-edits 200] [-batch 8] [-read-ratio 0] [-formula-ratio -1]
//	         [-flush-ratio 0] [-scenario mixed] [-seed 1] [-max-resident 0]
//	         [-durable] [-fsync interval] [-replay]
//	         [-recalc-workers 0]
//	         [-drain-sessions 4] [-drain-fanout 8000] [-drain-span 2000]
//	         [-drain-probes 3] [-metrics-url URL] [-standby-url URL]
//	         [-standby-read-ratio 0.25] [-json] [-cpuprofile FILE]
//
// With -inproc (the default when -addr is empty) the service is hosted
// inside the process on a loopback listener, so a single command produces a
// self-contained benchmark. -json emits the machine-readable report written
// to BENCH_server.json.
//
// -read-ratio mixes value reads into the stream: it is the mean number of
// range reads issued per edit batch (fractional values thin them out), which
// exercises the non-blocking read path — reads return last-computed values
// immediately while background recalculation drains. The report counts how
// many reads observed a session with recalculation still pending.
//
// -formula-ratio makes recalculation pressure a dial: it is the probability
// an edit rewrites a formula cell (graph clear + re-add plus a transitive
// dirty fan-out) instead of the scenario's default 15% share; a
// recalc-heavy mix (0.5+) keeps the background wavefront drains saturated.
// -flush-ratio interleaves read-your-writes barriers (POST .../flush) at
// the given mean rate per batch; their latencies — the time for pending
// recalculation to drain — are reported under latency_ms.flush, next to
// the final per-session flush every run issues.
//
// After the main workload, the drain probe (-drain-*) runs the mixed
// read + giant-drain scenario: dedicated wide-fanout sessions are dirtied
// wholesale and point-read while the store's background workers drain them
// in bounded lock holds. Reads answered with recalculation pending yield
// read_p50_during_drain_ms (how long a reader is blocked by a live drain —
// the per-level lock-release contract measured end to end) and the rounds'
// wall time yields drain_cells_per_sec (cross-session drain throughput on
// the store's drain workers). Both are gated by benchdiff.
//
// -replay turns tacoload into a crash-recovery verifier: pointed (with the
// original run's flags) at a server that was killed mid-workload and
// restarted on the same spill directory, it regenerates each load session's
// edit stream, applies exactly the batches the server acknowledged to a
// local engine, and requires every cell to match bit-for-bit. -durable and
// -fsync configure the in-process server's edit journaling, matching
// tacoserve's flags of the same names.
//
// With -standby-url, a warm standby shadows the run: a slice of the read
// traffic (-standby-read-ratio mirrored reads per edit batch) is replayed
// against it, and the lag each read observed — the standby's
// X-Replication-Lag-Rev/-Ms response headers — reports as percentiles under
// "standby", next to the mirrored reads' own latency (latency_ms
// .standby_cells). "inproc" boots the standby in-process, following the
// target server over journal shipping — with -durable, one self-contained
// command benchmarks the replicated configuration. Mirrored reads that
// arrive before the standby has bootstrapped a session count as not_found
// rather than failing the run.
//
// With -metrics-url (a full URL, or a bare path like /metrics resolved
// against the target server), the run is bracketed by two telemetry scrapes
// and the report gains server_metrics: the server's own account of the run —
// drain-hold p50/p99 from inside the session locks, cells evaluated,
// spill/restore traffic, schedule build/resume counts, and the parse cache
// hit rate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/stats"
	"taco/internal/telemetry"
	"taco/internal/workload"
)

type config struct {
	Addr         string  `json:"addr,omitempty"`
	InProc       bool    `json:"inproc"`
	Sessions     int     `json:"sessions"`
	Rows         int     `json:"rows"`
	Edits        int     `json:"edits_per_session"`
	Batch        int     `json:"batch_size"`
	ReadRatio    float64 `json:"read_ratio"`
	FormulaRatio float64 `json:"formula_ratio"`
	FlushRatio   float64 `json:"flush_ratio"`
	Scenario     string  `json:"scenario"`
	Seed         int64   `json:"seed"`
	MaxResident  int     `json:"max_resident"`
	// Durability knobs for the in-process server: journal edits (and pay the
	// fsync policy's cost) so the benchmark measures the crash-safe
	// configuration.
	Durable     bool   `json:"durable,omitempty"`
	FsyncPolicy string `json:"fsync,omitempty"`
	// ChurnRounds appends value-only single-edit rounds over every load
	// session after the main workload — with -max-resident below the session
	// count each round is an eviction-churn pass, the shape a durable store
	// evicts without writing (the journal already holds the edits).
	ChurnRounds int `json:"churn_rounds,omitempty"`
	// ForkStorm forks the first load session this many times after the
	// workload (POST /sessions/{id}/fork), measuring copy-on-write fork
	// latency; children are deleted afterwards.
	ForkStorm int `json:"fork_storm,omitempty"`
	// Drain workers of the in-process server (0 = store default).
	RecalcWorkers int `json:"recalc_workers,omitempty"`
	// Drain-probe scenario (see runDrainProbe): sessions × fanout-sized
	// dirty sets per probe round, reads issued against the live drains.
	DrainSessions int `json:"drain_sessions"`
	DrainFanout   int `json:"drain_fanout"`
	DrainSpan     int `json:"drain_span"`
	DrainProbes   int `json:"drain_probes"`
	// MetricsURL is the /metrics endpoint scraped before and after the run
	// for server-side deltas ("" = disabled).
	MetricsURL string `json:"metrics_url,omitempty"`
	// StandbyURL mirrors a fraction of reads to a warm standby ("" =
	// disabled; "inproc" boots one in-process following the target server).
	StandbyURL string `json:"standby_url,omitempty"`
	// StandbyReadRatio is the mean standby reads mirrored per primary read.
	StandbyReadRatio float64 `json:"standby_read_ratio,omitempty"`
}

// report is the machine-readable output schema of -json (and the checked-in
// BENCH_server.json baseline).
type report struct {
	Bench         string                          `json:"bench"`
	Config        config                          `json:"config"`
	ElapsedMs     float64                         `json:"elapsed_ms"`
	Requests      int                             `json:"requests"`
	EditsApplied  int                             `json:"edits_applied"`
	RequestsPerS  float64                         `json:"requests_per_sec"`
	EditsPerS     float64                         `json:"edits_per_sec"`
	Reads         int                             `json:"reads"`
	PendingReads  int                             `json:"pending_reads"`
	Flushes       int                             `json:"flushes"`
	Latency       map[string]stats.LatencySummary `json:"latency_ms"`
	Store         server.StoreStats               `json:"store"`
	DirtyPerBatch float64                         `json:"mean_dirty_cells_per_batch"`
	// Drain-probe series (the mixed read + giant-drain scenario): reads
	// that landed while a wavefront drain was live, their p50, and the
	// cross-session drain throughput. Gated by benchdiff — the p50 is the
	// "a reader is blocked for at most one bounded hold" contract measured
	// end to end.
	ReadsDuringDrain     int     `json:"reads_during_drain"`
	ReadP50DuringDrainMs float64 `json:"read_p50_during_drain_ms"`
	DrainCellsPerSec     float64 `json:"drain_cells_per_sec"`
	// SpillBytesPerEdit is the server's spill traffic over the whole run
	// (taco_store_spill_bytes_total scrape delta) divided by the edits
	// applied — the eviction write-amplification figure. Present only with
	// -metrics-url. Gated by benchdiff.
	SpillBytesPerEdit float64 `json:"spill_bytes_per_edit,omitempty"`
	// Fork-storm series (-fork-storm): copy-on-write fork latency. The p50 is
	// gated by benchdiff — it must stay flat as parent sheets grow.
	Forks     int     `json:"forks,omitempty"`
	ForkP50Ms float64 `json:"fork_p50_ms,omitempty"`
	ForkP99Ms float64 `json:"fork_p99_ms,omitempty"`
	// ServerMetrics carries server-side telemetry deltas between a /metrics
	// scrape before the workload and one after the drain probe — the
	// server's own account of the run, next to the client-side percentiles
	// above. Present only with -metrics-url.
	ServerMetrics *serverMetricsDelta `json:"server_metrics,omitempty"`
	// Standby reports the replication view of the run: mirrored-read
	// latency and the lag each mirrored read observed. Present only with
	// -standby-url.
	Standby *standbyReport `json:"standby,omitempty"`
}

// standbyReport summarises the reads mirrored to a warm standby: how far
// behind the standby was (revisions and milliseconds, from its
// X-Replication-Lag-* headers) and how fast it answered. NotFound counts
// mirrored reads that raced session bootstrap (the standby had not created
// the session yet).
type standbyReport struct {
	URL           string               `json:"url"`
	MirroredReads int                  `json:"mirrored_reads"`
	NotFound      int                  `json:"not_found"`
	LagRevsP50    float64              `json:"lag_revs_p50"`
	LagRevsP99    float64              `json:"lag_revs_p99"`
	LagRevsMax    float64              `json:"lag_revs_max"`
	LagMsP50      float64              `json:"lag_ms_p50"`
	LagMsP99      float64              `json:"lag_ms_p99"`
	LagMsMax      float64              `json:"lag_ms_max"`
	ReadLatency   stats.LatencySummary `json:"read_latency_ms"`
}

// serverMetricsDelta is the server's view of one tacoload run, computed as
// the difference of two /metrics scrapes bracketing the workload. The
// client-side latencies in the report include network and JSON costs; these
// come from inside the server's locks and caches.
type serverMetricsDelta struct {
	// Drain-hold histogram over the run: how long session write locks were
	// held per recalculation chunk, the server-side counterpart of the
	// client's read_p50_during_drain_ms.
	DrainHoldP50Ms    float64 `json:"drain_hold_p50_ms"`
	DrainHoldP99Ms    float64 `json:"drain_hold_p99_ms"`
	DrainHoldSamples  uint64  `json:"drain_hold_samples"`
	CellsEvaluated    float64 `json:"cells_evaluated"`
	Evictions         float64 `json:"evictions"`
	SnapshotSkips     float64 `json:"snapshot_skips"`
	SpillBytes        float64 `json:"spill_bytes"`
	DeltaWrites       float64 `json:"delta_writes,omitempty"`
	DeltaCompactions  float64 `json:"delta_compactions,omitempty"`
	Restores          float64 `json:"restores"`
	ScheduleBuilds    float64 `json:"schedule_builds"`
	ScheduleResumes   float64 `json:"schedule_resumes"`
	ParseCacheHitRate float64 `json:"parse_cache_hit_rate"`
}

// scrapeMetrics fetches and parses one /metrics page.
func scrapeMetrics(client *http.Client, url string) (*telemetry.Scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	s, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", url, err)
	}
	return s, nil
}

// metricsDelta reduces two scrapes bracketing the run to the report's
// server-side summary.
func metricsDelta(before, after *telemetry.Scrape) *serverMetricsDelta {
	d := &serverMetricsDelta{}
	counter := func(name string) float64 {
		a, _ := after.Value(name, nil)
		b, _ := before.Value(name, nil)
		return a - b
	}
	d.CellsEvaluated = counter("taco_engine_cells_evaluated_total")
	d.Evictions = counter("taco_store_evictions_total")
	d.SnapshotSkips = counter("taco_store_snapshot_skips_total")
	d.SpillBytes = counter("taco_store_spill_bytes_total")
	d.DeltaWrites = counter("taco_snap_delta_writes_total")
	d.DeltaCompactions = counter("taco_snap_delta_compactions_total")
	d.Restores = counter("taco_store_restores_total")
	d.ScheduleBuilds = counter("taco_sched_builds_total")
	d.ScheduleResumes = counter("taco_sched_resumes_total")
	hits := counter("taco_parse_cache_hits_total")
	misses := counter("taco_parse_cache_misses_total")
	if hits+misses > 0 {
		d.ParseCacheHitRate = hits / (hits + misses)
	}
	// Histogram delta: per-bucket counts over the run, quantiles estimated
	// from the differenced buckets.
	bounds, cAfter, _, _, okA := after.Histogram("taco_store_drain_hold_seconds")
	bBounds, cBefore, _, _, okB := before.Histogram("taco_store_drain_hold_seconds")
	if okA {
		diff := make([]uint64, len(cAfter))
		copy(diff, cAfter)
		if okB && len(cBefore) == len(cAfter) && len(bBounds) == len(bounds) {
			for i := range diff {
				diff[i] -= cBefore[i]
			}
		}
		for _, c := range diff {
			d.DrainHoldSamples += c
		}
		d.DrainHoldP50Ms = telemetry.Quantile(bounds, diff, 0.50) * 1000
		d.DrainHoldP99Ms = telemetry.Quantile(bounds, diff, 0.99) * 1000
	}
	return d
}

func main() {
	addr := flag.String("addr", "", "target server base URL (empty: host in-process)")
	inproc := flag.Bool("inproc", false, "host the server in-process on a loopback listener")
	sessions := flag.Int("sessions", 32, "concurrent sessions")
	rows := flag.Int("rows", 100, "scenario size per session")
	edits := flag.Int("edits", 200, "edits per session")
	batch := flag.Int("batch", 8, "edits per batch request")
	readRatio := flag.Float64("read-ratio", 0, "mean range reads per edit batch (read-heavy mixes exercise the non-blocking read path)")
	formulaRatio := flag.Float64("formula-ratio", -1, "probability an edit rewrites a formula cell (-1 = scenario default 0.15; higher = recalc-heavy)")
	flushRatio := flag.Float64("flush-ratio", 0, "mean read-your-writes flush barriers per edit batch (their drain latency reports as latency_ms.flush)")
	scenario := flag.String("scenario", "mixed", "workload scenario: financial|inventory|gradebook|planning|mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	maxResident := flag.Int("max-resident", 0, "in-process server only: session cap forcing spill traffic")
	durable := flag.Bool("durable", false, "in-process server only: journal edits and persist the session registry (crash-safe configuration)")
	fsyncPolicy := flag.String("fsync", "interval", "in-process server only: journal fsync policy with -durable: always|interval|never")
	churnRounds := flag.Int("churn-rounds", 0, "after the workload, this many round-robin rounds of one value edit per session (with -max-resident below -sessions: pure eviction churn, the write-nothing eviction shape)")
	forkStorm := flag.Int("fork-storm", 0, "after the workload, fork the first load session this many times and report fork latency percentiles (needs -durable in-process)")
	replay := flag.Bool("replay", false, "crash-recovery verification: rediscover this workload's loadN sessions on the target server, regenerate their edit streams from the same flags, and require every cell to match a never-crashed local replay")
	recalcWorkers := flag.Int("recalc-workers", 0, "in-process server only: background drain workers (0 = auto)")
	drainSessions := flag.Int("drain-sessions", 4, "drain probe: concurrent giant-drain sessions")
	drainFanout := flag.Int("drain-fanout", 8000, "drain probe: formulas dirtied per session per probe")
	drainSpan := flag.Int("drain-span", 2000, "drain probe: rows each probe formula aggregates over")
	drainProbes := flag.Int("drain-probes", 3, "drain probe: edit rounds (0 disables the probe)")
	metricsURL := flag.String("metrics-url", "", "scrape this /metrics endpoint before and after the run and report server-side deltas (a bare path like /metrics resolves against the target server)")
	standbyURL := flag.String("standby-url", "", "mirror reads to a warm standby at this base URL and report replication lag percentiles (\"inproc\" boots one in-process following the target server)")
	standbyReadRatio := flag.Float64("standby-read-ratio", 0.25, "mean standby reads mirrored per edit batch with -standby-url")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()

	if *sessions < 1 || *rows < 1 || *edits < 1 || *batch < 1 {
		fmt.Fprintln(os.Stderr, "tacoload: -sessions, -rows, -edits, and -batch must all be >= 1")
		os.Exit(2)
	}
	if *readRatio < 0 || *flushRatio < 0 {
		fmt.Fprintln(os.Stderr, "tacoload: -read-ratio and -flush-ratio must be >= 0")
		os.Exit(2)
	}
	if *formulaRatio > 1 {
		fmt.Fprintln(os.Stderr, "tacoload: -formula-ratio must be <= 1")
		os.Exit(2)
	}
	if *drainProbes > 0 && (*drainSessions < 1 || *drainFanout < 1 || *drainSpan < 1) {
		fmt.Fprintln(os.Stderr, "tacoload: -drain-sessions, -drain-fanout, and -drain-span must all be >= 1")
		os.Exit(2)
	}
	if *standbyReadRatio < 0 {
		fmt.Fprintln(os.Stderr, "tacoload: -standby-read-ratio must be >= 0")
		os.Exit(2)
	}
	if *churnRounds < 0 || *forkStorm < 0 {
		fmt.Fprintln(os.Stderr, "tacoload: -churn-rounds and -fork-storm must be >= 0")
		os.Exit(2)
	}
	if *forkStorm > 0 && (*addr == "" || *inproc) && !*durable {
		// Fork is a registry operation: the in-process server needs -durable.
		fmt.Fprintln(os.Stderr, "tacoload: -fork-storm needs -durable")
		os.Exit(2)
	}
	if *standbyURL == "inproc" && (*addr == "" || *inproc) && !*durable {
		// Journal shipping needs a journaling primary: without -durable the
		// in-process server has no journals to tail.
		fmt.Fprintln(os.Stderr, "tacoload: -standby-url inproc needs -durable")
		os.Exit(2)
	}
	cfg := config{
		Addr: *addr, InProc: *addr == "" || *inproc, Sessions: *sessions, Rows: *rows,
		Edits: *edits, Batch: *batch, ReadRatio: *readRatio, FormulaRatio: *formulaRatio,
		FlushRatio: *flushRatio, Scenario: *scenario,
		Seed: *seed, MaxResident: *maxResident,
		Durable: *durable, FsyncPolicy: *fsyncPolicy,
		ChurnRounds: *churnRounds, ForkStorm: *forkStorm,
		RecalcWorkers: *recalcWorkers,
		DrainSessions: *drainSessions, DrainFanout: *drainFanout,
		DrainSpan: *drainSpan, DrainProbes: *drainProbes,
		MetricsURL: *metricsURL,
		StandbyURL: *standbyURL, StandbyReadRatio: *standbyReadRatio,
	}
	if *replay {
		if *addr == "" {
			fmt.Fprintln(os.Stderr, "tacoload: -replay needs -addr pointing at the restarted server")
			os.Exit(2)
		}
		if err := runReplay(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "tacoload: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tacoload: %v\n", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tacoload: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		return
	}
	printReport(rep)
}

func run(cfg config) (*report, error) {
	base := cfg.Addr
	// The default transport keeps only two idle connections per host, so a
	// wide driver would churn TCP connections instead of measuring the
	// server. Keep one warm connection per session worker.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = cfg.Sessions + 8
	tr.MaxIdleConnsPerHost = cfg.Sessions + 8
	client := &http.Client{Transport: tr}
	if cfg.InProc {
		// Match tacoserve's serving-process GC target so the in-process
		// benchmark measures the same configuration production runs.
		if os.Getenv("GOGC") == "" {
			debug.SetGCPercent(300)
		}
		spill, err := os.MkdirTemp("", "tacoload-spill")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(spill)
		srv, err := server.NewServer(server.Options{Store: server.StoreOptions{
			MaxResident: cfg.MaxResident, SpillDir: spill,
			Durable: cfg.Durable, FsyncPolicy: cfg.FsyncPolicy,
			RecalcWorkers: cfg.RecalcWorkers,
		}})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}

	// A warm standby mirrors a slice of the read traffic. -standby-url names
	// a running standby, or "inproc" boots one in-process following the
	// target server — the form the CI bench uses, so one self-contained
	// command measures the durable+shipping configuration end to end.
	standbyBase := cfg.StandbyURL
	if standbyBase == "inproc" {
		sbySpill, err := os.MkdirTemp("", "tacoload-standby")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(sbySpill)
		sby, err := server.NewServer(server.Options{
			Store:   server.StoreOptions{SpillDir: sbySpill, Durable: true, FsyncPolicy: cfg.FsyncPolicy},
			Standby: server.StandbyOptions{PrimaryURL: base, Interval: 0},
		})
		if err != nil {
			return nil, fmt.Errorf("standby: %w", err)
		}
		defer sby.Close()
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		shs := &http.Server{Handler: sby}
		go shs.Serve(sln)
		defer shs.Close()
		standbyBase = "http://" + sln.Addr().String()
	}

	// Bracket the run with /metrics scrapes when asked. A bare path resolves
	// against the target server (in-process included).
	metricsURL := cfg.MetricsURL
	if metricsURL != "" && !strings.Contains(metricsURL, "://") {
		metricsURL = base + "/" + strings.TrimPrefix(metricsURL, "/")
	}
	var metricsBefore *telemetry.Scrape
	if metricsURL != "" {
		var err error
		if metricsBefore, err = scrapeMetrics(client, metricsURL); err != nil {
			return nil, fmt.Errorf("metrics scrape: %w", err)
		}
	}

	scenarios := []string{cfg.Scenario}
	if cfg.Scenario == "mixed" {
		scenarios = workload.ScenarioNames
	}

	type sample struct {
		kind string
		ms   float64
	}
	var mu sync.Mutex
	var samples []sample
	editsApplied := 0
	dirtyTotal, batches := 0, 0
	reads, pendingReads := 0, 0
	flushes := 0
	record := func(kind string, start time.Time) {
		mu.Lock()
		samples = append(samples, sample{kind, float64(time.Since(start).Microseconds()) / 1000})
		mu.Unlock()
	}
	// Replication lag observed by mirrored standby reads, from the
	// X-Replication-Lag-* response headers. notFound counts reads that raced
	// the standby's session bootstrap.
	var sbyLagRevs, sbyLagMs []float64
	sbyNotFound := 0

	begin := time.Now()
	var wg sync.WaitGroup
	// Session IDs by worker index, for the churn and fork phases after the
	// workload. Each worker writes only its own slot; wg.Wait publishes them.
	ids := make([]string, cfg.Sessions)
	errc := make(chan error, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scen := scenarios[i%len(scenarios)]
			seed := cfg.Seed + int64(i)
			// Create the session from a generated scenario (bulk path).
			start := time.Now()
			var info server.SessionInfo
			if err := call(client, "POST", base+"/sessions",
				server.CreateRequest{Name: fmt.Sprintf("load%d", i), Scenario: scen, Rows: cfg.Rows, Seed: seed},
				&info); err != nil {
				errc <- fmt.Errorf("session %d create: %w", i, err)
				return
			}
			record("create", start)
			ids[i] = info.ID

			// The same sheet, regenerated locally, scripts the edit stream.
			sheet, err := workload.BuildScenario(scen, cfg.Rows, rand.New(rand.NewSource(seed)))
			if err != nil {
				errc <- err
				return
			}
			rng := rand.New(rand.NewSource(seed + 10000))
			stream := workload.EditStreamMix(sheet, cfg.Edits, rng, cfg.FormulaRatio)
			queries := workload.QueryStream(sheet, cfg.Edits/cfg.Batch+1, rng)

			// flush issues one read-your-writes barrier: its latency is the
			// time for the session's pending recalculation to drain.
			flush := func() error {
				start := time.Now()
				if err := call(client, "POST", base+"/sessions/"+info.ID+"/flush", nil, nil); err != nil {
					return err
				}
				record("flush", start)
				mu.Lock()
				flushes++
				mu.Unlock()
				return nil
			}

			// readCells issues one range read and tallies whether the session
			// still had recalculation pending when it answered.
			readCells := func(rangeA1 string) error {
				start := time.Now()
				var cr server.CellsResult
				if err := call(client, "GET", base+"/sessions/"+info.ID+"/cells?range="+rangeA1, nil, &cr); err != nil {
					return err
				}
				record("cells", start)
				mu.Lock()
				reads++
				if cr.Pending > 0 {
					pendingReads++
				}
				mu.Unlock()
				return nil
			}

			// mirrorRead issues the same range read against the standby and
			// samples the replication lag it observed. call() hides response
			// headers, so this is a raw request.
			mirrorRead := func(rangeA1 string) error {
				start := time.Now()
				resp, err := client.Get(standbyBase + "/sessions/" + info.ID + "/cells?range=" + rangeA1)
				if err != nil {
					return err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					// The standby has not bootstrapped this session yet —
					// expected early in the run, counted rather than fatal.
					mu.Lock()
					sbyNotFound++
					mu.Unlock()
					return nil
				}
				if resp.StatusCode >= 300 {
					return fmt.Errorf("status %d", resp.StatusCode)
				}
				record("standby_cells", start)
				lagRev, _ := strconv.ParseFloat(resp.Header.Get("X-Replication-Lag-Rev"), 64)
				lagMs, _ := strconv.ParseFloat(resp.Header.Get("X-Replication-Lag-Ms"), 64)
				mu.Lock()
				sbyLagRevs = append(sbyLagRevs, lagRev)
				sbyLagMs = append(sbyLagMs, lagMs)
				mu.Unlock()
				return nil
			}

			readsDue, flushDue, mirrorDue := 0.0, 0.0, 0.0
			for b := 0; b*cfg.Batch < len(stream); b++ {
				lo := b * cfg.Batch
				hi := min(lo+cfg.Batch, len(stream))
				eb := server.EditBatch{}
				for _, e := range stream[lo:hi] {
					op := server.EditOp{Cell: ref.FormatA1(e.At)}
					switch e.Kind {
					case workload.EditValue:
						v := e.Value
						op.Value = &v
					case workload.EditFormula:
						f := e.Formula
						op.Formula = &f
					case workload.EditClear:
						op.Clear = true
					}
					eb.Edits = append(eb.Edits, op)
				}
				start := time.Now()
				var res server.EditResult
				if err := call(client, "POST", base+"/sessions/"+info.ID+"/edits", eb, &res); err != nil {
					errc <- fmt.Errorf("session %d batch %d: %w", i, b, err)
					return
				}
				record("edits", start)
				mu.Lock()
				editsApplied += res.Applied
				dirtyTotal += res.DirtyCells
				batches++
				mu.Unlock()

				// Read-heavy mixes: non-blocking range reads right behind the
				// edits, while background recalculation may still be
				// draining (the report counts how many observed that).
				for readsDue += cfg.ReadRatio; readsDue >= 1; readsDue-- {
					row := 1 + rng.Intn(cfg.Rows)
					rangeA1 := fmt.Sprintf("A%d:H%d", row, row+9)
					if err := readCells(rangeA1); err != nil {
						errc <- fmt.Errorf("session %d read: %w", i, err)
						return
					}
				}

				// Mirror a slice of the read traffic to the warm standby,
				// sampling how far behind the primary it answers.
				if standbyBase != "" {
					for mirrorDue += cfg.StandbyReadRatio; mirrorDue >= 1; mirrorDue-- {
						row := 1 + rng.Intn(cfg.Rows)
						if err := mirrorRead(fmt.Sprintf("A%d:H%d", row, row+9)); err != nil {
							errc <- fmt.Errorf("session %d standby read: %w", i, err)
							return
						}
					}
				}

				// Recalc-heavy mixes: read-your-writes barriers whose
				// latency is the pending drain, reported as latency_ms.flush.
				for flushDue += cfg.FlushRatio; flushDue >= 1; flushDue-- {
					if err := flush(); err != nil {
						errc <- fmt.Errorf("session %d flush: %w", i, err)
						return
					}
				}

				// Interleave a dependents query — the TACO headline op.
				q := queries[b%len(queries)]
				start = time.Now()
				if err := call(client, "GET", base+"/sessions/"+info.ID+"/dependents?of="+q.String(), nil, nil); err != nil {
					errc <- fmt.Errorf("session %d query: %w", i, err)
					return
				}
				record("dependents", start)
			}

			// Every session ends with one barrier plus a range read, so the
			// flush percentiles are populated even at -flush-ratio 0.
			if err := flush(); err != nil {
				errc <- fmt.Errorf("session %d flush: %w", i, err)
				return
			}
			if err := readCells("A1:H10"); err != nil {
				errc <- fmt.Errorf("session %d read: %w", i, err)
				return
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}
	elapsed := time.Since(begin)
	mainRequests := len(samples) // probe samples below must not inflate req/s
	mainEdits := editsApplied    // churn edits below must not inflate edits/s

	// Eviction-churn rounds: one value edit per session, round-robin. With
	// -max-resident below -sessions every touch faults a cold session in and
	// evicts another whose journal tail since its snapshot is a single value
	// edit — the shape a durable store evicts without writing at all. Serial
	// on purpose: a round-robin over more sessions than the cap makes most
	// touches misses, which maximizes churn.
	if cfg.ChurnRounds > 0 {
		for r := 0; r < cfg.ChurnRounds; r++ {
			for i, id := range ids {
				v := float64(r*len(ids) + i)
				eb := server.EditBatch{Edits: []server.EditOp{{Cell: "A1", Value: &v}}}
				start := time.Now()
				var res server.EditResult
				if err := call(client, "POST", base+"/sessions/"+id+"/edits", eb, &res); err != nil {
					return nil, fmt.Errorf("churn round %d session %d: %w", r, i, err)
				}
				record("churn_edits", start)
				editsApplied += res.Applied
			}
		}
	}

	// Fork storm: repeated copy-on-write forks of the first load session.
	// Children are deleted immediately — the probe measures fork latency and
	// the refcounted release of the shared frozen base, not store growth.
	if cfg.ForkStorm > 0 {
		parent := ids[0]
		for n := 0; n < cfg.ForkStorm; n++ {
			start := time.Now()
			var child server.SessionInfo
			if err := call(client, "POST", base+"/sessions/"+parent+"/fork",
				server.ForkRequest{Name: fmt.Sprintf("storm%d", n)}, &child); err != nil {
				return nil, fmt.Errorf("fork %d: %w", n, err)
			}
			record("fork", start)
			if err := call(client, "DELETE", base+"/sessions/"+child.ID, nil, nil); err != nil {
				return nil, fmt.Errorf("fork %d delete: %w", n, err)
			}
		}
	}

	// The mixed read + giant-drain probe: dedicated wide-fanout sessions,
	// dirtied wholesale and read while the background drain runs.
	var probe drainResult
	if cfg.DrainProbes > 0 {
		var err error
		probe, err = runDrainProbe(client, base, cfg, record)
		if err != nil {
			return nil, err
		}
	}

	var st server.StoreStats
	if err := call(client, "GET", base+"/stats", nil, &st); err != nil {
		return nil, err
	}

	byKind := map[string][]float64{}
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	lat := make(map[string]stats.LatencySummary, len(byKind))
	for k, v := range byKind {
		lat[k] = stats.Summarize(v)
	}
	rep := &report{
		Bench:                "server",
		Config:               cfg,
		ElapsedMs:            float64(elapsed.Microseconds()) / 1000,
		Requests:             mainRequests,
		EditsApplied:         mainEdits,
		RequestsPerS:         float64(mainRequests) / elapsed.Seconds(),
		EditsPerS:            float64(mainEdits) / elapsed.Seconds(),
		Reads:                reads,
		PendingReads:         pendingReads,
		Flushes:              flushes,
		Latency:              lat,
		Store:                st,
		ReadsDuringDrain:     probe.reads,
		ReadP50DuringDrainMs: probe.p50,
		DrainCellsPerSec:     probe.cellsPerSec,
	}
	if batches > 0 {
		rep.DirtyPerBatch = float64(dirtyTotal) / float64(batches)
	}
	if standbyBase != "" {
		sr := &standbyReport{URL: standbyBase, MirroredReads: len(sbyLagRevs), NotFound: sbyNotFound}
		sr.ReadLatency = lat["standby_cells"]
		if len(sbyLagRevs) > 0 {
			// Summarize names its fields in ms; for the rev series only the
			// percentile arithmetic is borrowed.
			rev, ms := stats.Summarize(sbyLagRevs), stats.Summarize(sbyLagMs)
			sr.LagRevsP50, sr.LagRevsP99, sr.LagRevsMax = rev.P50Ms, rev.P99Ms, rev.MaxMs
			sr.LagMsP50, sr.LagMsP99, sr.LagMsMax = ms.P50Ms, ms.P99Ms, ms.MaxMs
		}
		rep.Standby = sr
	}
	if cfg.ForkStorm > 0 {
		fs := lat["fork"]
		rep.Forks = cfg.ForkStorm
		rep.ForkP50Ms, rep.ForkP99Ms = fs.P50Ms, fs.P99Ms
	}
	if metricsBefore != nil {
		after, err := scrapeMetrics(client, metricsURL)
		if err != nil {
			return nil, fmt.Errorf("metrics scrape: %w", err)
		}
		rep.ServerMetrics = metricsDelta(metricsBefore, after)
		// Write amplification over every edit the server journaled, churn
		// included — the spill traffic in the numerator covers the whole run.
		if editsApplied > 0 {
			rep.SpillBytesPerEdit = rep.ServerMetrics.SpillBytes / float64(editsApplied)
		}
	}
	return rep, nil
}

// drainResult is the drain probe's measurement.
type drainResult struct {
	reads       int     // reads that observed a live drain
	p50         float64 // their p50 latency, ms
	cellsPerSec float64 // cross-session drain throughput
}

// runDrainProbe measures the serving layer's two drain-path properties that
// the main workload's small dirty sets cannot: how long a reader is blocked
// when it lands mid-way through a giant wavefront drain (the per-level lock
// release contract, measured end to end as read latency), and how fast the
// store's drain workers clear several sessions' giant dirty sets at once
// (cross-session drain throughput). It builds DrainSessions wide-fanout
// sessions — DrainFanout formulas, each a SUMSQ over a DrainSpan-cell
// column; SUMSQ streams per cell rather than taking the batched SUM fold,
// so the drain exercises evaluator throughput — then, per probe round,
// dirties every session with one edit and polls point reads round-robin
// across them until every drain settles. Reads answered with recalculation
// still pending are the "reader issued mid-drain" samples.
func runDrainProbe(client *http.Client, base string, cfg config, record func(string, time.Time)) (drainResult, error) {
	var out drainResult
	ids := make([]string, cfg.DrainSessions)
	for i := range ids {
		var info server.SessionInfo
		if err := call(client, "POST", base+"/sessions",
			server.CreateRequest{Name: fmt.Sprintf("drainprobe%d", i)}, &info); err != nil {
			return out, err
		}
		ids[i] = info.ID
		eb := server.EditBatch{}
		for r := 1; r <= cfg.DrainSpan; r++ {
			v := float64(r) / 3
			eb.Edits = append(eb.Edits, server.EditOp{Cell: ref.FormatA1(ref.Ref{Col: 1, Row: r}), Value: &v})
		}
		src := fmt.Sprintf("SUMSQ(A$1:A$%d)*2", cfg.DrainSpan)
		for r := 1; r <= cfg.DrainFanout; r++ {
			f := src
			eb.Edits = append(eb.Edits, server.EditOp{Cell: ref.FormatA1(ref.Ref{Col: 2, Row: r}), Formula: &f})
		}
		if err := call(client, "POST", base+"/sessions/"+ids[i]+"/edits?wait=1", eb, nil); err != nil {
			return out, fmt.Errorf("drain probe setup: %w", err)
		}
	}

	var lats []float64
	var drainTime time.Duration
	for p := 0; p < cfg.DrainProbes; p++ {
		t0 := time.Now()
		for _, id := range ids {
			v := float64(p + 7)
			eb := server.EditBatch{Edits: []server.EditOp{{Cell: "A1", Value: &v}}}
			if err := call(client, "POST", base+"/sessions/"+id+"/edits", eb, nil); err != nil {
				return out, err
			}
		}
		pending := make(map[string]bool, len(ids))
		for _, id := range ids {
			pending[id] = true
		}
		for polls := 0; len(pending) > 0; polls++ {
			if polls > 100000 {
				return out, fmt.Errorf("drain probe: %d sessions never settled", len(pending))
			}
			for _, id := range ids {
				if !pending[id] {
					continue
				}
				start := time.Now()
				var cr server.CellsResult
				if err := call(client, "GET", base+"/sessions/"+id+"/cells?at=B42", nil, &cr); err != nil {
					return out, err
				}
				if cr.Pending == 0 {
					delete(pending, id)
					continue
				}
				record("read_during_drain", start)
				lats = append(lats, float64(time.Since(start).Microseconds())/1000)
			}
		}
		drainTime += time.Since(t0)
	}
	out.reads = len(lats)
	if len(lats) > 0 {
		out.p50 = stats.Summarize(lats).P50Ms
	}
	if sec := drainTime.Seconds(); sec > 0 {
		out.cellsPerSec = float64(cfg.DrainProbes*cfg.DrainSessions*cfg.DrainFanout) / sec
	}
	for _, id := range ids {
		if err := call(client, "DELETE", base+"/sessions/"+id, nil, nil); err != nil {
			return out, err
		}
	}
	return out, nil
}

// runReplay is the crash-recovery verifier (-replay): it lists the target
// server's sessions, matches the loadN sessions this workload's flags would
// have created, regenerates each one's scenario and edit stream from the
// same seeds, applies exactly the batches the server acknowledged (its rev)
// to a local serial engine, and requires every cell the workload could have
// touched to match bit-for-bit. Run it against a server that was SIGKILLed
// mid-stream and restarted on the same spill dir: it proves each journaled
// batch replayed and reconverged to the never-crashed result.
func runReplay(cfg config) error {
	client := &http.Client{}
	base := cfg.Addr
	var sessions []server.SessionInfo
	if err := call(client, "GET", base+"/sessions", nil, &sessions); err != nil {
		return err
	}
	scenarios := []string{cfg.Scenario}
	if cfg.Scenario == "mixed" {
		scenarios = workload.ScenarioNames
	}
	verified, cellsChecked := 0, 0
	for _, si := range sessions {
		var idx int
		if n, err := fmt.Sscanf(si.Name, "load%d", &idx); n != 1 || err != nil {
			continue
		}
		scen := scenarios[idx%len(scenarios)]
		seed := cfg.Seed + int64(idx)
		sheet, err := workload.BuildScenario(scen, cfg.Rows, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		eng, err := engine.LoadBulk(sheet)
		if err != nil {
			return err
		}
		stream := workload.EditStreamMix(sheet, cfg.Edits, rand.New(rand.NewSource(seed+10000)), cfg.FormulaRatio)
		batches := (len(stream) + cfg.Batch - 1) / cfg.Batch
		if int(si.Rev) > batches {
			return fmt.Errorf("session %s: server rev %d exceeds the %d batches these flags generate — rerun -replay with the original workload's flags",
				si.Name, si.Rev, batches)
		}
		// The server acknowledged exactly si.Rev batches; apply the same
		// prefix locally. Every op is an absolute assignment, mirroring the
		// HTTP handler's applyBatch.
		touched := map[ref.Ref]struct{}{{Col: 1, Row: 1}: {}}
		for at := range sheet.Cells {
			touched[at] = struct{}{}
		}
		for b := 0; b < int(si.Rev); b++ {
			lo := b * cfg.Batch
			hi := min(lo+cfg.Batch, len(stream))
			for _, e := range stream[lo:hi] {
				touched[e.At] = struct{}{}
				switch e.Kind {
				case workload.EditValue:
					eng.SetValue(e.At, formula.Num(e.Value))
				case workload.EditFormula:
					if _, err := eng.SetFormula(e.At, e.Formula); err != nil {
						return fmt.Errorf("session %s batch %d: %w", si.Name, b, err)
					}
				case workload.EditClear:
					eng.ClearCell(e.At)
				}
			}
		}
		eng.RecalculateAll()
		// Barrier first so the server's replayed cells have drained, then
		// compare cell by cell.
		if err := call(client, "POST", base+"/sessions/"+si.ID+"/flush", nil, nil); err != nil {
			return fmt.Errorf("session %s flush: %w", si.Name, err)
		}
		for at := range touched {
			var cr server.CellsResult
			if err := call(client, "GET", base+"/sessions/"+si.ID+"/cells?at="+ref.FormatA1(at), nil, &cr); err != nil {
				return fmt.Errorf("session %s read %s: %w", si.Name, ref.FormatA1(at), err)
			}
			var got server.CellOut
			if len(cr.Cells) > 0 {
				got = cr.Cells[0]
			}
			if err := compareCell(at, got, eng.Value(at)); err != nil {
				return fmt.Errorf("session %s (%s) at rev %d: %w", si.Name, si.ID, si.Rev, err)
			}
			cellsChecked++
		}
		verified++
	}
	if verified == 0 {
		return fmt.Errorf("no load* sessions found on %s — nothing to verify (wrong server, or recovery lost the registry)", base)
	}
	fmt.Printf("tacoload: replay verified %d sessions, %d cells identical to a never-crashed run\n", verified, cellsChecked)
	return nil
}

// compareCell requires the server's answer for one cell to equal the local
// replay's value exactly (numbers compared by bit pattern; JSON round-trips
// float64 losslessly).
func compareCell(at ref.Ref, got server.CellOut, want formula.Value) error {
	ok := false
	switch want.Kind {
	case formula.KindEmpty:
		ok = got.Kind == "" || got.Kind == "empty"
	case formula.KindNumber:
		ok = got.Kind == "number" && math.Float64bits(got.Num) == math.Float64bits(want.Num)
	case formula.KindString:
		ok = got.Kind == "string" && got.Str == want.Str
	case formula.KindBool:
		ok = got.Kind == "bool" && got.Bool == want.Bool
	case formula.KindError:
		ok = got.Kind == "error" && got.Error == want.Err.String()
	}
	if !ok {
		return fmt.Errorf("cell %s diverged: server {kind=%s num=%v str=%q bool=%v err=%q}, replay %v",
			ref.FormatA1(at), got.Kind, got.Num, got.Str, got.Bool, got.Error, want)
	}
	return nil
}

// call performs one JSON request; non-2xx responses become errors carrying
// the server's error body.
func call(client *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func printReport(r *report) {
	fmt.Printf("tacoload: %d sessions x %d edits (batch %d, scenario %s)\n",
		r.Config.Sessions, r.Config.Edits, r.Config.Batch, r.Config.Scenario)
	fmt.Printf("elapsed %.1fms  |  %d requests (%.0f req/s)  |  %d edits (%.0f edits/s)  |  mean dirty/batch %.1f\n\n",
		r.ElapsedMs, r.Requests, r.RequestsPerS, r.EditsApplied, r.EditsPerS, r.DirtyPerBatch)
	tbl := stats.NewTable("op", "count", "mean", "p50", "p90", "p99", "max")
	for _, k := range []string{"create", "edits", "churn_edits", "fork", "dependents", "cells", "standby_cells", "flush", "read_during_drain"} {
		s, ok := r.Latency[k]
		if !ok {
			continue
		}
		tbl.AddRow(k, s.Count, fmtMs(s.MeanMs), fmtMs(s.P50Ms), fmtMs(s.P90Ms), fmtMs(s.P99Ms), fmtMs(s.MaxMs))
	}
	fmt.Print(tbl.String())
	fmt.Printf("\nreads: %d (%d answered with recalculation pending)  |  flush barriers: %d\n", r.Reads, r.PendingReads, r.Flushes)
	if r.Config.DrainProbes > 0 {
		fmt.Printf("drain probe: %d mid-drain reads (p50 %.3fms)  |  %.0f cells/s across %d sessions\n",
			r.ReadsDuringDrain, r.ReadP50DuringDrainMs, r.DrainCellsPerSec, r.Config.DrainSessions)
	}
	if sb := r.Standby; sb != nil {
		fmt.Printf("standby: %d mirrored reads (%d before bootstrap)  |  lag p50 %.0f revs / %.0fms  p99 %.0f revs / %.0fms  max %.0f revs / %.0fms\n",
			sb.MirroredReads, sb.NotFound, sb.LagRevsP50, sb.LagMsP50,
			sb.LagRevsP99, sb.LagMsP99, sb.LagRevsMax, sb.LagMsMax)
	}
	fmt.Printf("store: %d sessions (%d resident, %d spilled), %d evictions (%d snapshot writes skipped), %d restores, %d background recalcs\n",
		r.Store.Sessions, r.Store.Resident, r.Store.Spilled, r.Store.Evictions, r.Store.SnapSkips, r.Store.Restores, r.Store.Recalcs)
	if sm := r.ServerMetrics; sm != nil {
		fmt.Printf("server metrics: drain hold p50 %.3fms p99 %.3fms (%d holds)  |  %.0f cells evaluated  |  parse cache hit rate %.1f%%\n",
			sm.DrainHoldP50Ms, sm.DrainHoldP99Ms, sm.DrainHoldSamples, sm.CellsEvaluated, sm.ParseCacheHitRate*100)
		fmt.Printf("                %.0f evictions (%.0f snapshot skips, %.0f spill bytes), %.0f restores  |  %.0f schedule builds, %.0f resumes\n",
			sm.Evictions, sm.SnapshotSkips, sm.SpillBytes, sm.Restores, sm.ScheduleBuilds, sm.ScheduleResumes)
		if sm.DeltaWrites > 0 || r.Config.Durable {
			fmt.Printf("                %.0f write-nothing tail evictions (%.0f forced to a full base by a tail cap)  |  %.2f spill bytes/edit\n",
				sm.DeltaWrites, sm.DeltaCompactions, r.SpillBytesPerEdit)
		}
	}
	if r.Forks > 0 {
		fmt.Printf("fork storm: %d forks  |  p50 %.3fms  p99 %.3fms\n", r.Forks, r.ForkP50Ms, r.ForkP99Ms)
	}
}

func fmtMs(v float64) string { return fmt.Sprintf("%.3fms", v) }
