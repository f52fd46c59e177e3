package server

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"taco/internal/telemetry"
)

// scrapeMetrics fetches and parses /metrics from the test server.
func scrapeMetrics(t *testing.T, tc *testClient) (*telemetry.Scrape, string) {
	t.Helper()
	resp, err := tc.c.Get(tc.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	s, err := telemetry.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return s, string(body)
}

// metricsRuns numbers TestMetricsEndToEnd's runs in this process.
var metricsRuns atomic.Int64

// TestMetricsEndToEnd drives edits, reads, and a flush through the HTTP API
// and asserts /metrics exposes lint-clean families from every layer of the
// stack with activity recorded. Counters are process-global, so assertions
// are on deltas between two scrapes bracketing the workload.
func TestMetricsEndToEnd(t *testing.T) {
	// Background draining off: the flush barrier drains inline, so the
	// drain-hold histogram deterministically gets samples before the second
	// scrape.
	_, tc := newTestServer(t, Options{Store: StoreOptions{RecalcWorkers: -1}})

	before, _ := scrapeMetrics(t, tc)

	var info SessionInfo
	if code := tc.do("POST", "/sessions", CreateRequest{Name: "m"}, &info); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	// A formula text no earlier run in this process interned, so the parse
	// cache misses under -count=N too; emptying the process-wide table
	// instead would disturb the tests running beside this one.
	fresh := fmt.Sprintf("=A2+A1+%d", 1_000_000+metricsRuns.Add(1))
	edits := EditBatch{Edits: []EditOp{
		{Cell: "A1", Value: num(2)},
		{Cell: "A2", Formula: str("=A1*3")},
		{Cell: "A3", Formula: &fresh},
	}}
	var er EditResult
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits", edits, &er); code != http.StatusOK {
		t.Fatalf("edits = %d", code)
	}
	// A second, incremental batch: the first takes the eager bulk-build
	// path, this one dirties the dependent chain and leaves it pending
	// (background draining is off), so the flush below drains inline and
	// records drain-hold samples.
	incr := EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(5)}}}
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits", incr, &er); code != http.StatusOK {
		t.Fatalf("incremental edits = %d", code)
	}
	if er.Pending == 0 {
		t.Fatalf("incremental edit left nothing pending; test cannot exercise the drain path")
	}
	var fr FlushResult
	if code := tc.do("POST", "/sessions/"+info.ID+"/flush", nil, &fr); code != http.StatusOK {
		t.Fatalf("flush = %d", code)
	}
	var cr CellsResult
	if code := tc.do("GET", "/sessions/"+info.ID+"/cells?range=A1:A3", nil, &cr); code != http.StatusOK {
		t.Fatalf("cells = %d", code)
	}
	if code := tc.do("GET", "/sessions/absent/cells?range=A1:A1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing session = %d, want 404", code)
	}

	after, text := scrapeMetrics(t, tc)

	// The exposition must lint clean and span every instrumented layer.
	if errs := telemetry.Lint(strings.NewReader(text)); len(errs) != 0 {
		t.Errorf("/metrics fails lint: %v", errs)
	}
	layers := map[string][]string{
		"http":    {"taco_http_requests_total", "taco_http_request_duration_seconds", "taco_http_requests_in_flight"},
		"store":   {"taco_store_sessions_created_total", "taco_store_drain_hold_seconds", "taco_store_evictions_total", "taco_store_sessions", "taco_store_recalc_queue_depth"},
		"engine":  {"taco_engine_cells_evaluated_total", "taco_sched_builds_total", "taco_sched_levels_drained_total"},
		"parse":   {"taco_parse_cache_hits_total", "taco_parse_cache_misses_total", "taco_parse_cache_bytes"},
		"runtime": {"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total"},
	}
	families := 0
	for layer, fams := range layers {
		for _, fam := range fams {
			if after.Families[fam] == nil {
				t.Errorf("layer %s: family %s missing from /metrics", layer, fam)
				continue
			}
			families++
		}
	}
	if families < 12 {
		t.Errorf("only %d families verified, want >= 12", families)
	}

	delta := func(name string, labels map[string]string) float64 {
		a, _ := after.Value(name, labels)
		b, _ := before.Value(name, labels)
		return a - b
	}
	if d := delta("taco_store_sessions_created_total", nil); d < 1 {
		t.Errorf("sessions_created delta = %v, want >= 1", d)
	}
	if d := delta("taco_engine_cells_evaluated_total", nil); d < 2 {
		t.Errorf("cells_evaluated delta = %v, want >= 2 (two formulas flushed)", d)
	}
	if d := delta("taco_store_drain_hold_seconds_count", nil); d < 1 {
		t.Errorf("drain hold samples delta = %v, want >= 1", d)
	}
	if d := delta("taco_parse_cache_misses_total", nil); d < 1 {
		t.Errorf("parse cache misses delta = %v, want >= 1", d)
	}
	if d := delta("taco_http_requests_total", map[string]string{"route": "POST /sessions/{id}/edits", "code": "200"}); d < 1 {
		t.Errorf("http requests delta for edits route = %v, want >= 1", d)
	}
	if d := delta("taco_http_requests_total", map[string]string{"code": "404"}); d < 1 {
		t.Errorf("http 404 delta = %v, want >= 1", d)
	}
	if d := delta("taco_http_request_duration_seconds_count", map[string]string{"route": "POST /sessions/{id}/flush"}); d < 1 {
		t.Errorf("latency histogram delta for flush route = %v, want >= 1", d)
	}

	// Histogram reassembly from the scrape works against live data.
	if _, counts, _, count, ok := after.Histogram("taco_store_drain_hold_seconds"); !ok || count == 0 || len(counts) == 0 {
		t.Errorf("drain hold histogram unreadable from scrape: ok=%v count=%d", ok, count)
	}
}

// TestRequestIDHeader checks every response carries a request ID and a
// client-supplied one is echoed back.
func TestRequestIDHeader(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	resp, err := tc.c.Get(tc.base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}

	req, _ := http.NewRequest("GET", tc.base+"/stats", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-7")
	resp, err = tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-7" {
		t.Errorf("X-Request-ID = %q, want echoed caller-chosen-7", got)
	}
}

// TestTelemetryDocCoversRegistry holds TELEMETRY.md to the registry: the
// taco_* families registered once a server is up are exactly the families
// its tables name, a row naming two families counting both.
func TestTelemetryDocCoversRegistry(t *testing.T) {
	newTestServer(t, Options{})
	doc, err := os.ReadFile("../../TELEMETRY.md")
	if err != nil {
		t.Fatal(err)
	}
	family := regexp.MustCompile("`(taco_[a-z0-9_]+)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "|") {
			for _, m := range family.FindAllStringSubmatch(cells[1], -1) {
				documented[m[1]] = true
			}
		}
	}
	for _, name := range telemetry.Default.Names() {
		if !strings.HasPrefix(name, "taco_") {
			continue
		}
		if !documented[name] {
			t.Errorf("%s is registered but TELEMETRY.md has no row for it", name)
		}
		delete(documented, name)
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		t.Errorf("TELEMETRY.md documents %s, which no package registers", name)
	}
}
