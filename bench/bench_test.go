package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric lists")

// tinySizes keep one run of any workload well under a second.
var tinySizes = sizes{
	corpusScale:    0.05,
	queriesPerSh:   2,
	editsPerSheet:  4,
	ledgerRows:     600,
	sessions:       4,
	sessionRows:    24,
	maxResident:    2,
	opsPerClient:   120,
	readsPerClient: 40,
	replayAll:      true,
}

func runTiny(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	sz = tinySizes
	res, err := runWorkload(name, runOpts{seed: seed, trace: trace, out: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d checks failed", name, seed, res.Failed, res.Attempted)
	}
	return res
}

// TestDeterministicAndComplete runs every workload three times at tiny
// sizes over the fixed op lists: the same seed must give the same op stream
// and the same exact counts whether traced or not, another seed another
// stream; and between them the runs must produce every metric name the
// benchmark declares.
func TestDeterministicAndComplete(t *testing.T) {
	emitted := map[string]bool{}
	for _, name := range workloadNames {
		a := runTiny(t, name, 1, false)
		b := runTiny(t, name, 1, true)
		c := runTiny(t, name, 2, false)
		if a.OpHash != b.OpHash {
			t.Errorf("%s: same seed, op hashes %s and %s", name, a.OpHash, b.OpHash)
		}
		if a.OpHash == c.OpHash {
			t.Errorf("%s: seeds 1 and 2 share op hash %s", name, a.OpHash)
		}
		if a.Attempted != b.Attempted {
			t.Errorf("%s: same seed, ops_attempted %d and %d", name, a.Attempted, b.Attempted)
		}
		for _, m := range []string{"core.edges", "core.deps", "compressed_edge_fraction"} {
			if a.Metrics[m] != b.Metrics[m] || a.Metrics[m] == 0 {
				t.Errorf("%s: same seed, %s = %v and %v", name, m, a.Metrics[m], b.Metrics[m])
			}
		}
		for _, res := range []*result{a, b} {
			line, err := res.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if res.Traced {
				want = perLayer
			}
			if !got.Correct || got.Attempted < 1 || len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line %s", name, res.Traced, line)
			}
			for _, d := range want {
				if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: result line lacks %s in %s", name, res.Traced, d.Name, d.Unit)
				}
			}
			for m := range res.Metrics {
				emitted[m] = true
			}
		}
	}
	// A p99 needs 1000 samples in every epoch, which tiny runs do not have.
	emitted["edit_p99_ms"], emitted["read_p99_ms"] = true, true
	for _, n := range metricNames() {
		if !emitted[n] {
			t.Errorf("no workload emitted %s", n)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []whyEntry  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []layerDef  `json:"per_layer"`
}

type whyEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var workloadWhy = map[string]string{
	"graph_corpus":        "the paper's own quantities on the Enron+Github corpora; only core and rtree work, so a graph change has nowhere to hide and an engine or server change predicts no move",
	"engine_recalc":       "one in-process engine on the ledger sheet, no HTTP, no disk: schedule build and reuse, run planning, VM and cell store do the work and the server none",
	"serve_interactive":   "64 small resident sessions over HTTP, ~10 cells evaluated per edit: per-request cost dominates, so it isolates the serving tax; evaluator changes predict no move",
	"serve_durable_churn": "same sessions, durable, delta snapshots, residency cap a quarter of the sessions, Zipf choice: journal, spill, restore and registry do most of the work",
	"serve_big_drain":     "the engine_recalc ledger behind the store's bounded-hold drain workers while a reader races the drain: the serving gap, and what a faster drain costs readers",
}

// TestBenchmarkJSON holds BENCHMARK.json to the driver's own lists, both
// ways: every declared name is one the driver emits and the reverse.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, n := range workloadNames {
		want.Workloads = append(want.Workloads, whyEntry{n, workloadWhy[n]})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	const path = "../BENCHMARK.json"
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the driver's lists; run go test -run TestBenchmarkJSON -update")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		seen[n] = true
	}
	maxBound, setupBound := 0.0, 0.0
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s must carry the largest bound, has %v of %v", setupBound, maxBound)
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	for _, w := range want.Workloads {
		check(w.Name, "")
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(endToEnd), len(perLayer))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
