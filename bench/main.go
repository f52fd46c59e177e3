// Command bench is the one benchmark of the whole stack: five named
// workloads, each generated from a seed, driven in-process by closed-loop
// clients, timed in five epochs and checked against an oracle. See README.md
// for what every workload and metric means.
//
//	bash bench/run.sh -seed 1                       every workload, full report
//	bash bench/run.sh -seed 1 -trace 1              the traced run: per-layer numbers
//	bash bench/run.sh -workload engine_recalc -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -repeat 10                    ten sets, spread per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeconds is the length of the timed phase, the run_seconds of
// BENCHMARK.json.
const defaultSeconds = 10

func main() {
	seed := flag.Int64("seed", 1, "seed of every generated input")
	name := flag.String("workload", "", "run one workload and end with the one-line result; default runs all five")
	trace := flag.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the timed phase; 0 runs one pass over the op lists")
	out := flag.String("out", defaultOut(), "directory for reports, traces and scratch files")
	repeat := flag.Int("repeat", 0, "run this many sets in fresh processes, seeds counting up from -seed, and report the spread")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *repeat > 0 {
		os.Exit(runRepeat(*repeat, *seed, *seconds, *out))
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	rep := report{Host: hostFingerprint()}
	ok := true
	for _, n := range names {
		res, err := runWorkload(n, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res.print(os.Stdout)
		rep.Workloads = append(rep.Workloads, res)
		ok = ok && res.Failed == 0
	}
	rep.Host.finish()
	rep.Host.print(os.Stdout)
	if err := rep.write(filepath.Join(*out, "report.json")); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *name != "" {
		line, err := rep.Workloads[0].contractLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(line)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: outputs differ from the oracle")
		os.Exit(1)
	}
}

// defaultOut is bench/out from the root of the repository and out from
// inside bench/.
func defaultOut() string {
	if _, err := os.Stat("bench"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// report is what report.json holds.
type report struct {
	Host      host      `json:"host"`
	Workloads []*result `json:"workloads"`
}

func (r report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print lists every metric the run produced, by name, with its unit, its
// sample count, the relative spread between epochs where it has one, and for
// a timing metric (reported at yardRef speed) the value as measured.
// End-to-end metrics come first; "null" marks one the workload has no
// operation for.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v ops_attempted=%d ops_failed=%d op_hash=%s generate_s=%.3f wall_s=%.3f\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed, res.OpHash, res.GenS, res.WallS)
	line := func(d metricDef) {
		v, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-42s null\n", d.Name)
			return
		}
		fmt.Fprintf(w, "  %-42s %14.6g %-6s", d.Name, v, d.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			fmt.Fprintf(w, " n=%d", n)
		}
		if s, ok := res.Spread[d.Name]; ok {
			fmt.Fprintf(w, " %s.spread=%.3f", d.Name, s)
		}
		if raw, ok := res.Raw[d.Name]; ok {
			fmt.Fprintf(w, " raw=%.6g", raw)
		}
		fmt.Fprintln(w)
	}
	for _, d := range endToEnd {
		line(d)
	}
	for i, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; ok || i < len(partial) {
			line(d)
		}
	}
}

// contractLine is the last line of a single-workload run: one JSON object
// with the end-to-end metrics of an untraced run or the per-layer metrics of
// a traced one. A per-layer metric the workload does not have reads 0 there.
func (res *result) contractLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !res.Traced && (!ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			return "", fmt.Errorf("%s: end-to-end metric %s has no value", res.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(b), err
}

// metricNames lists every name a run may emit, sorted.
func metricNames() []string {
	var names []string
	for _, d := range endToEnd {
		names = append(names, d.Name)
	}
	for _, d := range perLayer {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// knownMetric is the set of names a run may emit: a workload that reports
// any other name has a typo.
var knownMetric = func() map[string]bool {
	known := map[string]bool{}
	for _, n := range metricNames() {
		known[n] = true
	}
	return known
}()
