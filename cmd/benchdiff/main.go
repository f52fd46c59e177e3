// Command benchdiff compares a current benchmark report against a
// checked-in baseline and exits non-zero on regression — the comparator
// behind CI's perf-regression job.
//
// Usage:
//
//	benchdiff [-tol 0.25] [-min-speedup 2.0] baseline.json current.json
//
// The report kind is read from the "bench" field:
//
//   - "server" (BENCH_server.json / tacoload -json): edits_per_sec must not
//     drop more than tol below the baseline; read_p50_during_drain_ms (the
//     drain probe's mid-drain read latency) must not rise more than tol
//     above it (plus a small absolute grace for sub-millisecond noise), and
//     drain_cells_per_sec must not drop more than tol below it. Two
//     structural-sharing series gate the same way: spill_bytes_per_edit
//     (eviction write amplification — evictions the journal already covers
//     write nothing) must not rise
//     more than tol above the baseline, and fork_p50_ms (copy-on-write fork
//     latency) must not rise more than tol plus the latency grace. Every
//     optional series is gated only when the baseline carries it, so old
//     baselines stay comparable.
//   - "eval" (BENCH_eval.json / tacoeval -json): per shape, ns_op_bulk must
//     not rise more than tol above the baseline, and the bulk-vs-percell
//     speedup — host-independent, so it also holds on CI runners whose
//     absolute numbers differ from the baseline host's — must stay at or
//     above min-speedup. Pattern shapes ("patterns") are gated on
//     ns_op_vectorized with the same ceiling, plus a per-shape floor on the
//     ast-vs-vectorized ratio that the baseline itself declares
//     (min_speedup — policy travels with the checked-in report). The floor
//     is enforced on any host, including single-CPU runners: the
//     vectorized drain is algorithmically cheaper than the per-cell AST
//     walk (batched sweeps), so the ratio must hold
//     regardless of core count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type serverReport struct {
	Bench                string  `json:"bench"`
	EditsPerSec          float64 `json:"edits_per_sec"`
	ReadP50DuringDrainMs float64 `json:"read_p50_during_drain_ms"`
	DrainCellsPerSec     float64 `json:"drain_cells_per_sec"`
	SpillBytesPerEdit    float64 `json:"spill_bytes_per_edit"`
	ForkP50Ms            float64 `json:"fork_p50_ms"`
}

// latencyGraceMs is absolute headroom added to latency ceilings: a p50 of a
// fraction of a millisecond would otherwise turn scheduler jitter on a
// shared runner into a fractional "regression".
const latencyGraceMs = 0.25

type evalResult struct {
	NsOpBulk    float64 `json:"ns_op_bulk"`
	NsOpPercell float64 `json:"ns_op_percell"`
	Speedup     float64 `json:"speedup"`
}

type patternResult struct {
	NsOpAst        float64 `json:"ns_op_ast"`
	NsOpVectorized float64 `json:"ns_op_vectorized"`
	Speedup        float64 `json:"speedup"`
	MinSpeedup     float64 `json:"min_speedup"`
}

type evalReport struct {
	Bench    string                   `json:"bench"`
	Results  map[string]evalResult    `json:"results"`
	Patterns map[string]patternResult `json:"patterns"`
}

func readJSON(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func main() {
	tol := flag.Float64("tol", 0.25, "allowed fractional regression vs baseline")
	minSpeedup := flag.Float64("min-speedup", 2.0, "eval reports: minimum bulk-vs-percell speedup")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol 0.25] [-min-speedup 2.0] baseline.json current.json")
		os.Exit(2)
	}
	basePath, curPath := flag.Arg(0), flag.Arg(1)

	var kind struct {
		Bench string `json:"bench"`
	}
	if err := readJSON(basePath, &kind); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	var failures []string
	switch kind.Bench {
	case "server":
		var base, cur serverReport
		if err := readJSON(basePath, &base); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if err := readJSON(curPath, &cur); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if base.EditsPerSec <= 0 || cur.EditsPerSec <= 0 {
			fmt.Fprintln(os.Stderr, "benchdiff: server reports need positive edits_per_sec")
			os.Exit(2)
		}
		floor := base.EditsPerSec * (1 - *tol)
		fmt.Printf("edits/s: baseline %.0f, current %.0f (floor %.0f)\n",
			base.EditsPerSec, cur.EditsPerSec, floor)
		if cur.EditsPerSec < floor {
			failures = append(failures, fmt.Sprintf(
				"edits_per_sec regressed: %.0f -> %.0f (>%.0f%% drop)",
				base.EditsPerSec, cur.EditsPerSec, *tol*100))
		}
		if base.ReadP50DuringDrainMs > 0 {
			ceiling := base.ReadP50DuringDrainMs*(1+*tol) + latencyGraceMs
			fmt.Printf("read p50 during drain: baseline %.3fms, current %.3fms (ceiling %.3fms)\n",
				base.ReadP50DuringDrainMs, cur.ReadP50DuringDrainMs, ceiling)
			if cur.ReadP50DuringDrainMs > ceiling {
				failures = append(failures, fmt.Sprintf(
					"read_p50_during_drain_ms regressed: %.3f -> %.3f (ceiling %.3f)",
					base.ReadP50DuringDrainMs, cur.ReadP50DuringDrainMs, ceiling))
			}
		}
		if base.DrainCellsPerSec > 0 {
			floor := base.DrainCellsPerSec * (1 - *tol)
			fmt.Printf("drain throughput: baseline %.0f cells/s, current %.0f (floor %.0f)\n",
				base.DrainCellsPerSec, cur.DrainCellsPerSec, floor)
			if cur.DrainCellsPerSec < floor {
				failures = append(failures, fmt.Sprintf(
					"drain_cells_per_sec regressed: %.0f -> %.0f (>%.0f%% drop)",
					base.DrainCellsPerSec, cur.DrainCellsPerSec, *tol*100))
			}
		}
		// Spill write amplification: bytes the store wrote per journaled edit
		// (evictions the journal already covers write nothing, which keeps this
		// small under eviction churn).
		// Gated only when the baseline carries the series, so older baselines
		// stay comparable.
		if base.SpillBytesPerEdit > 0 {
			ceiling := base.SpillBytesPerEdit * (1 + *tol)
			fmt.Printf("spill write amp: baseline %.1f B/edit, current %.1f (ceiling %.1f)\n",
				base.SpillBytesPerEdit, cur.SpillBytesPerEdit, ceiling)
			if cur.SpillBytesPerEdit > ceiling {
				failures = append(failures, fmt.Sprintf(
					"spill_bytes_per_edit regressed: %.1f -> %.1f (>%.0f%% rise)",
					base.SpillBytesPerEdit, cur.SpillBytesPerEdit, *tol*100))
			}
		}
		// Copy-on-write fork latency: must stay flat regardless of how large
		// the parent sheet is — that shape is the point of forks sharing the
		// parent's base and copying only its journal tail. Same grace as the other
		// latency gate: fork p50s are fractions of a millisecond.
		if base.ForkP50Ms > 0 {
			ceiling := base.ForkP50Ms*(1+*tol) + latencyGraceMs
			fmt.Printf("fork p50: baseline %.3fms, current %.3fms (ceiling %.3fms)\n",
				base.ForkP50Ms, cur.ForkP50Ms, ceiling)
			if cur.ForkP50Ms > ceiling {
				failures = append(failures, fmt.Sprintf(
					"fork_p50_ms regressed: %.3f -> %.3f (ceiling %.3f)",
					base.ForkP50Ms, cur.ForkP50Ms, ceiling))
			}
		}
	case "eval":
		var base, cur evalReport
		if err := readJSON(basePath, &base); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if err := readJSON(curPath, &cur); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		for name, b := range base.Results {
			c, ok := cur.Results[name]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: missing from current report", name))
				continue
			}
			ceiling := b.NsOpBulk * (1 + *tol)
			fmt.Printf("%-18s bulk %.0f ns/op (baseline %.0f, ceiling %.0f), speedup %.2fx (min %.2fx)\n",
				name, c.NsOpBulk, b.NsOpBulk, ceiling, c.Speedup, *minSpeedup)
			if c.NsOpBulk > ceiling {
				failures = append(failures, fmt.Sprintf(
					"%s: ns_op_bulk regressed: %.0f -> %.0f (>%.0f%% rise)",
					name, b.NsOpBulk, c.NsOpBulk, *tol*100))
			}
			if c.Speedup < *minSpeedup {
				failures = append(failures, fmt.Sprintf(
					"%s: bulk speedup %.2fx below the %.2fx floor", name, c.Speedup, *minSpeedup))
			}
		}
		for name, b := range base.Patterns {
			c, ok := cur.Patterns[name]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: missing from current report", name))
				continue
			}
			ceiling := b.NsOpVectorized * (1 + *tol)
			fmt.Printf("%-18s vectorized %.0f ns/op (baseline %.0f, ceiling %.0f), speedup %.2fx",
				name, c.NsOpVectorized, b.NsOpVectorized, ceiling, c.Speedup)
			if c.NsOpVectorized > ceiling {
				failures = append(failures, fmt.Sprintf(
					"%s: ns_op_vectorized regressed: %.0f -> %.0f (>%.0f%% rise)",
					name, b.NsOpVectorized, c.NsOpVectorized, *tol*100))
			}
			if b.MinSpeedup <= 0 {
				fmt.Println(" (no floor)")
				continue
			}
			// No CPU-count skip: the ast-vs-vectorized ratio compares two
			// drains of the same cells on the same host, and the vectorized
			// side's advantage is algorithmic, so the floor binds everywhere.
			fmt.Printf(" (floor %.2fx)\n", b.MinSpeedup)
			if c.Speedup < b.MinSpeedup {
				failures = append(failures, fmt.Sprintf(
					"%s: vectorized speedup %.2fx below the baseline's %.2fx floor",
					name, c.Speedup, b.MinSpeedup))
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "benchdiff: unknown bench kind %q in %s\n", kind.Bench, basePath)
		os.Exit(2)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}
