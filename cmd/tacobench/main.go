// Command tacobench regenerates the paper's evaluation (Sec. VI) of TACO
// against the uncompressed graph, NoComp, on the synthetic corpora.
//
// Usage:
//
//	tacobench [-exp all] [-scale 1.0]
//
// Experiments: fig1, sizes (Tables II-IV), table5, fig10, fig11, fig12,
// accesses (Sec. IV-D), cem (Sec. IV-A), all; several may be given
// comma-separated. An unknown name exits with status 2. Figs. 13-16, the
// comparisons with RedisGraph, Antifreeze and Excel, are not reproduced.
//
// Absolute numbers depend on the host; the shapes — who wins and by what
// factor — are what reproduce the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"taco/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run, comma-separated: fig1|sizes|table5|fig10|fig11|fig12|accesses|cem, or all")
	scale := flag.Float64("scale", 1.0, "corpus scale factor (sheet sizes and counts)")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Out: os.Stdout}

	run := map[string]func(){
		"fig1":     func() { experiments.RunFig1(cfg) },
		"sizes":    func() { experiments.RunSizes(cfg) },
		"table5":   func() { experiments.RunTable5(cfg) },
		"fig10":    func() { experiments.RunFig10(cfg) },
		"fig11":    func() { experiments.RunFig11(cfg) },
		"fig12":    func() { experiments.RunFig12(cfg) },
		"accesses": func() { experiments.RunAccesses(cfg) },
		"cem":      func() { experiments.RunCEM(cfg) },
	}
	order := []string{"fig1", "sizes", "table5", "fig10", "fig11", "fig12", "accesses", "cem"}

	selected := strings.Split(*exp, ",")
	if *exp == "all" {
		selected = order
	}
	for _, name := range selected {
		fn, ok := run[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "tacobench: unknown experiment %q (want one of %s, or all)\n",
				name, strings.Join(order, "|"))
			os.Exit(2)
		}
		start := time.Now()
		fn()
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
