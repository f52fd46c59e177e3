// Benchmarks regenerating the paper's evaluation artefacts. One benchmark
// per table/figure (driving the same harness as cmd/tacobench at a reduced
// scale so `go test -bench` stays tractable), plus micro-benchmarks on the
// primitive operations and ablations of the design choices (RR-Chain,
// dollar-sign cues, the pattern set).
//
// Absolute numbers are host-dependent; the shapes — TACO vs NoComp ratios,
// pattern ordering — are the reproduction targets and are asserted in
// internal/experiments tests.
package taco_test

import (
	"math/rand"
	"testing"

	"taco"
	"taco/internal/core"
	"taco/internal/experiments"
	"taco/internal/nocomp"
	"taco/internal/workload"
)

func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.08, Out: nil}
}

// --- Figure/table harness benchmarks -----------------------------------------

func BenchmarkFig1Corpus(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunFig1(cfg)
	}
}

func BenchmarkTable2Compression(b *testing.B) {
	// Also produces Tables III and IV (same measurement pass).
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.RunSizes(cfg)
		full := res["Github"]["TACO-Full"]
		nc := res["Github"]["NoComp"]
		b.ReportMetric(float64(full.Edges)/float64(nc.Edges)*100, "%edges-remaining")
	}
}

func BenchmarkTable5Patterns(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable5(cfg)
		b.ReportMetric(float64(res.Patterns["Github"][core.RR].Total), "RR-edges-reduced")
	}
}

func BenchmarkFig10FindDependents(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig10(cfg)
		b.ReportMetric(res.MaxDependents["Github"].MaxSpeedup(), "max-speedup-x")
	}
}

func BenchmarkFig11Build(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunFig11(cfg)
	}
}

func BenchmarkFig12Modify(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunFig12(cfg)
	}
}

func BenchmarkCEMGreedyVsExact(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunCEM(cfg)
	}
}

// --- Micro-benchmarks on one representative sheet -----------------------------

// benchSheet builds a deterministic mid-size sheet shared by the micro
// benchmarks.
func benchSheet() []core.Dependency {
	s := workload.GenerateSheet("bench", 1500, 0.08, rand.New(rand.NewSource(42)))
	return s.MustDependencies()
}

func BenchmarkBuildTACO(b *testing.B) {
	deps := benchSheet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(deps, core.DefaultOptions())
	}
}

func BenchmarkBuildNoComp(b *testing.B) {
	deps := benchSheet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nocomp.Build(deps)
	}
}

func findSeed(deps []core.Dependency) taco.Range {
	m := workload.Metrics(deps)
	return taco.Range{Head: m.MaxDependentsCell, Tail: m.MaxDependentsCell}
}

func BenchmarkFindDependentsTACO(b *testing.B) {
	deps := benchSheet()
	g := core.Build(deps, core.DefaultOptions())
	seed := findSeed(deps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FindDependents(seed)
	}
}

func BenchmarkFindDependentsNoComp(b *testing.B) {
	deps := benchSheet()
	g := nocomp.Build(deps)
	seed := findSeed(deps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FindDependents(seed)
	}
}

func BenchmarkFindPrecedentsTACO(b *testing.B) {
	deps := benchSheet()
	g := core.Build(deps, core.DefaultOptions())
	seed := taco.MustRange("E750")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FindPrecedents(seed)
	}
}

// The modify benchmarks clear one column and reinsert its dependencies each
// iteration, so a single prebuilt graph serves the whole run (rebuilding per
// iteration under StopTimer makes wall-clock explode). The timed op is
// clear+reinsert — maintenance round-trip cost.
func BenchmarkModifyTACO(b *testing.B) {
	deps := benchSheet()
	clear := taco.MustRange("C1:C1000")
	var cleared []core.Dependency
	for _, d := range deps {
		if clear.Contains(d.Dep) {
			cleared = append(cleared, d)
		}
	}
	g := core.Build(deps, core.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clear(clear)
		for _, d := range cleared {
			g.AddDependency(d)
		}
	}
}

func BenchmarkModifyNoComp(b *testing.B) {
	deps := benchSheet()
	clear := taco.MustRange("C1:C1000")
	var cleared []core.Dependency
	for _, d := range deps {
		if clear.Contains(d.Dep) {
			cleared = append(cleared, d)
		}
	}
	g := nocomp.Build(deps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clear(clear)
		for _, d := range cleared {
			g.AddDependency(d)
		}
	}
}

// --- Ablations -----------------------------------------------------------------

// BenchmarkAblationChainPattern isolates RR-Chain: finding dependents from
// the head of a long chain with the pattern enabled vs compressed as plain
// RR (the repeated-edge-access pathology of Sec. V).
func BenchmarkAblationChainPattern(b *testing.B) {
	var deps []core.Dependency
	for row := 2; row <= 8000; row++ {
		deps = append(deps, core.Dependency{
			Prec: taco.Range{Head: taco.Ref{Col: 1, Row: row - 1}, Tail: taco.Ref{Col: 1, Row: row - 1}},
			Dep:  taco.Ref{Col: 1, Row: row},
		})
	}
	seed := taco.MustRange("A1")
	b.Run("with-RRChain", func(b *testing.B) {
		g := core.Build(deps, core.DefaultOptions())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.FindDependents(seed)
		}
	})
	b.Run("RR-only", func(b *testing.B) {
		g := core.Build(deps, core.Options{Patterns: []core.PatternType{core.RR, core.RF, core.FR, core.FF}, UseDollarCues: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.FindDependents(seed)
		}
	})
}

// BenchmarkAblationDollarCues measures build time and compression quality
// with and without the `$` heuristic.
func BenchmarkAblationDollarCues(b *testing.B) {
	deps := benchSheet()
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"with-cues", core.DefaultOptions()},
		{"no-cues", core.Options{UseDollarCues: false}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				edges = core.Build(deps, cfg.opts).NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkAblationPatternSet grows the enabled pattern set to show each
// pattern's marginal contribution to the compressed size.
func BenchmarkAblationPatternSet(b *testing.B) {
	deps := benchSheet()
	sets := []struct {
		name     string
		patterns []core.PatternType
	}{
		{"RR", []core.PatternType{core.RR}},
		{"RR+FF", []core.PatternType{core.RR, core.FF}},
		{"RR+FF+FR+RF", []core.PatternType{core.RR, core.FF, core.FR, core.RF}},
		{"all", nil},
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				edges = core.Build(deps, core.Options{Patterns: set.patterns, UseDollarCues: true}).NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}
