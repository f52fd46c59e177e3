package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"taco/internal/core"
	"taco/internal/ref"
	"taco/internal/workload"
)

// Microbenchmarks for the traversal hot path and incremental maintenance.
// CI compiles and smoke-runs them (-bench=. -benchtime=1x via `make
// bench-core`) so a regression that breaks or pathologically slows the
// compressed-graph primitives fails fast; run locally with -benchtime left
// at default for real numbers.

func benchSheet(b *testing.B, rows int) *core.Graph {
	b.Helper()
	sheet := workload.FinancialModel(rows, rand.New(rand.NewSource(1)))
	deps, err := sheet.Dependencies()
	if err != nil {
		b.Fatal(err)
	}
	return core.Build(deps, core.DefaultOptions())
}

func BenchmarkFindDependents(b *testing.B) {
	g := benchSheet(b, 200)
	seed := ref.CellRange(ref.Ref{Col: 2, Row: 7}) // a revenue cell feeding chains
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FindDependents(seed)
	}
}

func BenchmarkFindPrecedents(b *testing.B) {
	g := benchSheet(b, 200)
	seed := ref.CellRange(ref.Ref{Col: 5, Row: 150}) // deep in a running total
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FindPrecedents(seed)
	}
}

func BenchmarkAddDependency(b *testing.B) {
	sheet := workload.FinancialModel(200, rand.New(rand.NewSource(1)))
	deps := sheet.MustDependencies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := core.NewGraph(core.DefaultOptions())
		b.StartTimer()
		for _, d := range deps {
			g.AddDependency(d)
		}
	}
}

func BenchmarkClear(b *testing.B) {
	sheet := workload.FinancialModel(200, rand.New(rand.NewSource(1)))
	deps := sheet.MustDependencies()
	targets := make([]ref.Range, 0, 64)
	for i := 0; i < 64; i++ {
		targets = append(targets, ref.CellRange(deps[(i*37)%len(deps)].Dep))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := core.Build(deps, core.DefaultOptions())
		b.StartTimer()
		for _, s := range targets {
			g.Clear(s)
		}
	}
}

func BenchmarkStats(b *testing.B) {
	g := benchSheet(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := g.Stats(); s.Edges == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkFindDependentsAfterRewrites times the rate edit's traversal,
// FindDependents($H$1), on the 20 000-row ledger: freshly bulk-loaded, and
// after 128 rewrite-and-restores of column C at random rows, as many as
// engine_recalc's op list makes. The two should cost the same.
func BenchmarkFindDependentsAfterRewrites(b *testing.B) {
	deps := ledgerDeps(b, 20_000)
	rate := ref.CellRange(ref.MustCell("H1"))
	for _, rewrites := range []int{0, 128} {
		name := "fresh"
		if rewrites > 0 {
			name = fmt.Sprintf("rewritten_%d", rewrites)
		}
		b.Run(name, func(b *testing.B) {
			g := core.BuildBulk(deps, core.DefaultOptions())
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < rewrites; i++ {
				rewriteLedgerRow(b, g, 1+rng.Intn(20_000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.FindDependents(rate)
			}
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
}

// BenchmarkBuildBulkVsGreedy builds column-major load lists both ways: the
// paper's Fig. 2 column, the 2 000-row ledger, three scenarios filled down
// and the planning sheet, whose rows are filled across — runs the bulk path
// cannot extend down a column and hands to Alg. 2. Each reports its edges.
func BenchmarkBuildBulkVsGreedy(b *testing.B) {
	fig2 := workload.NewSheet("fig2")
	fig2.AddFig2Column(1, 13, 14, 3000)
	inputs := []struct {
		name string
		deps []core.Dependency
	}{{"fig2", fig2.MustDependencies()}, {"ledger", ledgerDeps(b, 2000)}}
	for _, name := range workload.ScenarioNames {
		n := 200
		if name == "planning" {
			n = 2000
		}
		s, err := workload.BuildScenario(name, n, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, struct {
			name string
			deps []core.Dependency
		}{name, s.MustDependencies()})
	}
	builders := []struct {
		name  string
		build func([]core.Dependency, core.Options) *core.Graph
	}{{"greedy", core.Build}, {"bulk", core.BuildBulk}}
	for _, in := range inputs {
		for _, bl := range builders {
			b.Run(in.name+"/"+bl.name, func(b *testing.B) {
				var g *core.Graph
				for i := 0; i < b.N; i++ {
					g = bl.build(in.deps, core.DefaultOptions())
				}
				b.ReportMetric(float64(g.NumEdges()), "edges")
			})
		}
	}
}

// BenchmarkBuildCorpus builds every sheet of the Enron and Github corpora,
// at half graph_corpus's scale, through Alg. 2 one dependency at a
// time (core.Build, the graph_corpus load): the path where a run grows by a
// cell per dependency. It reports the corpora's edges and dependencies.
func BenchmarkBuildCorpus(b *testing.B) {
	var deps [][]core.Dependency
	n := 0
	for _, spec := range []workload.CorpusSpec{workload.EnronSpec(0.5), workload.GithubSpec(0.5)} {
		for _, s := range workload.Generate(spec) {
			deps = append(deps, s.MustDependencies())
			n += len(deps[len(deps)-1])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	edges := 0
	for i := 0; i < b.N; i++ {
		edges = 0
		for _, d := range deps {
			edges += core.Build(d, core.DefaultOptions()).NumEdges()
		}
	}
	b.ReportMetric(float64(edges), "edges")
	b.ReportMetric(float64(n), "deps")
}
