package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"taco/internal/core"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/workload"
)

// TestCountsPinned pins the size statistics, the per-pattern counts and the
// snapshot bytes of both synthetic corpora (every sheet its own graph, the
// counts summed) and of the 2 000-row ledger, built through Build and
// BuildBulk, typed row by row, and rewritten and cleared in place. It pins
// the NoComp baseline's edges and vertices on the same inputs. The numbers
// were read off graphs that still maintained their vertex refcounts and
// dependency count on every insert and delete, so they hold the counts
// computed from the two indexes to what those caches reported.
func TestCountsPinned(t *testing.T) {
	corpus := func(spec workload.CorpusSpec) [][]core.Dependency {
		var out [][]core.Dependency
		for _, s := range workload.Generate(spec) {
			out = append(out, s.MustDependencies())
		}
		return out
	}
	ledger := ledgerDeps(t, 2000)
	byRow := slices.Clone(ledger)
	slices.SortStableFunc(byRow, func(a, b core.Dependency) int { return a.Dep.Row - b.Dep.Row })
	rewritten := func() *core.Graph {
		g := core.BuildBulk(ledger, core.DefaultOptions())
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 64; i++ {
			rewriteLedgerRow(t, g, 1+rng.Intn(2000))
		}
		for i := 0; i < 8; i++ {
			g.Clear(ref.CellRange(ref.Ref{Col: 4, Row: 1 + rng.Intn(2000)}))
		}
		return g
	}
	enron, github := corpus(workload.EnronSpec(0.1)), corpus(workload.GithubSpec(0.1))
	type patterns = map[core.PatternType]core.PatternStat
	type pin struct {
		stats    core.Stats
		patterns patterns
		snapshot string // the first 8 bytes of the SHA-256 of the snapshots
	}
	enronPin := pin{
		core.Stats{Vertices: 152, Edges: 102, Dependencies: 3269},
		patterns{core.Single: {41, 0}, core.RR: {40, 1993}, core.RF: {3, 213}, core.FF: {12, 741}, core.RRChain: {6, 220}},
		"bcf9abbcfa9bc610",
	}
	githubPin := pin{
		core.Stats{Vertices: 739, Edges: 398, Dependencies: 6739},
		patterns{core.Single: {339, 0}, core.RR: {38, 4089}, core.RF: {2, 276}, core.FR: {4, 311}, core.FF: {15, 1665}},
		"dfdc41ea4539dcec",
	}
	ledgerPin := pin{
		core.Stats{Vertices: 28, Edges: 16, Dependencies: 11989},
		patterns{core.Single: {3, 0}, core.RR: {4, 7990}, core.FF: {1, 1999}, core.RRChain: {8, 1984}},
		"5be0160398d6329e",
	}
	cases := []struct {
		name  string
		deps  [][]core.Dependency
		build func([]core.Dependency, core.Options) *core.Graph
		want  pin
	}{
		{"enron/Build", enron, core.Build, enronPin},
		{"enron/BuildBulk", enron, core.BuildBulk, enronPin},
		{"github/Build", github, core.Build, githubPin},
		{"github/BuildBulk", github, core.BuildBulk, githubPin},
		{"ledger/Build", [][]core.Dependency{ledger}, core.Build, ledgerPin},
		{"ledger/BuildBulk", [][]core.Dependency{ledger}, core.BuildBulk, ledgerPin},
	}
	for _, c := range cases {
		var st core.Stats
		ps := patterns{}
		h := sha256.New()
		for _, deps := range c.deps {
			g := c.build(deps, core.DefaultOptions())
			if err := g.Check(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			s := g.Stats()
			st.Vertices += s.Vertices
			st.Edges += s.Edges
			st.Dependencies += s.Dependencies
			for p, v := range g.PatternStats() {
				ps[p] = core.PatternStat{Edges: ps[p].Edges + v.Edges, Reduced: ps[p].Reduced + v.Reduced}
			}
			var buf bytes.Buffer
			if err := g.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			h.Write(buf.Bytes())
		}
		if st != c.want.stats {
			t.Errorf("%s: Stats = %+v, want %+v", c.name, st, c.want.stats)
		}
		if !maps.Equal(ps, c.want.patterns) {
			t.Errorf("%s: PatternStats = %v, want %v", c.name, ps, c.want.patterns)
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want.snapshot {
			t.Errorf("%s: snapshot digest %s, want %s", c.name, got, c.want.snapshot)
		}
	}

	for _, c := range []struct {
		name     string
		g        *core.Graph
		stats    core.Stats
		patterns patterns
	}{
		{"ledger/row-order Build", core.Build(byRow, core.DefaultOptions()),
			core.Stats{Vertices: 4026, Edges: 2014, Dependencies: 11989},
			patterns{core.Single: {3, 0}, core.RR: {2, 3992}, core.FF: {1, 1999}, core.RRChain: {2008, 3984}}},
		{"ledger/rewritten and cleared", rewritten(),
			core.Stats{Vertices: 57, Edges: 32, Dependencies: 11973},
			patterns{core.Single: {5, 0}, core.RR: {11, 7974}, core.FF: {1, 1999}, core.RRChain: {15, 1968}}},
	} {
		if err := c.g.Check(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st := c.g.Stats(); st != c.stats {
			t.Errorf("%s: Stats = %+v, want %+v", c.name, st, c.stats)
		}
		if ps := c.g.PatternStats(); !maps.Equal(ps, c.patterns) {
			t.Errorf("%s: PatternStats = %v, want %v", c.name, ps, c.patterns)
		}
	}

	for _, c := range []struct {
		name            string
		deps            [][]core.Dependency
		edges, vertices int
	}{
		{"enron", enron, 3269, 3244},
		{"github", github, 6739, 8126},
		{"ledger", [][]core.Dependency{ledger}, 11989, 11995},
	} {
		edges, vertices := 0, 0
		for _, deps := range c.deps {
			g := nocomp.Build(deps)
			edges += g.NumEdges()
			vertices += g.NumVertices()
		}
		if edges != c.edges || vertices != c.vertices {
			t.Errorf("nocomp %s: %d edges, %d vertices, want %d and %d", c.name, edges, vertices, c.edges, c.vertices)
		}
	}
}
