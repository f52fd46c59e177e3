package experiments

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"taco/internal/core"
	"taco/internal/ref"
)

// tinyConfig keeps experiment tests fast: a very small corpus.
func tinyConfig() Config {
	return Config{Scale: 0.05, Out: nil}
}

func TestCorporaDeterministicAndNonEmpty(t *testing.T) {
	a := Corpora(tinyConfig())
	b := Corpora(tinyConfig())
	for _, name := range CorpusNames {
		if len(a[name]) == 0 {
			t.Fatalf("corpus %s empty", name)
		}
		if len(a[name]) != len(b[name]) {
			t.Fatalf("corpus %s nondeterministic", name)
		}
		for i := range a[name] {
			if len(a[name][i].Deps) != len(b[name][i].Deps) {
				t.Fatalf("sheet %d deps differ", i)
			}
		}
	}
}

func TestRunSizesShape(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig()
	cfg.Out = &buf
	res := RunSizes(cfg)
	for _, name := range CorpusNames {
		nc := res[name]["NoComp"]
		inRow := res[name]["TACO-InRow"]
		full := res[name]["TACO-Full"]
		// Paper shape: Full << InRow << NoComp in edges.
		if !(full.Edges < inRow.Edges && inRow.Edges < nc.Edges) {
			t.Fatalf("%s: edges %d/%d/%d violate Full < InRow < NoComp",
				name, full.Edges, inRow.Edges, nc.Edges)
		}
		// TACO-Full compresses to a small fraction.
		frac := float64(full.Edges) / float64(nc.Edges)
		if frac > 0.25 {
			t.Fatalf("%s: TACO-Full fraction %.2f too high", name, frac)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table II", "Table III", "Table IV", "TACO-Full"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable5Shape(t *testing.T) {
	res := RunTable5(tinyConfig())
	for _, name := range CorpusNames {
		agg := res.Patterns[name]
		// RR must dominate, as in the paper.
		rr := agg[core.RR].Total
		for _, p := range []core.PatternType{core.RF, core.FR} {
			if agg[p].Total > rr {
				t.Fatalf("%s: %v (%d) reduced more than RR (%d)", name, p, agg[p].Total, rr)
			}
		}
		if rr == 0 || agg[core.FF].Total == 0 {
			t.Fatalf("%s: RR/FF reductions are zero: %+v", name, agg)
		}
		// RR-GapOne is far less prevalent than RR (Sec. V).
		if res.GapOne[name] >= rr {
			t.Fatalf("%s: gap-one %d >= RR %d", name, res.GapOne[name], rr)
		}
	}
}

func TestRunFig1Shape(t *testing.T) {
	res := RunFig1(tinyConfig())
	for _, name := range CorpusNames {
		sum := 0.0
		for _, f := range res.MaxDependents[name] {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: bucket fractions sum to %f", name, sum)
		}
	}
}

func TestRunFig10Shape(t *testing.T) {
	res := RunFig10(tinyConfig())
	for _, name := range CorpusNames {
		md := res.MaxDependents[name]
		if len(md.TACO) == 0 || len(md.TACO) != len(md.NoComp) {
			t.Fatalf("%s: sample counts %d/%d", name, len(md.TACO), len(md.NoComp))
		}
	}
}

func TestRunFig11And12Shape(t *testing.T) {
	b := RunFig11(tinyConfig())
	for _, name := range CorpusNames {
		if len(b[name].TACO) == 0 {
			t.Fatalf("%s: no build samples", name)
		}
	}
	m := RunFig12(tinyConfig())
	for _, name := range CorpusNames {
		if len(m[name].TACO) == 0 {
			t.Fatalf("%s: no modify samples", name)
		}
	}
}

func TestRunAccessesShape(t *testing.T) {
	res := RunAccesses(tinyConfig())
	for _, name := range CorpusNames {
		samples := res.MeanPerEdge[name]
		if len(samples) == 0 {
			t.Fatalf("%s: no samples", name)
		}
		// The paper's claim: the 98th percentile of mean accesses per edge
		// stays single-digit (<= 7 on the real corpora).
		if p98 := percentileOf(samples, 98); p98 > 10 {
			t.Fatalf("%s: P98 accesses per edge = %.1f", name, p98)
		}
	}
}

func percentileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

func TestRunCEM(t *testing.T) {
	res := RunCEM(tinyConfig())
	if len(res) < 3 {
		t.Fatalf("cem results = %d", len(res))
	}
	for _, r := range res {
		if r.Exact <= 0 {
			t.Fatalf("%s: exact = %d", r.Name, r.Exact)
		}
		if r.Greedy < r.Exact {
			t.Fatalf("%s: greedy %d beats exact %d", r.Name, r.Greedy, r.Exact)
		}
		// On these regular workloads greedy should match the optimum.
		if r.Greedy != r.Exact {
			t.Fatalf("%s: greedy %d != exact %d", r.Name, r.Greedy, r.Exact)
		}
	}
}

func TestClearRangeFor(t *testing.T) {
	deps := []core.Dependency{
		{Prec: ref.MustRange("A1"), Dep: ref.MustCell("B3")},
		{Prec: ref.MustRange("A2"), Dep: ref.MustCell("B4")},
		{Prec: ref.MustRange("A1"), Dep: ref.MustCell("C9")},
	}
	r := clearRangeFor(deps)
	if r.Head != ref.MustCell("B3") || r.Rows() != 1000 {
		t.Fatalf("clear range = %v", r)
	}
}
