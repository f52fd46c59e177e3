package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"taco/internal/ref"
)

func depsEqualAsSets(t *testing.T, a, b []Dependency) {
	t.Helper()
	key := func(d Dependency) string {
		return d.Prec.String() + "->" + d.Dep.String()
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i, d := range a {
		as[i] = key(d)
	}
	for i, d := range b {
		bs[i] = key(d)
	}
	sort.Strings(as)
	sort.Strings(bs)
	if len(as) != len(bs) {
		t.Fatalf("dependency counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("dependency %d differs: %s vs %s", i, as[i], bs[i])
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		deps := genRandomDeps(rand.New(rand.NewSource(seed)))
		g := Build(deps, DefaultOptions())

		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadSnapshot(&buf, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if loaded.NumEdges() != g.NumEdges() || loaded.NumDependencies() != g.NumDependencies() {
			t.Fatalf("seed %d: loaded (%d,%d) vs (%d,%d)", seed,
				loaded.NumEdges(), loaded.NumDependencies(), g.NumEdges(), g.NumDependencies())
		}
		if err := loaded.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Losslessness: both decompress to the same dependency set.
		depsEqualAsSets(t, g.Dependencies(), loaded.Dependencies())

		// Queries agree.
		for q := 0; q < 5; q++ {
			r := mustRange("B3")
			a := cellsOf(g.FindDependents(r))
			b := cellsOf(loaded.FindDependents(r))
			sameCells(t, "snapshot dependents", b, a)
		}
		// The loaded graph remains mutable.
		loaded.Clear(mustRange("C1:C5"))
		if err := loaded.Check(); err != nil {
			t.Fatalf("seed %d after clear: %v", seed, err)
		}
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	deps := fig2Deps(30)
	var a, b bytes.Buffer
	if err := Build(deps, DefaultOptions()).WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := Build(deps, DefaultOptions()).WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot bytes are not deterministic")
	}
}

func TestSnapshotIsCompact(t *testing.T) {
	// The snapshot of a compressed graph is far smaller than one edge
	// record per dependency would be.
	deps := fig2Deps(2000)
	g := Build(deps, DefaultOptions())
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 64*g.NumEdges()+len(snapshotMagic)+8 {
		t.Fatalf("snapshot %d bytes for %d edges", buf.Len(), g.NumEdges())
	}
	if buf.Len() > len(deps) { // ~8000 deps vs a few hundred bytes
		t.Fatalf("snapshot %d bytes not compact vs %d deps", buf.Len(), len(deps))
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("WRONG!"),
		[]byte("TACOG1"),                // truncated count
		append([]byte("TACOG1"), 5),     // count without edges
		append([]byte("TACOG1"), 1, 99), // unknown pattern
		append([]byte("TACOG1"), 1, 0),  // truncated edge
	}
	for i, data := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(data), DefaultOptions()); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestCheckEdgeCatchesCorruption(t *testing.T) {
	e := fig4aEdge(t)
	if err := CheckEdge(e); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	// Corrupt the metadata: the precedent no longer matches.
	bad := *e
	bad.Meta.HRel.DRow++
	if err := CheckEdge(&bad); err == nil {
		t.Fatal("corrupted RR edge accepted")
	}
	// A 2D dependent run is invalid.
	bad = *e
	bad.Dep.Tail.Col++
	if err := CheckEdge(&bad); err == nil {
		t.Fatal("2D dependent run accepted")
	}
	// A Single edge with a range dependent is invalid.
	s := singleEdge(dep("A1:B2", "C1"))
	s.Dep = mustRange("C1:C2")
	if err := CheckEdge(s); err == nil {
		t.Fatal("multi-cell Single accepted")
	}
}

// TestCheckCatchesIndexFaults plants one fault a time in the two indexes of
// a valid graph, each one a mutation path could leave and each caught by a
// different clause of Check, and requires Check to report it.
func TestCheckCatchesIndexFaults(t *testing.T) {
	faults := []struct {
		name  string
		plant func(g *Graph, e *Edge)
	}{
		{"stray precedent entry", func(g *Graph, e *Edge) { g.byPrec.Insert(e.Prec, e) }},
		{"edge in the dependent index only", func(g *Graph, e *Edge) { g.byDep.Insert(e.Dep, e) }},
		{"edge inserted twice", func(g *Graph, e *Edge) { g.insertEdge(e); g.insertEdge(e) }},
		{"dependent moved without its entry", func(g *Graph, e *Edge) {
			g.insertEdge(e)
			e.Dep = e.Dep.Shift(ref.Offset{DCol: 1})
		}},
		{"precedent moved without its entry", func(g *Graph, e *Edge) {
			g.insertEdge(e)
			e.Prec = e.Prec.Shift(ref.Offset{DCol: 1})
		}},
		{"invalid edge", func(g *Graph, e *Edge) {
			e.Dep = mustRange("Z9:Z10")
			g.insertEdge(e)
		}},
	}
	for _, f := range faults {
		g := Build(fig2Deps(40), DefaultOptions())
		if err := g.Check(); err != nil {
			t.Fatalf("%s: valid graph rejected: %v", f.name, err)
		}
		f.plant(g, singleEdge(dep("A1:B2", "Z9")))
		if err := g.Check(); !errors.Is(err, ErrInvariant) {
			t.Errorf("%s: Check = %v, want an invariant violation", f.name, err)
		}
	}
}

func TestGraphCheckOnRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		deps := genRandomDeps(rng)
		g := Build(deps, DefaultOptions())
		if err := g.Check(); err != nil {
			t.Fatalf("seed %d after build: %v", seed, err)
		}
		g.Clear(mustRange("D2:D9"))
		if err := g.Check(); err != nil {
			t.Fatalf("seed %d after clear: %v", seed, err)
		}
	}
}

// TestDependenciesDecompression holds every pattern's per-cell window
// (directPrecsCol) to the raw dependency list: the paper's Fig. 2 sheet, and
// random graphs for the shapes it lacks — row-axis runs, fixed corners, chains.
func TestDependenciesDecompression(t *testing.T) {
	deps := fig2Deps(40)
	g := Build(deps, DefaultOptions())
	depsEqualAsSets(t, deps, g.Dependencies())
	for seed := int64(0); seed < 20; seed++ {
		deps := genRandomDeps(rand.New(rand.NewSource(seed)))
		depsEqualAsSets(t, deps, Build(deps, DefaultOptions()).Dependencies())
	}
}

func TestZigZag(t *testing.T) {
	for _, v := range []int{0, 1, -1, 13, -13, 1 << 20, -(1 << 20)} {
		if got := unzig(zig(v)); got != v {
			t.Errorf("unzig(zig(%d)) = %d", v, got)
		}
	}
}
