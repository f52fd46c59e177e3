package main

import (
	"bytes"
	"math/rand"
	"slices"
	"time"

	"taco/internal/core"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/rtree"
	"taco/internal/workload"
)

// graphCorpus runs the paper's own quantities: build the compressed graph of
// every sheet of the Enron and Github corpora, then query and modify it. Only
// core and rtree do work; no cell is ever evaluated.
type graphCorpus struct {
	seed   int64
	hash   opHash
	sheets []*workload.Sheet   // nil once released; regenerated on demand
	deps   [][]core.Dependency // likewise
	ops    []graphOp
	next   int

	graphs []*core.Graph // the program under test, one graph per sheet
	nDeps  int
	loadS  float64

	// Shadows, built by probe or verify.
	oracle []*nocomp.Graph
	trees  []*rtree.Tree[int]

	// Traced runs: the runner's tracer, and the wasted-work ratio of the
	// replayed queries (edges accessed per range returned).
	tr                        *tracer
	edgeAccesses, edgeResults int
}

const (
	gopDependents = iota
	gopPrecedents
	gopEdit
)

// graphSample is the 1-in-k of ops replayed against the shadows in a traced
// run.
const graphSample = 64

// graphOp is one op of the fixed stream. want is the size of the answer in
// cells, learned the first time the op runs (the warm-up pass) and checked
// against NoComp by verify; every later run of the op must repeat it.
type graphOp struct {
	sheet int
	kind  int
	cell  ref.Range
	refs  []core.Dependency // gopEdit: what the rewritten formula references
	want  int
}

func (w *graphCorpus) inputs() {
	if w.sheets != nil {
		return
	}
	w.sheets = corpusSheets(sz.corpusScale)
	w.deps = make([][]core.Dependency, len(w.sheets))
	for i, s := range w.sheets {
		w.deps[i] = s.MustDependencies()
	}
}

func (w *graphCorpus) generate(seed int64) error {
	w.seed, w.hash = seed, newOpHash()
	w.inputs()
	rng := rand.New(rand.NewSource(seed))
	for i, s := range w.sheets {
		most := workload.Metrics(w.deps[i]).MaxDependentsCell
		cells := []ref.Range{ref.CellRange(most), ref.CellRange(longestPathHead(w.deps[i]))}
		cells = append(cells, workload.QueryStream(s, sz.queriesPerSh, rng)...)
		for _, c := range cells {
			if !c.Valid() {
				continue
			}
			w.ops = append(w.ops, graphOp{sheet: i, kind: gopDependents, cell: c, want: -1},
				graphOp{sheet: i, kind: gopPrecedents, cell: c, want: -1})
		}
		byCell := map[ref.Ref][]core.Dependency{}
		for _, e := range workload.EditStreamMix(s, sz.editsPerSheet, rng, 0.5) {
			op := graphOp{sheet: i, kind: gopEdit, cell: ref.CellRange(e.At), want: -1}
			if e.Kind == workload.EditFormula {
				if len(byCell) == 0 {
					for _, d := range w.deps[i] {
						byCell[d.Dep] = append(byCell[d.Dep], d)
					}
				}
				op.refs = byCell[e.At]
			}
			w.ops = append(w.ops, op)
		}
	}
	rng.Shuffle(len(w.ops), func(a, b int) { w.ops[a], w.ops[b] = w.ops[b], w.ops[a] })
	for _, op := range w.ops {
		w.hash.add("%d %d %v %d", op.sheet, op.kind, op.cell, len(op.refs))
	}
	return nil
}

func (w *graphCorpus) opHash() string { return w.hash.String() }
func (w *graphCorpus) clients() int   { return 1 }

func (w *graphCorpus) setup(string) (int, float64, error) {
	w.inputs()
	w.graphs = make([]*core.Graph, len(w.deps))
	w.nDeps = 0
	t0 := time.Now()
	for i, d := range w.deps {
		w.graphs[i] = core.Build(d, core.DefaultOptions())
		w.nDeps += len(d)
	}
	w.loadS = time.Since(t0).Seconds()
	// Warm-up: one pass over the op list. It also teaches every op the size
	// of its answer.
	var st clientStats
	w.next = 0
	for i := range w.ops {
		w.runOp(i, &st, nil, false)
	}
	return w.nDeps, w.loadS, nil
}

func (w *graphCorpus) release() { w.sheets, w.deps = nil, nil }

func (w *graphCorpus) teardown() { w.graphs = nil }

// buildOracle builds the NoComp graph of every sheet, the reference every
// answer is checked against.
func (w *graphCorpus) buildOracle(tr *tracer) {
	if w.oracle != nil {
		return
	}
	w.inputs()
	before := liveHeap()
	t0 := time.Now()
	w.oracle = make([]*nocomp.Graph, len(w.deps))
	edges := 0
	for i, d := range w.deps {
		w.oracle[i] = nocomp.Build(d)
		edges += w.oracle[i].NumEdges()
	}
	if tr != nil {
		tr.add("nocomp", "build", time.Since(t0), len(w.deps))
		tr.val("nocomp.edges", float64(edges))
		tr.val("nocomp.live_heap_mb", liveHeap()-before)
	}
}

func (w *graphCorpus) probe(tr *tracer) error {
	w.tr = tr
	w.buildOracle(tr)
	tr.add("core", "build", time.Duration(w.loadS*float64(time.Second)), len(w.graphs))
	w.trees = make([]*rtree.Tree[int], len(w.deps))
	for i, deps := range w.deps {
		// Every fourth formula keeps the parse probe under a second.
		n := 0
		var asts []formula.Node
		var parse time.Duration
		for _, c := range w.sheets[i].Cells {
			if !c.IsFormula() {
				continue
			}
			if n++; n%4 != 0 {
				continue
			}
			t0 := time.Now()
			ast, err := formula.Parse(c.Formula)
			parse += time.Since(t0)
			if err != nil {
				return err
			}
			asts = append(asts, ast)
		}
		tr.add("formula", "parse", parse, len(asts))
		t0 := time.Now()
		for _, ast := range asts {
			formula.Refs(ast)
		}
		tr.add("formula", "extract_refs", time.Since(t0), len(asts))

		t0 = time.Now()
		core.BuildBulk(deps, core.DefaultOptions())
		tr.add("core", "build_bulk", time.Since(t0), 1)

		// The shadow index holds what the graph's own index holds: the
		// precedent range of every compressed edge.
		var items []rtree.Item[int]
		w.graphs[i].Edges(func(e *core.Edge) bool {
			items = append(items, rtree.Item[int]{Rect: e.Prec, Value: len(items)})
			return true
		})
		t0 = time.Now()
		w.trees[i] = rtree.BulkLoad(items)
		tr.add("rtree", "bulkload", time.Since(t0), 1)
		one := rtree.New[int]()
		t0 = time.Now()
		for _, it := range items {
			one.Insert(it.Rect, it.Value)
		}
		tr.add("rtree", "insert", time.Since(t0), len(items))

		var buf bytes.Buffer
		t0 = time.Now()
		if err := w.graphs[i].WriteSnapshot(&buf); err != nil {
			return err
		}
		tr.add("core", "snapshot_write", time.Since(t0), 1)
		tr.val("core.snapshot_bytes", float64(buf.Len()))
		t0 = time.Now()
		if _, err := core.ReadSnapshot(&buf, core.DefaultOptions()); err != nil {
			return err
		}
		tr.add("core", "snapshot_read", time.Since(t0), 1)
	}
	return nil
}

func (w *graphCorpus) runClient(_ int, ep *epochCtl, st *clientStats, tr *tracer) {
	for n := 0; !ep.done(n, len(w.ops)); n++ {
		i := w.next
		w.next = (w.next + 1) % len(w.ops)
		w.runOp(i, st, tr, ep.sampled(i, graphSample))
	}
}

// runOp runs op i against the live graph. A graph edit is what the graph
// layer does for one cell update: clear the cell's dependencies, add those of
// the new formula, and find every dependent, after which control returns.
func (w *graphCorpus) runOp(i int, st *clientStats, tr *tracer, replay bool) {
	op := &w.ops[i]
	g := w.graphs[op.sheet]
	var res []ref.Range
	t0 := time.Now()
	var t1, t2 time.Time
	switch op.kind {
	case gopDependents:
		res = g.FindDependents(op.cell)
	case gopPrecedents:
		res = g.FindPrecedents(op.cell)
	case gopEdit:
		g.Clear(op.cell)
		if replay { // the split of an edit is read only when it is replayed
			t1 = time.Now()
		}
		for _, d := range op.refs {
			g.AddDependency(d)
		}
		if replay {
			t2 = time.Now()
		}
		res = g.FindDependents(op.cell)
	}
	t3 := time.Now()
	d := t3.Sub(t0).Seconds()
	switch op.kind {
	case gopDependents:
		st.lat[kQuery] = append(st.lat[kQuery], d)
	case gopEdit:
		st.lat[kEdit] = append(st.lat[kEdit], d)
		st.edits++
	}
	st.attempted++
	if n := core.CountCells(res); op.want < 0 {
		op.want = n
	} else if n != op.want {
		st.failed++
	}
	if replay {
		w.replay(int64(i), op, tr, t0, t1, t2, t3)
	}
}

// replay records the live op's spans and repeats its index work on the
// shadow R-tree and its whole work on the NoComp reference.
func (w *graphCorpus) replay(id int64, op *graphOp, tr *tracer, t0, t1, t2, t3 time.Time) {
	tree, nc := w.trees[op.sheet], w.oracle[op.sheet]
	search := func(parent int32) {
		tr.child(parent, id, "rtree", "search", func() { tree.Search(op.cell, func(ref.Range, int) bool { return true }) })
	}
	switch op.kind {
	case gopDependents:
		search(tr.record(-1, id, "core", "find_dependents", t0, t3))
		s := time.Now()
		nc.FindDependents(op.cell)
		tr.add("nocomp", "find_dependents", time.Since(s), 1)
		res, ts := w.graphs[op.sheet].FindDependentsStats(op.cell)
		w.edgeAccesses += ts.EdgeAccesses
		w.edgeResults += len(res)
	case gopPrecedents:
		search(tr.record(-1, id, "core", "find_precedents", t0, t3))
	case gopEdit:
		tr.record(-1, id, "core", "clear", t0, t1)
		add := tr.record(-1, id, "core", "add", t1, t2)
		for _, d := range op.refs {
			tr.child(add, id, "rtree", "insert", func() { tree.Insert(d.Prec, -1) })
			tree.Delete(d.Prec, func(v int) bool { return v == -1 })
		}
		search(tr.record(-1, id, "core", "find_dependents", t2, t3))
		s := time.Now()
		nc.Clear(op.cell)
		tr.add("nocomp", "clear", time.Since(s), 1)
		for _, d := range op.refs {
			nc.AddDependency(d)
		}
	}
}

// cellSet expands ranges to the set of cells they cover.
func cellSet(rs []ref.Range) map[ref.Ref]struct{} {
	set := map[ref.Ref]struct{}{}
	for _, r := range rs {
		r.Cells(func(c ref.Ref) bool { set[c] = struct{}{}; return true })
	}
	return set
}

func sameCells(a, b []ref.Range) bool {
	sa, sb := cellSet(a), cellSet(b)
	if len(sa) != len(sb) {
		return false
	}
	for c := range sa {
		if _, ok := sb[c]; !ok {
			return false
		}
	}
	return true
}

// verify checks, for every op of the stream, that the compressed graph and
// NoComp name the same cells, and that each graph still passes its own
// invariant check after all the edits.
func (w *graphCorpus) verify() (attempted, failed int) {
	if w.edgeResults > 0 {
		w.tr.val("core.edge_accesses_per_result", float64(w.edgeAccesses)/float64(w.edgeResults))
	}
	w.buildOracle(nil)
	for _, op := range w.ops {
		g, nc := w.graphs[op.sheet], w.oracle[op.sheet]
		var got, want []ref.Range
		if op.kind == gopPrecedents {
			got, want = g.FindPrecedents(op.cell), nc.FindPrecedents(op.cell)
		} else {
			got, want = g.FindDependents(op.cell), nc.FindDependents(op.cell)
		}
		attempted++
		if core.CountCells(got) != op.want || !sameCells(got, want) {
			failed++
		}
	}
	for _, g := range w.graphs {
		attempted++
		if g.Check() != nil {
			failed++
		}
	}
	return attempted, failed
}

func (w *graphCorpus) exact(m map[string]float64) {
	for _, g := range w.graphs {
		graphCounts(m, g)
	}
}

// graphCounts adds the exact size of one compressed graph to the counts.
func graphCounts(m map[string]float64, g *core.Graph) {
	st := g.Stats()
	m["core.edges"] += float64(st.Edges)
	m["core.vertices"] += float64(st.Vertices)
	m["core.deps"] += float64(st.Dependencies)
	for p, ps := range g.PatternStats() {
		m["core.pattern_edges."+patternNames[p]] += float64(ps.Edges)
	}
	m["compressed_edge_fraction"] = ratio(m["core.edges"], m["core.deps"])
}

// longestPathHead returns the data cell at the head of the longest
// dependency path of a sheet: the cell whose update starts the longest
// recalculation chain. workload.Metrics computes the same cell but breaks
// ties by map iteration order, so two runs with one seed could query
// different cells; here ties go to the first cell in column-major order.
func longestPathHead(deps []core.Dependency) ref.Ref {
	byDep := map[ref.Ref][]ref.Range{}
	var cells []ref.Ref
	for _, d := range deps {
		if _, seen := byDep[d.Dep]; !seen {
			cells = append(cells, d.Dep)
		}
		byDep[d.Dep] = append(byDep[d.Dep], d.Prec)
	}
	slices.SortFunc(cells, ref.ColumnMajorCompare)
	index := rtree.New[ref.Ref]()
	for _, c := range cells {
		index.Insert(ref.CellRange(c), c)
	}
	// depth(c) is the number of edges on the longest path ending at formula
	// cell c; prev(c) is the formula cell before it on that path.
	depth := make(map[ref.Ref]int, len(cells))
	prev := make(map[ref.Ref]ref.Ref, len(cells))
	var depthOf func(c ref.Ref) int
	depthOf = func(c ref.Ref) int {
		if d, ok := depth[c]; ok {
			return d
		}
		depth[c] = 1 // also the cycle guard; generated sheets have no cycles
		best, from := 1, ref.Ref{}
		for _, prec := range byDep[c] {
			index.Search(prec, func(_ ref.Range, p ref.Ref) bool {
				d := depthOf(p) + 1
				if d > best || (d == best && from.Valid() && ref.ColumnMajorLess(p, from)) {
					best, from = d, p
				}
				return true
			})
		}
		depth[c], prev[c] = best, from
		return best
	}
	var deepest ref.Ref
	for _, c := range cells {
		if depthOf(c) > depth[deepest] {
			deepest = c
		}
	}
	for prev[deepest].Valid() {
		deepest = prev[deepest]
	}
	if precs := byDep[deepest]; len(precs) > 0 {
		return precs[0].Head
	}
	return deepest
}
