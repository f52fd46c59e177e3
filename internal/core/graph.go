package core

import (
	"slices"
	"sync"

	"taco/internal/ref"
	"taco/internal/rtree"
)

// Options configures a TACO graph.
type Options struct {
	// Patterns lists the enabled compression patterns in priority order.
	// Nil enables all patterns (RR-Chain, RR, RF, FR, FF) — RR-Chain first
	// because the paper's heuristic prefers the special pattern over its
	// general case.
	Patterns []PatternType
	// UseDollarCues enables the `$` dollar-sign tie-breaking heuristic of
	// Sec. IV-A.
	UseDollarCues bool
	// InRowOnly restricts compression to the TACO-InRow variant of
	// Sec. VI-B: only column runs whose formulae reference ranges in their
	// own row (derived columns) are compressed, using RR.
	InRowOnly bool
}

// DefaultOptions returns the full TACO configuration used in the paper's
// TACO-Full experiments.
func DefaultOptions() Options {
	return Options{UseDollarCues: true}
}

// InRowOptions returns the TACO-InRow configuration.
func InRowOptions() Options {
	return Options{Patterns: []PatternType{RR}, InRowOnly: true}
}

var allPatterns = []PatternType{RRChain, RR, RF, FR, FF}

func (o Options) patterns() []PatternType {
	if o.Patterns == nil {
		return allPatterns
	}
	return o.Patterns
}

// Graph is a TACO compressed formula graph. It supports adding dependencies
// one at a time (compressing greedily per Alg. 2), querying dependents and
// precedents directly on the compressed representation (Alg. 3), and
// incremental maintenance when formula cells are cleared or updated. Clear
// splits a run around the cleared cells; a dependency added back into the gap
// bridges the two pieces into one edge again, so an update (Clear, then the
// new formula's dependencies) that restores a cell's shape leaves the graph as
// compressed as it was. A run that grows or shrinks stays one edge, updated
// in place in both indexes.
//
// Graph is not safe for concurrent mutation; wrap it with a lock if needed.
type Graph struct {
	opts   Options
	edges  map[*Edge]struct{}
	byPrec *rtree.Tree[*Edge] // indexed by Edge.Prec
	byDep  *rtree.Tree[*Edge] // indexed by Edge.Dep
	// verts refcounts the distinct ranges appearing as an edge endpoint, and
	// ndeps sums Edge.Count() — both maintained on every edge insert/delete
	// so Stats reads are O(1) instead of rescanning all edges (the serving
	// layer reports graph stats on hot paths).
	verts map[ref.Range]int
	ndeps int
	// scratch pools per-traversal state (visited tree, BFS queue,
	// subtraction slices). Concurrent read-only traversals each take their
	// own scratch, so queries stay safe under a shared read lock.
	scratch sync.Pool
}

// NewGraph returns an empty TACO graph with the given options.
func NewGraph(opts Options) *Graph {
	return &Graph{
		opts:   opts,
		edges:  make(map[*Edge]struct{}),
		byPrec: rtree.New[*Edge](),
		byDep:  rtree.New[*Edge](),
		verts:  make(map[ref.Range]int),
	}
}

// Build constructs a compressed graph from a list of dependencies.
func Build(deps []Dependency, opts Options) *Graph {
	g := NewGraph(opts)
	for _, d := range deps {
		g.AddDependency(d)
	}
	return g
}

// NumEdges returns |E|, the number of (compressed) edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumDependencies returns |E'|, the number of underlying uncompressed
// dependencies represented by the graph.
func (g *Graph) NumDependencies() int { return g.ndeps }

// NumVertices returns |V|, the number of distinct ranges appearing as a
// precedent or dependent of some edge.
func (g *Graph) NumVertices() int { return len(g.verts) }

// Edges calls fn for every edge. Iteration order is unspecified.
func (g *Graph) Edges(fn func(*Edge) bool) {
	for e := range g.edges {
		if !fn(e) {
			return
		}
	}
}

// noteInsert maintains the cached vertex and dependency counts for an edge
// entering the graph. Every insertion path (incremental, bulk, snapshot
// restore) must pair it with the edge becoming visible in g.edges.
func (g *Graph) noteInsert(e *Edge) {
	g.verts[e.Prec]++
	if e.Prec != e.Dep {
		g.verts[e.Dep]++
	}
	g.ndeps += e.Count()
}

func (g *Graph) noteDelete(e *Edge) {
	decref := func(r ref.Range) {
		if g.verts[r]--; g.verts[r] <= 0 {
			delete(g.verts, r)
		}
	}
	decref(e.Prec)
	if e.Prec != e.Dep {
		decref(e.Dep)
	}
	g.ndeps -= e.Count()
}

func (g *Graph) insertEdge(e *Edge) {
	g.edges[e] = struct{}{}
	g.byPrec.Insert(e.Prec, e)
	g.byDep.Insert(e.Dep, e)
	g.noteInsert(e)
}

func (g *Graph) deleteEdge(e *Edge) {
	delete(g.edges, e)
	g.byPrec.Delete(e.Prec, func(x *Edge) bool { return x == e })
	g.byDep.Delete(e.Dep, func(x *Edge) bool { return x == e })
	g.noteDelete(e)
}

// replaceEdge turns edge e into ne in place: e keeps its identity, its place
// in g.edges and its leaf in both indexes, whose entries move to ne's ranges
// with one R-tree Update each. A run that grows or shrinks by a cell changes
// one edge's rectangles, so it costs no delete and no reinsert.
func (g *Graph) replaceEdge(e, ne *Edge) {
	match := func(x *Edge) bool { return x == e }
	g.byPrec.Update(e.Prec, match, ne.Prec)
	g.byDep.Update(e.Dep, match, ne.Dep)
	g.noteDelete(e)
	g.noteInsert(ne)
	*e = *ne
}

// candidate is one valid way to compress an inserted dependency.
type candidate struct {
	merged *Edge
	old    *Edge
	axis   ref.Axis
}

// AddDependency inserts one dependency into the compressed graph, greedily
// compressing it into an adjacent edge when a predefined pattern applies
// (Alg. 2). It reports whether the dependency was compressed into an
// existing edge (false means it was inserted as a Single edge).
//
// When the edge on the far side of d's cell extends the merged run with the
// same pattern and metadata — the other piece a Clear of that cell left —
// the two pieces are bridged into one edge, so a formula rewritten and then
// restored leaves its column as compressed as it found it.
func (g *Graph) AddDependency(d Dependency) bool {
	var buf [8]candidate
	cands := g.findCandidates(buf[:0], d)
	if len(cands) == 0 {
		g.insertEdge(singleEdge(d))
		return false
	}
	best := g.selectCandidate(cands, d)
	if far := bridge(cands, best); far != nil {
		g.deleteEdge(far)
		best.merged.Prec = best.merged.Prec.Bound(far.Prec)
		best.merged.Dep = best.merged.Dep.Bound(far.Dep)
	}
	g.replaceEdge(best.old, best.merged)
	return true
}

// bridge returns the old edge of a candidate that continues best's merged run
// on its far side along the same axis, under the same pattern and metadata,
// or nil. Adjacency is tested against the merged run, not against d's cell: a
// parallel edge on best's own side (a formula that reads one cell twice)
// overlaps the merged run and is no bridge.
func bridge(cands []candidate, best candidate) *Edge {
	for _, c := range cands {
		if c.axis == best.axis && c.merged.Pattern == best.merged.Pattern && c.merged.Meta == best.merged.Meta &&
			best.merged.Dep.Adjacent(c.old.Dep, best.axis) {
			return c.old
		}
	}
	return nil
}

// findCandidates shifts the inserted formula cell one step in all four
// directions, finds the edges whose dependent run touches the shifted cell,
// and appends to cands those that genCompEdges validates.
func (g *Graph) findCandidates(cands []candidate, d Dependency) []candidate {
	type probe struct {
		off  ref.Offset
		axis ref.Axis
	}
	probes := [4]probe{
		{ref.Offset{DCol: 0, DRow: -1}, ref.AxisCol},
		{ref.Offset{DCol: 0, DRow: 1}, ref.AxisCol},
		{ref.Offset{DCol: -1, DRow: 0}, ref.AxisRow},
		{ref.Offset{DCol: 1, DRow: 0}, ref.AxisRow},
	}
	// The probes return a handful of edges, so a linear scan dedups them
	// without allocating.
	var seenBuf [16]*Edge
	seen := seenBuf[:0]
	for _, pr := range probes {
		shifted := ref.CellRange(d.Dep.Add(pr.off))
		if !shifted.Head.Valid() {
			continue
		}
		g.byDep.Search(shifted, func(_ ref.Range, e *Edge) bool {
			if slices.Contains(seen, e) {
				return true
			}
			seen = append(seen, e)
			cands = g.genCompEdges(cands, e, d, pr.axis)
			return true
		})
	}
	return cands
}

// genCompEdges tries to compress d into candidate edge e along axis,
// appending the valid merged edges to cands (the paper's genCompEdges).
func (g *Graph) genCompEdges(cands []candidate, e *Edge, d Dependency, axis ref.Axis) []candidate {
	try := func(p PatternType) {
		if merged := AddDep(e, d, p, axis); merged != nil && g.allowed(merged) {
			cands = append(cands, candidate{merged: merged, old: e, axis: axis})
		}
	}
	if e.Pattern != Single {
		try(e.Pattern)
		return cands
	}
	for _, p := range g.opts.patterns() {
		try(p)
	}
	return cands
}

// allowed applies variant restrictions (TACO-InRow).
func (g *Graph) allowed(e *Edge) bool {
	if !g.opts.InRowOnly {
		return true
	}
	return e.Pattern == RR && e.Axis == ref.AxisCol &&
		e.Meta.HRel.DRow == 0 && e.Meta.TRel.DRow == 0
}

// selectCandidate applies the paper's heuristics, in order: column-wise
// compression over row-wise; a special pattern over its general case
// (RR-Chain over RR); then the dollar-sign cues of the inserted formula,
// when available. Ties resolve to the largest resulting edge, then stably.
func (g *Graph) selectCandidate(cands []candidate, d Dependency) candidate {
	score := func(c candidate) int {
		s := 0
		if c.axis == ref.AxisCol {
			s += 1 << 12
		}
		if c.merged.Pattern == RRChain {
			s += 1 << 8
		}
		if g.opts.UseDollarCues && cueMatch(c.merged.Pattern, d) {
			s += 1 << 4
		}
		return s
	}
	slices.SortStableFunc(cands, func(a, b candidate) int {
		if sa, sb := score(a), score(b); sa != sb {
			return sb - sa
		}
		return b.merged.Count() - a.merged.Count()
	})
	return cands[0]
}

// cueMatch reports whether the pattern agrees with the autofill rule implied
// by the dependency's `$` markers: no anchors -> RR, tail anchored -> RF,
// head anchored -> FR, both anchored -> FF.
func cueMatch(p PatternType, d Dependency) bool {
	switch {
	case !d.HeadFixed && !d.TailFixed:
		return p == RR || p == RRChain
	case !d.HeadFixed && d.TailFixed:
		return p == RF
	case d.HeadFixed && !d.TailFixed:
		return p == FR
	default:
		return p == FF
	}
}

// FindDependents returns the set of ranges transitively dependent on r,
// computed directly on the compressed graph with the modified BFS of Alg. 3.
// The returned ranges are disjoint and cover exactly the dependent cells.
func (g *Graph) FindDependents(r ref.Range) []ref.Range {
	return g.traverse(r, true, nil)
}

// FindPrecedents returns the set of ranges that r transitively depends on —
// the dual traversal, walking edges from dependents to precedents.
func (g *Graph) FindPrecedents(r ref.Range) []ref.Range {
	return g.traverse(r, false, nil)
}

// TraversalStats instruments one traversal for the Sec. IV-D cost analysis:
// the complexity of Alg. 3 depends on whether each compressed edge is
// accessed at most once (Case 1) or repeatedly (Case 2). The paper reports
// the average accesses per touched edge is <= 7 for 98% of its query tests,
// which is why Case 2's worst case does not bite in practice.
type TraversalStats struct {
	// EdgeAccesses counts findDep/findPrec invocations.
	EdgeAccesses int
	// DistinctEdges counts the edges touched at least once.
	DistinctEdges int
}

// MeanAccessesPerEdge returns EdgeAccesses / DistinctEdges (0 when no edge
// was touched).
func (t TraversalStats) MeanAccessesPerEdge() float64 {
	if t.DistinctEdges == 0 {
		return 0
	}
	return float64(t.EdgeAccesses) / float64(t.DistinctEdges)
}

// FindDependentsStats is FindDependents with traversal instrumentation.
func (g *Graph) FindDependentsStats(r ref.Range) ([]ref.Range, TraversalStats) {
	var stats TraversalStats
	out := g.traverse(r, true, &stats)
	return out, stats
}

// traverseScratch is the reusable per-traversal state: the visited index,
// the BFS queue, and the two slices a reached range is cut in — the visited
// ranges it overlaps, and the parts of it left after subtracting them. The
// visited tree recycles its nodes on Reset and every slice keeps its
// capacity, so through the graph's pool one traversal's storage serves the
// next and the query path allocates nothing in steady state but its answer.
type traverseScratch struct {
	visited *rtree.Tree[struct{}]
	queue   []ref.Range
	overlap []ref.Range
	parts   []ref.Range
}

func (g *Graph) getScratch() *traverseScratch {
	if s, ok := g.scratch.Get().(*traverseScratch); ok {
		return s
	}
	return &traverseScratch{visited: rtree.New[struct{}]()}
}

func (g *Graph) putScratch(s *traverseScratch) {
	s.visited.Reset()
	s.queue = s.queue[:0]
	g.scratch.Put(s)
}

// traverse runs Alg. 3 from r, forward to dependents or backward to
// precedents. Only a non-nil stats pays for the instrumentation: the set of
// distinct edges is built for it alone.
func (g *Graph) traverse(r ref.Range, forward bool, stats *TraversalStats) []ref.Range {
	var result []ref.Range
	var touched map[*Edge]struct{}
	if stats != nil {
		touched = make(map[*Edge]struct{})
	}
	s := g.getScratch()
	defer g.putScratch(s)
	index := g.byPrec
	if !forward {
		index = g.byDep
	}
	s.queue = append(s.queue, r)
	for head := 0; head < len(s.queue); head++ {
		cur := s.queue[head]
		index.Search(cur, func(_ ref.Range, e *Edge) bool {
			if stats != nil {
				stats.EdgeAccesses++
				touched[e] = struct{}{}
			}
			var next ref.Range
			var ok bool
			if forward {
				next, ok = FindDeps(e, cur)
			} else {
				next, ok = FindPrecs(e, cur)
			}
			if !ok {
				return true
			}
			// Keep only the parts not yet visited.
			s.overlap = s.overlap[:0]
			s.visited.Search(next, func(seen ref.Range, _ struct{}) bool {
				s.overlap = append(s.overlap, seen)
				return true
			})
			s.parts = next.SubtractAll(s.parts[:0], s.overlap)
			for _, part := range s.parts {
				s.visited.Insert(part, struct{}{})
				result = append(result, part)
				s.queue = append(s.queue, part)
			}
			return true
		})
	}
	if stats != nil {
		stats.DistinctEdges = len(touched)
	}
	return result
}

// CountCells sums the sizes of a set of disjoint ranges — the number of
// dependent (or precedent) cells a traversal found.
func CountCells(rs []ref.Range) int {
	n := 0
	for _, r := range rs {
		n += r.Size()
	}
	return n
}

// Clear removes the dependencies of every formula cell inside s — the
// maintenance operation of Sec. IV-C (an update is modelled as Clear followed
// by AddDependency for the new formula's references). An edge cut short keeps
// its identity and moves its index entries in place; only the second piece
// of a split is inserted, and only an edge with nothing left is deleted.
func (g *Graph) Clear(s ref.Range) {
	var relevant []*Edge
	g.byDep.Search(s, func(_ ref.Range, e *Edge) bool {
		relevant = append(relevant, e)
		return true
	})
	for _, e := range relevant {
		pieces := RemoveDeps(e, s)
		if len(pieces) == 0 {
			g.deleteEdge(e)
			continue
		}
		g.replaceEdge(e, pieces[0])
		for _, ne := range pieces[1:] {
			g.insertEdge(ne)
		}
	}
}

// PatternStat aggregates compression effectiveness per pattern (Table V).
type PatternStat struct {
	// Edges is the number of compressed edges using the pattern.
	Edges int
	// Reduced is the number of uncompressed edges eliminated by the pattern:
	// sum over its edges of (|E'_i| - 1).
	Reduced int
}

// PatternStats returns per-pattern compression statistics.
func (g *Graph) PatternStats() map[PatternType]PatternStat {
	out := make(map[PatternType]PatternStat, numPatterns)
	for e := range g.edges {
		st := out[e.Pattern]
		st.Edges++
		st.Reduced += e.Count() - 1
		out[e.Pattern] = st
	}
	return out
}

// Stats summarises the graph for the size experiments (Tables II-IV).
type Stats struct {
	Vertices     int
	Edges        int
	Dependencies int
}

// Stats returns the graph's size statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Vertices:     g.NumVertices(),
		Edges:        g.NumEdges(),
		Dependencies: g.NumDependencies(),
	}
}
