package core

import (
	"taco/internal/ref"
)

// BuildBulk compresses a dependency list with a streaming fast path in front
// of Alg. 2. The greedy insertion pays an R-tree candidate search per
// dependency; when dependencies arrive in column-major load order — the way
// spreadsheet files are parsed (Sec. VI-A configures POI to load by
// columns) — runs of adjacent formula cells arrive consecutively, so the
// builder extends open column runs directly and touches the R-trees once
// per *compressed* edge.
//
// The fast path makes no choice of its own: an open run grows by the
// candidate selectCandidate picks among genCompEdges' merges, and a run
// flushed while it still holds one dependency goes in through
// AddDependency, where it may join an edge on either axis. A row fill
// therefore compresses as greedy does.
func BuildBulk(deps []Dependency, opts Options) *Graph {
	g := NewGraph(opts)
	// open holds one run per reference of the formula cell at prev, in
	// reference order; a cell below prev with as many references extends
	// them pairwise.
	var open []*Edge
	var prev ref.Ref
	flushRun := func(e *Edge) {
		if e.Pattern == Single {
			g.AddDependency(Dependency{Prec: e.Prec, Dep: e.Dep.Head, HeadFixed: e.HeadFixed, TailFixed: e.TailFixed})
		} else {
			g.insertEdge(e)
		}
	}
	for i := 0; i < len(deps); {
		at := deps[i].Dep
		n := 1
		for i+n < len(deps) && deps[i+n].Dep == at {
			n++
		}
		cell := deps[i : i+n]
		i += n
		if at.Col != prev.Col || at.Row != prev.Row+1 || n != len(open) {
			for _, e := range open {
				flushRun(e)
			}
			open = open[:0]
			for _, d := range cell {
				open = append(open, singleEdge(d))
			}
			prev = at
			continue
		}
		for k, d := range cell {
			var buf [8]candidate
			if cands := g.genCompEdges(buf[:0], open[k], d, ref.AxisCol); len(cands) > 0 {
				open[k] = g.selectCandidate(cands, d).merged
			} else {
				flushRun(open[k])
				open[k] = singleEdge(d)
			}
		}
		prev = at
	}
	for _, e := range open {
		flushRun(e)
	}
	return g
}
