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
// The fast path makes no choice of its own: a dependency of the cell below
// an open run's last cell extends the run in its own reference slot, or —
// when the formula's reference count changed — the first still-unused open
// run, that genCompEdges merges it into, by the candidate selectCandidate
// picks, so a run survives a change in the reference count. A run no
// dependency extended is flushed; one flushed while it still holds one
// dependency goes in through AddDependency, where it may join an edge on
// either axis. A row fill therefore compresses as greedy does.
func BuildBulk(deps []Dependency, opts Options) *Graph {
	g := NewGraph(opts)
	// open holds one run per reference of the formula cell at prev, in
	// reference order; next collects the runs of the cell being read, and an
	// extended run's slot in open is set to nil.
	var open, next []*Edge
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
		// A cell directly below with as many references as the one above
		// tries the run in each reference's own slot only, so an unchanged
		// shape costs one try a reference; a changed count tries every run
		// still open, its own slot first.
		tries := 0
		if at.Col == prev.Col && at.Row == prev.Row+1 {
			tries = len(open)
			if n == len(open) {
				tries = 1
			}
		}
		next = next[:0]
		for k, d := range cell {
			var run *Edge
			for j := 0; j < tries; j++ {
				o := (k + j) % len(open)
				if open[o] == nil {
					continue
				}
				var buf [8]candidate
				if cands := g.genCompEdges(buf[:0], open[o], d, ref.AxisCol); len(cands) > 0 {
					run, open[o] = g.selectCandidate(cands, d).merged, nil
					break
				}
			}
			if run == nil {
				run = singleEdge(d)
			}
			next = append(next, run)
		}
		for _, e := range open {
			if e != nil {
				flushRun(e)
			}
		}
		open, next = next, open
		prev = at
	}
	for _, e := range open {
		flushRun(e)
	}
	return g
}
