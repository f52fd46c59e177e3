// Package nocomp implements the paper's NoComp baseline (Sec. IV-D): an
// uncompressed formula graph stored as an adjacency list with an R-tree over
// the vertices. Every dependency is one edge; finding dependents or
// precedents is a conventional BFS that, unlike TACO, must visit each
// dependency individually.
package nocomp

import (
	"taco/internal/core"
	"taco/internal/ref"
	"taco/internal/rtree"
)

// Edge is one uncompressed dependency edge.
type Edge struct {
	Prec ref.Range
	Dep  ref.Ref
}

// Graph is the uncompressed formula graph.
type Graph struct {
	byPrec *rtree.Tree[*Edge]
	byDep  *rtree.Tree[*Edge]
}

// NewGraph returns an empty uncompressed graph.
func NewGraph() *Graph {
	return &Graph{
		byPrec: rtree.New[*Edge](),
		byDep:  rtree.New[*Edge](),
	}
}

// Build constructs the graph from a dependency list.
func Build(deps []core.Dependency) *Graph {
	g := NewGraph()
	for _, d := range deps {
		g.AddDependency(d)
	}
	return g
}

// AddDependency inserts one dependency (always as its own edge).
func (g *Graph) AddDependency(d core.Dependency) {
	e := &Edge{Prec: d.Prec, Dep: d.Dep}
	g.byPrec.Insert(e.Prec, e)
	g.byDep.Insert(ref.CellRange(e.Dep), e)
}

// NumEdges returns |E'|.
func (g *Graph) NumEdges() int { return g.byDep.Len() }

// NumVertices returns |V'|: the number of distinct ranges among precedents
// and dependent cells.
func (g *Graph) NumVertices() int {
	seen := make(map[ref.Range]struct{}, 2*g.NumEdges())
	g.byDep.All(func(dep ref.Range, e *Edge) bool {
		seen[e.Prec] = struct{}{}
		seen[dep] = struct{}{}
		return true
	})
	return len(seen)
}

// FindDependents returns the transitive dependent cells of r as disjoint
// ranges (each dependent is a single formula cell, so the result is a list
// of 1x1 ranges).
func (g *Graph) FindDependents(r ref.Range) []ref.Range {
	var result []ref.Range
	visited := map[ref.Ref]bool{}
	queue := []ref.Range{r}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		g.byPrec.Search(cur, func(_ ref.Range, e *Edge) bool {
			if !visited[e.Dep] {
				visited[e.Dep] = true
				c := ref.CellRange(e.Dep)
				result = append(result, c)
				queue = append(queue, c)
			}
			return true
		})
	}
	return result
}

// FindPrecedents returns the transitive precedent ranges of r. Because
// precedents are ranges, the visited set needs the same rectangle
// subtraction bookkeeping TACO uses.
func (g *Graph) FindPrecedents(r ref.Range) []ref.Range {
	var result, overlapping, parts []ref.Range
	visited := rtree.New[struct{}]()
	queue := []ref.Range{r}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		g.byDep.Search(cur, func(_ ref.Range, e *Edge) bool {
			overlapping = overlapping[:0]
			visited.Search(e.Prec, func(seen ref.Range, _ struct{}) bool {
				overlapping = append(overlapping, seen)
				return true
			})
			parts = e.Prec.SubtractAll(parts[:0], overlapping)
			for _, part := range parts {
				visited.Insert(part, struct{}{})
				result = append(result, part)
				queue = append(queue, part)
			}
			return true
		})
	}
	return result
}

// Clear removes every dependency whose formula cell lies in s.
func (g *Graph) Clear(s ref.Range) {
	var doomed []*Edge
	g.byDep.Search(s, func(_ ref.Range, e *Edge) bool {
		if s.Contains(e.Dep) {
			doomed = append(doomed, e)
		}
		return true
	})
	for _, e := range doomed {
		g.byPrec.Delete(e.Prec, func(x *Edge) bool { return x == e })
		g.byDep.Delete(ref.CellRange(e.Dep), func(x *Edge) bool { return x == e })
	}
}
