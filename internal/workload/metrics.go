package workload

import (
	"taco/internal/core"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/rtree"
)

// This file computes the per-sheet structural metrics of the paper's Fig. 1:
// the maximum number of dependents of any single cell and the longest path
// in the formula graph, plus helpers for locating the cells that attain them
// (the Maximum Dependents and Longest Path query cases of Sec. VI-C).

// SheetMetrics summarises the formula graph of one sheet.
type SheetMetrics struct {
	// MaxDependents is the largest transitive dependent count of any root
	// cell, and MaxDependentsCell attains it.
	MaxDependents     int
	MaxDependentsCell ref.Ref
	// LongestPath is the largest number of edges on any dependency path,
	// and LongestPathCell is the root from which it starts.
	LongestPath     int
	LongestPathCell ref.Ref
}

// Metrics computes SheetMetrics from the dependency list. Roots — cells that
// appear in precedent ranges but have no dependencies of their own — seed
// both searches; for dependents, the NoComp graph supplies the transitive
// closure.
func Metrics(deps []core.Dependency) SheetMetrics {
	var m SheetMetrics
	if len(deps) == 0 {
		return m
	}

	formulaCells := make(map[ref.Ref]bool, len(deps))
	for _, d := range deps {
		formulaCells[d.Dep] = true
	}

	// Longest path via memoised DFS over formula cells: depth(c) = 1 + max
	// depth over the formula cells inside the precedents of c (data cells
	// have depth 0).
	byDep := make(map[ref.Ref][]core.Dependency, len(deps))
	for _, d := range deps {
		byDep[d.Dep] = append(byDep[d.Dep], d)
	}
	// Sorted, so that ties below break the same way on every call instead
	// of by map order.
	cells := make([]ref.Ref, 0, len(formulaCells))
	for c := range formulaCells {
		cells = append(cells, c)
	}
	sortColumnMajor(cells)
	cellIndex := rtree.New[ref.Ref]()
	for _, c := range cells {
		cellIndex.Insert(ref.CellRange(c), c)
	}
	depth := make(map[ref.Ref]int, len(formulaCells))
	var depthOf func(c ref.Ref) int
	depthOf = func(c ref.Ref) int {
		if v, ok := depth[c]; ok {
			return v
		}
		depth[c] = 0 // cycle guard; workloads are DAGs
		best := 1
		for _, d := range byDep[c] {
			// The edge itself contributes one step; extend through formula
			// cells inside the precedent.
			cellIndex.Search(d.Prec, func(_ ref.Range, p ref.Ref) bool {
				if v := depthOf(p) + 1; v > best {
					best = v
				}
				return true
			})
		}
		depth[c] = best
		return best
	}
	for _, c := range cells { // the first cell, column-major, of maximal depth
		if d := depthOf(c); d > m.LongestPath {
			m.LongestPath = d
			m.LongestPathCell = c
		}
	}
	// The query seed is the *root* of the longest path (the paper queries
	// from the cell whose update triggers the longest recalculation chain):
	// walk back from the deepest cell through precedents of strictly
	// decreasing depth — the column-major smallest where several qualify —
	// until the path starts at a data cell.
	cur := m.LongestPathCell
	for cur.Valid() {
		var next ref.Ref
		found := false
		for _, d := range byDep[cur] {
			cellIndex.Search(d.Prec, func(_ ref.Range, p ref.Ref) bool {
				if depth[p] == depth[cur]-1 && (!found || ref.ColumnMajorCompare(p, next) < 0) {
					next, found = p, true
				}
				return true
			})
		}
		if !found {
			// The path head: seed from this cell's first data precedent.
			if dlist := byDep[cur]; len(dlist) > 0 {
				m.LongestPathCell = dlist[0].Prec.Head
			} else {
				m.LongestPathCell = cur
			}
			break
		}
		cur = next
	}

	// Maximum dependents: evaluate the transitive dependent count from data
	// roots (precedent heads that are not formula cells). Trying every root
	// is quadratic on large sheets, so when there are many we take a
	// deterministic stride sample biased toward the top rows, where the
	// widest fan-outs (running totals, chains) start.
	g := nocomp.Build(deps)
	rootSet := map[ref.Ref]bool{}
	for _, d := range deps {
		if seed := d.Prec.Head; !formulaCells[seed] {
			rootSet[seed] = true
		}
	}
	roots := make([]ref.Ref, 0, len(rootSet))
	for c := range rootSet {
		roots = append(roots, c)
	}
	sortColumnMajor(roots)
	const maxProbes = 64
	if len(roots) > maxProbes {
		sampled := make([]ref.Ref, 0, maxProbes)
		// Always include the first few roots of each column.
		lastCol, taken := -1, 0
		for _, c := range roots {
			if c.Col != lastCol {
				lastCol, taken = c.Col, 0
			}
			if taken < 3 {
				sampled = append(sampled, c)
				taken++
			}
		}
		stride := len(roots) / (maxProbes - len(sampled) + 1)
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(roots) && len(sampled) < maxProbes; i += stride {
			sampled = append(sampled, roots[i])
		}
		roots = sampled
	}
	for _, seed := range roots {
		n := core.CountCells(g.FindDependents(ref.CellRange(seed)))
		if n > m.MaxDependents {
			m.MaxDependents = n
			m.MaxDependentsCell = seed
		}
	}
	return m
}
