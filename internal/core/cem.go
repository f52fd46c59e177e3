package core

import (
	"sort"

	"taco/internal/ref"
)

// This file implements an exact solver for the Compressed Edge Minimization
// (CEM) problem of Sec. IV-A. CEM is NP-hard (Theorem 1, by reduction from
// rectilinear picture compression), so the solver enumerates set partitions
// — a Bell-number search — and is only usable for tiny inputs. Its purpose
// is to ground-truth the greedy compressor in tests and in the cem bench.

// MaxExactCEM is the largest dependency count ExactCEM accepts; Bell(12) is
// already ~4.2M partitions.
const MaxExactCEM = 12

// ExactCEM returns the minimum number of compressed edges over every
// partition of deps where each class is either a single dependency or
// compressible by one of the enabled patterns, along with one optimal
// partition (as dependency indices per class). It returns -1 when len(deps)
// exceeds MaxExactCEM.
func ExactCEM(deps []Dependency, opts Options) (int, [][]int) {
	n := len(deps)
	if n == 0 {
		return 0, nil
	}
	if n > MaxExactCEM {
		return -1, nil
	}
	best := n + 1
	var bestPart [][]int
	part := make([][]int, 0, n)

	var rec func(i int)
	rec = func(i int) {
		if len(part) >= best {
			return // prune: already no better than the best found
		}
		if i == n {
			if len(part) < best {
				best = len(part)
				bestPart = clonePartition(part)
			}
			return
		}
		// Place dep i into an existing class...
		for k := range part {
			part[k] = append(part[k], i)
			if classCompressible(deps, part[k], opts) {
				rec(i + 1)
			}
			part[k] = part[k][:len(part[k])-1]
		}
		// ...or start a new class.
		part = append(part, []int{i})
		rec(i + 1)
		part = part[:len(part)-1]
	}
	rec(0)
	return best, bestPart
}

func clonePartition(part [][]int) [][]int {
	out := make([][]int, len(part))
	for i, c := range part {
		out[i] = append([]int(nil), c...)
	}
	return out
}

// classCompressible reports whether the dependencies at the given indices can
// be compressed into one edge by some enabled pattern (or form a singleton).
func classCompressible(deps []Dependency, idx []int, opts Options) bool {
	if len(idx) <= 1 {
		return true
	}
	for _, axis := range []ref.Axis{ref.AxisCol, ref.AxisRow} {
		for _, p := range opts.patterns() {
			if classFitsPattern(deps, idx, p, axis) {
				return true
			}
		}
	}
	return false
}

// classFitsPattern checks whether inserting the class's dependencies in run
// order builds a single edge under pattern p along axis.
func classFitsPattern(deps []Dependency, idx []int, p PatternType, axis ref.Axis) bool {
	ordered := append([]int(nil), idx...)
	sort.Slice(ordered, func(a, b int) bool {
		da, db := deps[ordered[a]].Dep, deps[ordered[b]].Dep
		if axis == ref.AxisCol {
			if da.Col != db.Col {
				return da.Col < db.Col
			}
			return da.Row < db.Row
		}
		if da.Row != db.Row {
			return da.Row < db.Row
		}
		return da.Col < db.Col
	})
	e := singleEdge(deps[ordered[0]])
	for _, i := range ordered[1:] {
		merged := AddDep(e, deps[i], p, axis)
		if merged == nil {
			return false
		}
		e = merged
	}
	return true
}

// ---------------------------------------------------------------------------
// RR-GapOne prevalence analysis (Sec. V).
// ---------------------------------------------------------------------------

// GapOneReduction estimates how many edges the RR-GapOne extended pattern —
// RR applied to the formula cells of every other row — would additionally
// remove, mirroring the paper's prevalence measurement. It scans the
// dependencies grouped by column and counts, for each maximal stride-2 run of
// cells with identical relative offsets, run length minus one.
//
// The paper reports this number to justify *not* integrating RR-GapOne: it
// removes ~100x fewer edges than plain RR on real data.
func GapOneReduction(deps []Dependency) int {
	// Group single-reference offsets by (column, parity of row), and index
	// offsets per cell so runs already covered by plain adjacent RR (the
	// intermediate row continues the same pattern) are not double-counted.
	type key struct {
		col    int
		parity int
	}
	type rels struct{ h, t ref.Offset }
	offsets := map[ref.Ref][]rels{}
	for _, d := range deps {
		h, t := d.rel()
		offsets[d.Dep] = append(offsets[d.Dep], rels{h, t})
	}
	hasSameRel := func(c ref.Ref, want rels) bool {
		for _, r := range offsets[c] {
			if r == want {
				return true
			}
		}
		return false
	}
	byCol := map[key][]Dependency{}
	for _, d := range deps {
		k := key{col: d.Dep.Col, parity: d.Dep.Row % 2}
		byCol[k] = append(byCol[k], d)
	}
	reduced := 0
	for _, list := range byCol {
		sort.Slice(list, func(a, b int) bool { return list[a].Dep.Row < list[b].Dep.Row })
		runLen := 1
		for i := 1; i < len(list); i++ {
			prevH, prevT := list[i-1].rel()
			curH, curT := list[i].rel()
			cur := rels{curH, curT}
			mid := ref.Ref{Col: list[i].Dep.Col, Row: list[i].Dep.Row - 1}
			if list[i].Dep.Row == list[i-1].Dep.Row+2 &&
				prevH == curH && prevT == curT && !hasSameRel(mid, cur) {
				runLen++
				continue
			}
			if runLen > 1 {
				reduced += runLen - 1
			}
			runLen = 1
		}
		if runLen > 1 {
			reduced += runLen - 1
		}
	}
	return reduced
}
