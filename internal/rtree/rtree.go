// Package rtree implements a Guttman R-tree with quadratic split over
// spreadsheet ranges. Every formula-graph variant in this repository uses it
// to find, for an input range, the stored ranges that overlap it — the
// primitive the paper assumes O(N) search / O(log N) insert and delete for.
// Update moves one entry's rectangle in place, so a compressed edge whose
// run grows or shrinks by a cell is refitted rather than deleted and
// reinserted.
//
// The tree is generic over the payload type so graphs can index edges,
// vertices, or result-set ranges with the same structure. A tree recycles its
// nodes: Reset keeps every node on the tree's free list, and Insert takes the
// nodes its splits need from there, so a scratch tree filled and reset once
// per query stops allocating once it has reached its largest size.
package rtree

import (
	"slices"

	"taco/internal/ref"
)

const (
	// maxEntries is Guttman's M: the maximum number of entries per node.
	maxEntries = 8
	// minEntries is Guttman's m: the minimum fill of a non-root node.
	minEntries = 3
)

// Tree is an R-tree mapping ranges to payload values. The zero value is not
// ready to use; call New.
type Tree[T any] struct {
	root *node[T]
	size int
	// free holds the nodes Reset released, their entries cleared, for Insert
	// to take before it allocates.
	free []*node[T]
}

type entry[T any] struct {
	rect  ref.Range
	child *node[T] // non-nil for internal nodes
	value T        // payload for leaf entries
}

type node[T any] struct {
	leaf    bool
	entries []entry[T]
}

// New returns an empty R-tree.
func New[T any]() *Tree[T] {
	return &Tree[T]{root: &node[T]{leaf: true}}
}

// Len returns the number of stored entries.
func (t *Tree[T]) Len() int { return t.size }

// Reset empties the tree for reuse. Every node below the root goes on the
// free list, and every node keeps its entry slice with the entries cleared,
// so no payload or child stays reachable from a free node. Repeated
// fill/reset cycles — the per-query scratch trees — stop allocating once the
// tree has reached its largest size.
func (t *Tree[T]) Reset() {
	t.release(t.root)
	t.root.leaf = true
	t.size = 0
}

// release puts every node below n on the free list and clears n's entries.
func (t *Tree[T]) release(n *node[T]) {
	if !n.leaf {
		for _, e := range n.entries {
			t.release(e.child)
			t.free = append(t.free, e.child)
		}
	}
	clear(n.entries)
	n.entries = n.entries[:0]
}

// newNode takes a node off the free list, or allocates one whose entry slice
// grows on demand as a fresh node's always has.
func (t *Tree[T]) newNode(leaf bool) *node[T] {
	if k := len(t.free) - 1; k >= 0 {
		n := t.free[k]
		t.free[k] = nil
		t.free = t.free[:k]
		n.leaf = leaf
		return n
	}
	return &node[T]{leaf: leaf}
}

// Insert adds a range/value pair. Duplicate ranges are allowed; each Insert
// stores a distinct entry.
func (t *Tree[T]) Insert(r ref.Range, v T) {
	split := t.insertRec(t.root, entry[T]{rect: r, value: v})
	t.size++
	if split != nil {
		old := t.root
		t.root = t.newNode(false)
		t.root.entries = append(t.root.entries,
			entry[T]{rect: nodeRect(old), child: old},
			entry[T]{rect: nodeRect(split), child: split})
	}
}

// insertRec inserts the leaf entry e into the subtree rooted at n. A node
// that is full when an entry arrives is split with it, in place, and the new
// sibling is returned for the caller to attach; no entry slice grows past
// maxEntries.
func (t *Tree[T]) insertRec(n *node[T], e entry[T]) *node[T] {
	if !n.leaf {
		i := chooseSubtree(n, e.rect)
		n.entries[i].rect = n.entries[i].rect.Bound(e.rect)
		split := t.insertRec(n.entries[i].child, e)
		if split == nil {
			return nil
		}
		n.entries[i].rect = nodeRect(n.entries[i].child)
		e = entry[T]{rect: nodeRect(split), child: split}
	}
	if len(n.entries) < maxEntries {
		n.entries = append(n.entries, e)
		return nil
	}
	return t.splitNode(n, e)
}

// chooseSubtree picks the child whose bounding rectangle needs the least
// enlargement to include r (ties broken by smaller area).
func chooseSubtree[T any](n *node[T], r ref.Range) int {
	best := 0
	bestGrow, bestArea := int(^uint(0)>>1), int(^uint(0)>>1)
	for i := range n.entries {
		e := &n.entries[i]
		area := e.rect.Size()
		grown := e.rect.Bound(r).Size() - area
		if grown < bestGrow || (grown == bestGrow && area < bestArea) {
			best, bestGrow, bestArea = i, grown, area
		}
	}
	return best
}

// splitNode performs Guttman's quadratic split of the full node n and the
// arriving entry extra, in a stack buffer, and returns the new sibling. The
// larger group stays in n, whose parent pointers stay valid and whose entry
// slice already has room for it; the smaller goes into a node from newNode,
// so a fresh node's slice grows only as far as its entries need.
func (t *Tree[T]) splitNode(n *node[T], extra entry[T]) *node[T] {
	var buf [maxEntries + 1]entry[T]
	ents := append(append(buf[:0], n.entries...), extra)
	// Pick seeds: the pair wasting the most area if grouped together.
	seedA, seedB, worst := 0, 1, -1
	for i := 0; i < len(ents); i++ {
		for j := i + 1; j < len(ents); j++ {
			waste := ents[i].rect.Bound(ents[j].rect).Size() - ents[i].rect.Size() - ents[j].rect.Size()
			if waste > worst {
				seedA, seedB, worst = i, j, waste
			}
		}
	}
	// group[i] is 'a' or 'b' once ents[i] is assigned.
	var group [maxEntries + 1]byte
	group[seedA], group[seedB] = 'a', 'b'
	nA, nB := 1, 1
	rectA, rectB := ents[seedA].rect, ents[seedB].rect
	for left := len(ents) - 2; left > 0; left-- {
		// Force assignment when one group must take all remaining entries to
		// reach minimum fill.
		var force byte
		switch {
		case nA+left == minEntries:
			force = 'a'
		case nB+left == minEntries:
			force = 'b'
		}
		if force != 0 {
			for i := range ents {
				if group[i] == 0 {
					group[i] = force
				}
			}
			break
		}
		// Pick the entry with maximum preference for one group.
		best, bestDiff := 0, -1
		for i, e := range ents {
			if group[i] != 0 {
				continue
			}
			diff := rectA.Bound(e.rect).Size() - rectA.Size() - (rectB.Bound(e.rect).Size() - rectB.Size())
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				best, bestDiff = i, diff
			}
		}
		r := ents[best].rect
		dA := rectA.Bound(r).Size() - rectA.Size()
		dB := rectB.Bound(r).Size() - rectB.Size()
		if dA < dB || (dA == dB && nA <= nB) {
			group[best], nA, rectA = 'a', nA+1, rectA.Bound(r)
		} else {
			group[best], nB, rectB = 'b', nB+1, rectB.Bound(r)
		}
	}
	stay := byte('a')
	if nB > nA {
		stay = 'b'
	}
	clear(n.entries)
	n.entries = n.entries[:0]
	sib := t.newNode(n.leaf)
	for i, e := range ents {
		if group[i] == stay {
			n.entries = append(n.entries, e)
		} else {
			sib.entries = append(sib.entries, e)
		}
	}
	return sib
}

func nodeRect[T any](n *node[T]) ref.Range {
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Bound(e.rect)
	}
	return r
}

// Search calls fn for every stored entry whose range overlaps q. Iteration
// stops early if fn returns false.
func (t *Tree[T]) Search(q ref.Range, fn func(ref.Range, T) bool) {
	searchNode(t.root, q, fn)
}

func searchNode[T any](n *node[T], q ref.Range, fn func(ref.Range, T) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Overlaps(q) {
			continue
		}
		if n.leaf {
			if !fn(e.rect, e.value) {
				return false
			}
		} else if !searchNode(e.child, q, fn) {
			return false
		}
	}
	return true
}

// Collect returns the values of all entries overlapping q.
func (t *Tree[T]) Collect(q ref.Range) []T {
	var out []T
	t.Search(q, func(_ ref.Range, v T) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Any reports whether at least one stored range overlaps q.
func (t *Tree[T]) Any(q ref.Range) bool {
	found := false
	t.Search(q, func(ref.Range, T) bool {
		found = true
		return false
	})
	return found
}

// Delete removes the first entry with exactly range r for which match returns
// true, reporting whether an entry was removed. Pass a match that always
// returns true to delete by range alone.
func (t *Tree[T]) Delete(r ref.Range, match func(T) bool) bool {
	var orphans []entry[T]
	if !deleteRec(t.root, r, match, &orphans) {
		return false
	}
	t.size--
	// Shrink the root if it lost all but one child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if len(t.root.entries) == 0 {
		t.root.leaf = true
	}
	// Reinsert entries orphaned by condensed nodes.
	for _, e := range orphans {
		if e.child != nil {
			reinsertSubtree(t, e.child)
		} else {
			t.size--
			t.Insert(e.rect, e.value)
		}
	}
	return true
}

// deleteRec removes the matching entry from the subtree rooted at n,
// condensing underfull children along the unwind path and collecting their
// entries as orphans for reinsertion.
func deleteRec[T any](n *node[T], r ref.Range, match func(T) bool, orphans *[]entry[T]) bool {
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			if e.rect == r && match(e.value) {
				n.entries = slices.Delete(n.entries, i, i+1)
				return true
			}
		}
		return false
	}
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Overlaps(r) {
			continue
		}
		if !deleteRec(e.child, r, match, orphans) {
			continue
		}
		if len(e.child.entries) < minEntries {
			*orphans = append(*orphans, e.child.entries...)
			n.entries = slices.Delete(n.entries, i, i+1)
		} else {
			e.rect = nodeRect(e.child)
		}
		return true
	}
	return false
}

// Update moves the first entry with exactly range old for which match returns
// true to range r, in place, reporting whether an entry was found. It
// descends only into children whose rectangle contains old and refits every
// rectangle on the way back up, so the bounds stay tight; it never splits,
// condenses or allocates. The entry keeps its leaf, so an entry grown far
// past where Insert would have put it widens its ancestors instead.
func (t *Tree[T]) Update(old ref.Range, match func(T) bool, r ref.Range) bool {
	return updateRec(t.root, old, match, r)
}

func updateRec[T any](n *node[T], old ref.Range, match func(T) bool, r ref.Range) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf {
			if e.rect == old && match(e.value) {
				e.rect = r
				return true
			}
		} else if e.rect.ContainsRange(old) && updateRec(e.child, old, match, r) {
			e.rect = nodeRect(e.child)
			return true
		}
	}
	return false
}

func reinsertSubtree[T any](t *Tree[T], n *node[T]) {
	if n.leaf {
		for _, e := range n.entries {
			t.size--
			t.Insert(e.rect, e.value)
		}
		return
	}
	for _, e := range n.entries {
		reinsertSubtree(t, e.child)
	}
}

// All calls fn for every stored entry. Iteration order is unspecified.
// It stops early if fn returns false.
func (t *Tree[T]) All(fn func(ref.Range, T) bool) {
	allNode(t.root, fn)
}

func allNode[T any](n *node[T], fn func(ref.Range, T) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf {
			if !fn(e.rect, e.value) {
				return false
			}
		} else if !allNode(e.child, fn) {
			return false
		}
	}
	return true
}
