package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"taco/internal/ref"
)

func mustRange(s string) ref.Range { return ref.MustRange(s) }

func TestEmptyTree(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Fatal("empty tree has entries")
	}
	if tr.Any(mustRange("A1:Z100")) {
		t.Fatal("empty tree claims overlap")
	}
	if got := tr.Collect(mustRange("A1")); len(got) != 0 {
		t.Fatalf("Collect on empty = %v", got)
	}
	if tr.Delete(mustRange("A1"), func(int) bool { return true }) {
		t.Fatal("Delete on empty returned true")
	}
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustRange("A1:A3"), "a")
	tr.Insert(mustRange("B1"), "b1")
	tr.Insert(mustRange("B2"), "b2")
	tr.Insert(mustRange("B2:B3"), "b23")
	tr.Insert(mustRange("C1"), "c1")

	got := tr.Collect(mustRange("B2"))
	sort.Strings(got)
	want := []string{"b2", "b23"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Collect(B2) = %v, want %v", got, want)
	}

	if !tr.Any(mustRange("A2")) {
		t.Fatal("A2 should overlap A1:A3")
	}
	if tr.Any(mustRange("D4")) {
		t.Fatal("D4 overlaps nothing")
	}
}

func TestDuplicateRanges(t *testing.T) {
	tr := New[int]()
	tr.Insert(mustRange("A1:A3"), 1)
	tr.Insert(mustRange("A1:A3"), 2)
	got := tr.Collect(mustRange("A1"))
	if len(got) != 2 {
		t.Fatalf("want both duplicates, got %v", got)
	}
	// Delete by payload match removes only the matching one.
	if !tr.Delete(mustRange("A1:A3"), func(v int) bool { return v == 1 }) {
		t.Fatal("delete failed")
	}
	got = tr.Collect(mustRange("A1"))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("after delete got %v", got)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := 1; i <= 50; i++ {
		tr.Insert(ref.CellRange(ref.Ref{Col: 1, Row: i}), i)
	}
	n := 0
	tr.Search(mustRange("A1:A50"), func(ref.Range, int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestAllVisitsEverything(t *testing.T) {
	tr := New[int]()
	for i := 1; i <= 200; i++ {
		tr.Insert(ref.CellRange(ref.Ref{Col: i%13 + 1, Row: i}), i)
	}
	seen := map[int]bool{}
	tr.All(func(_ ref.Range, v int) bool {
		seen[v] = true
		return true
	})
	if len(seen) != 200 {
		t.Fatalf("All visited %d entries, want 200", len(seen))
	}
}

// naive is a brute-force oracle for differential testing.
type naiveEntry struct {
	r ref.Range
	v int
}

func TestDifferentialAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New[int]()
	var naive []naiveEntry
	nextID := 0

	randR := func() ref.Range {
		a := ref.Ref{Col: 1 + rng.Intn(40), Row: 1 + rng.Intn(200)}
		b := ref.Ref{Col: a.Col + rng.Intn(3), Row: a.Row + rng.Intn(12)}
		return ref.RangeOf(a, b)
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // insert
			r := randR()
			tr.Insert(r, nextID)
			naive = append(naive, naiveEntry{r, nextID})
			nextID++
		case op < 8 && len(naive) > 0: // delete a random existing entry
			k := rng.Intn(len(naive))
			e := naive[k]
			if !tr.Delete(e.r, func(v int) bool { return v == e.v }) {
				t.Fatalf("step %d: delete of existing entry %v/%d failed", step, e.r, e.v)
			}
			naive = append(naive[:k], naive[k+1:]...)
		default: // query
			q := randR()
			got := tr.Collect(q)
			var want []int
			for _, e := range naive {
				if e.r.Overlaps(q) {
					want = append(want, e.v)
				}
			}
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("step %d: query %v -> %d results, want %d", step, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: query %v mismatch at %d: %d vs %d", step, q, i, got[i], want[i])
				}
			}
		}
		if tr.Len() != len(naive) {
			t.Fatalf("step %d: Len=%d, naive=%d", step, tr.Len(), len(naive))
		}
	}
}

// checkStructure verifies the R-tree invariants: every internal entry's
// rectangle is exactly its child's bounds, every non-root node holds
// minEntries..maxEntries entries, every leaf sits at one depth, and the
// leaves hold Len entries.
func checkStructure[T any](t *testing.T, tr *Tree[T], what string) {
	t.Helper()
	leafDepth, leaves := -1, 0
	var walk func(n *node[T], depth int)
	walk = func(n *node[T], depth int) {
		if n != tr.root && (len(n.entries) < minEntries || len(n.entries) > maxEntries) {
			t.Fatalf("%s: a node at depth %d holds %d entries", what, depth, len(n.entries))
		}
		if n.leaf {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("%s: leaves at depths %d and %d", what, leafDepth, depth)
			}
			leaves += len(n.entries)
			return
		}
		for _, e := range n.entries {
			if got := nodeRect(e.child); e.rect != got {
				t.Fatalf("%s: an entry at depth %d bounds %v, its child %v", what, depth, e.rect, got)
			}
			walk(e.child, depth+1)
		}
	}
	walk(tr.root, 0)
	if len(tr.root.entries) > maxEntries {
		t.Fatalf("%s: the root holds %d entries", what, len(tr.root.entries))
	}
	if leaves != tr.Len() {
		t.Fatalf("%s: leaves hold %d entries, Len %d", what, leaves, tr.Len())
	}
}

// TestRecycledTreeMatchesFresh runs rounds of random inserts, deletes,
// updates (an entry grown, shrunk or moved elsewhere) and searches with a
// Reset between rounds. After every op both trees pass checkStructure, and
// the recycled tree answers every search in the same order as a fresh tree
// given the same round and with the same payloads as a brute-force list;
// after each Reset no payload or child is reachable from a free node, and
// refilling the tree as the round left it allocates nothing.
func TestRecycledTreeMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	recycled := New[*int]()
	collect := func(tr *Tree[*int], q ref.Range) []*int {
		var out []*int
		tr.Search(q, func(_ ref.Range, v *int) bool {
			out = append(out, v)
			return true
		})
		return out
	}
	type item struct {
		r ref.Range
		v *int
	}
	for round := 0; round < 60; round++ {
		fresh := New[*int]()
		var list []item
		randR := func() ref.Range {
			a := ref.Ref{Col: 1 + rng.Intn(20), Row: 1 + rng.Intn(100)}
			return ref.RangeOf(a, ref.Ref{Col: a.Col + rng.Intn(3), Row: a.Row + rng.Intn(8)})
		}
		for step, n := 0, rng.Intn(400); step < n; step++ {
			switch op := rng.Intn(10); {
			case op < 6 || len(list) == 0:
				it := item{randR(), new(int)}
				*it.v = step
				recycled.Insert(it.r, it.v)
				fresh.Insert(it.r, it.v)
				list = append(list, it)
			case op < 7:
				k := rng.Intn(len(list))
				it := list[k]
				match := func(v *int) bool { return v == it.v }
				if !recycled.Delete(it.r, match) || !fresh.Delete(it.r, match) {
					t.Fatalf("round %d step %d: delete of %v failed", round, step, it.r)
				}
				list = append(list[:k], list[k+1:]...)
			case op < 8:
				k := rng.Intn(len(list))
				it := &list[k]
				r := it.r
				switch rng.Intn(3) {
				case 0: // grow along the column, as a run extended by Alg. 2
					r.Tail.Row += 1 + rng.Intn(20)
				case 1: // shrink, as a run whose end cell is cleared
					if r.Rows() > 1 {
						r.Tail.Row--
					} else if r.Cols() > 1 {
						r.Tail.Col--
					}
				default:
					r = randR()
				}
				match := func(v *int) bool { return v == it.v }
				if !recycled.Update(it.r, match, r) || !fresh.Update(it.r, match, r) {
					t.Fatalf("round %d step %d: update of %v to %v failed", round, step, it.r, r)
				}
				it.r = r
			default:
				q := randR()
				got, want := collect(recycled, q), collect(fresh, q)
				if !slices.Equal(got, want) {
					t.Fatalf("round %d step %d: search %v: recycled %d payloads, fresh %d", round, step, q, len(got), len(want))
				}
				var brute []*int
				for _, it := range list {
					if it.r.Overlaps(q) {
						brute = append(brute, it.v)
					}
				}
				byValue := func(a, b *int) int { return *a - *b }
				slices.SortFunc(got, byValue)
				slices.SortFunc(brute, byValue)
				if !slices.Equal(got, brute) {
					t.Fatalf("round %d step %d: search %v: %d payloads, brute force %d", round, step, q, len(got), len(brute))
				}
			}
			if recycled.Len() != len(list) {
				t.Fatalf("round %d step %d: Len %d, want %d", round, step, recycled.Len(), len(list))
			}
			checkStructure(t, recycled, fmt.Sprintf("round %d step %d: recycled", round, step))
			checkStructure(t, fresh, fmt.Sprintf("round %d step %d: fresh", round, step))
		}
		refill := func() {
			recycled.Reset()
			for _, it := range list {
				recycled.Insert(it.r, it.v)
			}
		}
		refill()
		if allocs := testing.AllocsPerRun(3, refill); allocs != 0 {
			t.Fatalf("round %d: refilling %d entries after Reset allocated %.0f times", round, len(list), allocs)
		}
		recycled.Reset()
		if recycled.Len() != 0 || len(recycled.root.entries) != 0 || !recycled.root.leaf {
			t.Fatalf("round %d: Reset left %d entries", round, recycled.Len())
		}
		for _, n := range append(recycled.free, recycled.root) {
			for _, e := range n.entries[:cap(n.entries)] {
				if e.value != nil || e.child != nil {
					t.Fatalf("round %d: a free node still holds %v", round, e.rect)
				}
			}
		}
	}
}

// TestUpdate moves entries in place: an Update of an absent entry (wrong
// range, or the right range with no matching payload) reports false and
// leaves every rectangle as it was, and an Update allocates nothing.
func TestUpdate(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 500; i++ {
		tr.Insert(ref.RangeOf(ref.Ref{Col: i%9 + 1, Row: i/9 + 1}, ref.Ref{Col: i%9 + 1, Row: i/9 + 2}), i)
	}
	dump := func() []ref.Range {
		var out []ref.Range
		var walk func(n *node[int])
		walk = func(n *node[int]) {
			for _, e := range n.entries {
				out = append(out, e.rect)
				if !n.leaf {
					walk(e.child)
				}
			}
		}
		walk(tr.root)
		return out
	}
	before := dump()
	all := func(int) bool { return true }
	if tr.Update(mustRange("Z1:Z2"), all, mustRange("A1")) {
		t.Fatal("Update of an absent range reported true")
	}
	if tr.Update(mustRange("A1:A2"), func(v int) bool { return v == 1 }, mustRange("A1")) {
		t.Fatal("Update with no matching payload reported true")
	}
	if !slices.Equal(before, dump()) {
		t.Fatal("a failed Update changed the tree")
	}
	// Entry 0 is A1:A2: grow it down the column and back, and move it away.
	is0 := func(v int) bool { return v == 0 }
	steps := []ref.Range{mustRange("A1:A900"), mustRange("A1"), mustRange("ZZ5000:ZZ5001"), mustRange("A1:A2")}
	prev := mustRange("A1:A2")
	for _, r := range steps {
		if !tr.Update(prev, is0, r) {
			t.Fatalf("Update %v -> %v failed", prev, r)
		}
		checkStructure(t, tr, fmt.Sprintf("after %v -> %v", prev, r))
		if got := tr.Collect(r); !slices.Contains(got, 0) {
			t.Fatalf("after %v -> %v, a search of %v misses the entry", prev, r, r)
		}
		prev = r
	}
	grow, shrink := mustRange("A1:A3000"), mustRange("A1:A2")
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Update(shrink, is0, grow)
		tr.Update(grow, is0, shrink)
	}); allocs != 0 {
		t.Fatalf("Update allocated %.1f times a pair", allocs)
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr := New[int]()
	var rs []ref.Range
	for i := 1; i <= 100; i++ {
		r := ref.CellRange(ref.Ref{Col: (i % 7) + 1, Row: i})
		rs = append(rs, r)
		tr.Insert(r, i)
	}
	for i, r := range rs {
		v := i + 1
		if !tr.Delete(r, func(x int) bool { return x == v }) {
			t.Fatalf("delete %d failed", v)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("tree not empty: %d", tr.Len())
	}
	// Tree must still be usable.
	tr.Insert(mustRange("A1"), 999)
	if got := tr.Collect(mustRange("A1")); len(got) != 1 || got[0] != 999 {
		t.Fatalf("reuse failed: %v", got)
	}
}

func TestLargeRangeQuery(t *testing.T) {
	tr := New[int]()
	for i := 1; i <= 1000; i++ {
		tr.Insert(ref.CellRange(ref.Ref{Col: i % 26 * 3 / 2 * 1, Row: i}), i)
	}
	// A query covering everything returns everything.
	got := tr.Collect(ref.Range{Head: ref.Ref{Col: 0, Row: 0}, Tail: ref.Ref{Col: 1000, Row: 10000}})
	if len(got) != 1000 {
		t.Fatalf("full query returned %d", len(got))
	}
}

func BenchmarkInsert10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := New[int]()
		for j := 0; j < 10000; j++ {
			tr.Insert(ref.CellRange(ref.Ref{Col: j%50 + 1, Row: j/50 + 1}), j)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	tr := New[int]()
	for j := 0; j < 10000; j++ {
		tr.Insert(ref.CellRange(ref.Ref{Col: j%50 + 1, Row: j/50 + 1}), j)
	}
	q := mustRange("C10:E40")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Collect(q)
	}
}
