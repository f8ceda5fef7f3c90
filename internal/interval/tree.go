// Package interval implements the centered interval tree OpenDRC's
// sequential sweepline uses in place of a segment tree ("interval trees are
// used instead of segment trees for implementation simplicity"). The tree is
// a binary search tree over a fixed skeleton of candidate keys; an interval
// is stored in the highest node whose key it contains, and every node keeps
// its intervals in two lists — one sorted by left endpoint, one by right —
// enabling output-sensitive overlap queries.
//
// The tree is built for a known interval set (the sweepline knows every MBR
// up front), which keeps it flat: the nodes are one slice, each interval's
// node is found once at build, and a counting pass carves every node's two
// lists out of two shared slabs, so an insert shifts entries inside its
// node's segment and never allocates. Every node also counts the live
// intervals in its subtree, and a query skips subtrees whose count is zero —
// without it a query straddling many keys walks every skeleton node in its
// range, live or not.
package interval

import (
	"fmt"
	"sort"

	"opendrc/internal/radix"
)

// Entry is one stored interval with its caller-assigned identifier.
type Entry struct {
	Lo, Hi int64 // closed interval [Lo, Hi]
	ID     int
}

type node struct {
	key                 int64
	left, right, parent int32 // node indices; -1 = none
	live                int32 // intervals stored in this subtree
	// The node's lists are byLo[off:off+n] (ascending Lo) and
	// byHi[off:off+n] (descending Hi) of a segment of cap slots, one per
	// interval of the set whose node this is. Every entry contains key.
	off, n, cap int32
}

// Tree is a dynamic interval tree over a fixed coordinate skeleton and a
// fixed interval set. Build it with NewTree (or rebuild a tree's buffers
// with Reset), then Insert and Delete the set's intervals by position.
type Tree struct {
	nodes      []node
	root       int32
	size       int
	ivs        []Entry // the interval set, by position
	at         []int32 // node of each interval of the set; -1 = none contains it
	byLo, byHi []Entry // the slabs every node's lists are segments of

	keys        []int64 // the sorted, deduplicated skeleton
	perm, spare []int32 // radix sort of the skeleton keys
	stack       []int32 // query's pending right subtrees
	visited     int
}

// NewTree builds the balanced skeleton from the candidate key coordinates
// keys (duplicates allowed, any order) for the interval set ivs. Every
// interval later inserted must contain at least one of the keys —
// guaranteed when the keys include the interval endpoints.
func NewTree(keys []int64, ivs []Entry) *Tree {
	t := new(Tree)
	t.Reset(keys, ivs)
	return t
}

// Reset rebuilds the tree for a new skeleton and interval set, reusing its
// buffers; the tree is left empty. The tree keeps ivs, which must not
// change while it is in use.
func (t *Tree) Reset(keys []int64, ivs []Entry) {
	perm := grow(t.perm, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	perm, t.spare = radix.Sort(perm, t.spare, keys)
	t.perm = perm
	u := t.keys[:0]
	for _, p := range perm {
		if k := keys[p]; len(u) == 0 || k != u[len(u)-1] {
			u = append(u, k)
		}
	}
	t.keys = u
	t.nodes = t.nodes[:0]
	t.root = t.build(u, -1)
	t.size, t.visited = 0, 0

	// One descent per interval finds its node; a counting pass sizes every
	// node's segment and a prefix sum places it.
	t.ivs = ivs
	t.at = grow(t.at, len(ivs))
	for i, e := range ivs {
		idx, _ := t.locate(e.Lo, e.Hi) // -1 when none; Insert reports why
		t.at[i] = idx
		if idx >= 0 {
			t.nodes[idx].cap++
		}
	}
	var off int32
	for i := range t.nodes {
		n := &t.nodes[i]
		n.off, off = off, off+n.cap
	}
	t.byLo, t.byHi = grow(t.byLo, int(off)), grow(t.byHi, int(off))
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (t *Tree) build(keys []int64, parent int32) int32 {
	if len(keys) == 0 {
		return -1
	}
	mid := len(keys) / 2
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{key: keys[mid], parent: parent})
	l := t.build(keys[:mid], idx)
	r := t.build(keys[mid+1:], idx)
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	return idx
}

// Len returns the number of intervals currently stored.
func (t *Tree) Len() int { return t.size }

// Visited returns the number of nodes the queries since the last Reset
// entered. Subtrees holding no live interval are never entered, so a query
// costs its search paths plus the paths to the intervals it reports.
func (t *Tree) Visited() int { return t.visited }

// locate descends to the highest node whose key the interval contains.
func (t *Tree) locate(lo, hi int64) (int32, error) {
	if lo > hi {
		return -1, fmt.Errorf("interval: inverted interval [%d,%d]", lo, hi)
	}
	cur := t.root
	for cur >= 0 {
		n := &t.nodes[cur]
		switch {
		case hi < n.key:
			cur = n.left
		case lo > n.key:
			cur = n.right
		default:
			return cur, nil
		}
	}
	return -1, fmt.Errorf("interval: [%d,%d] contains no skeleton key", lo, hi)
}

// Insert stores interval i of the set. Its endpoints must be covered by the
// skeleton, and it must not be stored already.
func (t *Tree) Insert(i int) error {
	e := t.ivs[i]
	idx := t.at[i]
	if idx < 0 {
		_, err := t.locate(e.Lo, e.Hi)
		return err
	}
	n := &t.nodes[idx]
	if n.n == n.cap {
		return fmt.Errorf("interval: [%d,%d] id %d stored twice", e.Lo, e.Hi, e.ID)
	}
	// Insert in sorted position in both lists, after any equal key.
	byLo := t.byLo[n.off : n.off+n.n+1]
	j := sort.Search(int(n.n), func(k int) bool { return byLo[k].Lo > e.Lo })
	copy(byLo[j+1:], byLo[j:])
	byLo[j] = e
	byHi := t.byHi[n.off : n.off+n.n+1]
	j = sort.Search(int(n.n), func(k int) bool { return byHi[k].Hi < e.Hi })
	copy(byHi[j+1:], byHi[j:])
	byHi[j] = e
	n.n++
	t.count(idx, 1)
	return nil
}

// Delete removes interval i of the set; it reports whether the interval
// was stored. The entry is found by binary search on its endpoint within
// its node's lists.
func (t *Tree) Delete(i int) bool {
	e := t.ivs[i]
	idx := t.at[i]
	if idx < 0 {
		return false
	}
	n := &t.nodes[idx]
	byLo := t.byLo[n.off : n.off+n.n]
	j := sort.Search(len(byLo), func(k int) bool { return byLo[k].Lo >= e.Lo })
	for j < len(byLo) && byLo[j] != e && byLo[j].Lo == e.Lo {
		j++
	}
	if j == len(byLo) || byLo[j] != e {
		return false
	}
	copy(byLo[j:], byLo[j+1:])
	byHi := t.byHi[n.off : n.off+n.n]
	j = sort.Search(len(byHi), func(k int) bool { return byHi[k].Hi <= e.Hi })
	for byHi[j] != e {
		j++ // present: it is in byLo
	}
	copy(byHi[j:], byHi[j+1:])
	n.n--
	t.count(idx, -1)
	return true
}

// count adds d to the live counts on the path from node idx to the root.
func (t *Tree) count(idx int32, d int32) {
	for ; idx >= 0; idx = t.nodes[idx].parent {
		t.nodes[idx].live += d
	}
	t.size += int(d)
}

// Query visits every stored interval overlapping [lo, hi] (closed; touching
// endpoints count — zero-gap geometry interacts in DRC terms). The order is
// a preorder walk, left subtree before right. visit must not modify the
// tree.
func (t *Tree) Query(lo, hi int64, visit func(Entry)) {
	stack := t.stack[:0]
	cur := t.root
	for {
		for cur >= 0 && t.nodes[cur].live > 0 {
			n := &t.nodes[cur]
			t.visited++
			switch {
			case hi < n.key:
				// Node intervals contain key; overlap iff their Lo <= hi.
				for _, e := range t.byLo[n.off : n.off+n.n] {
					if e.Lo > hi {
						break
					}
					visit(e)
				}
				cur = n.left
			case lo > n.key:
				for _, e := range t.byHi[n.off : n.off+n.n] {
					if e.Hi < lo {
						break
					}
					visit(e)
				}
				cur = n.right
			default:
				// Query straddles the key: everything here overlaps, and both
				// subtrees may hold more.
				for _, e := range t.byLo[n.off : n.off+n.n] {
					visit(e)
				}
				if n.right >= 0 && t.nodes[n.right].live > 0 {
					stack = append(stack, n.right)
				}
				cur = n.left
			}
		}
		if len(stack) == 0 {
			break
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	}
	t.stack = stack
}
