// Package heapqueue implements the broadcast spanning tree of the
// hypercube — a heap queue T(d) in the paper's terminology
// (Definition 1) — together with the structural properties
// (Properties 1-8) the two cleaning strategies rely on.
//
// The broadcast tree of H_d is rooted at node 00...0; node x is joined
// to every node of the next level that differs from x in a position
// higher than m(x) (the most significant bit of x). Equivalently: the
// parent of x != 0 is x with its most significant bit cleared.
//
// Every structural query has a closed form in the node's bits, so a
// Tree holds nothing but d and computes each answer on the fly. The
// slice-returning Children and Leaves build a fresh slice per call;
// hot paths use VisitChildren, which allocates nothing.
package heapqueue

import (
	"fmt"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/graph"
)

// Tree is the broadcast tree of H_d, answering the paper's navigation,
// type and class queries from the node's bits.
type Tree struct {
	d int
}

// New returns the broadcast tree T(d) of H_d. It panics for d outside
// [0, bits.MaxDim].
func New(d int) *Tree {
	bits.CheckDim(d)
	return &Tree{d: d}
}

// ForDim is New. It remains for the benchmark module, which calls it.
func ForDim(d int) *Tree { return New(d) }

// Dim returns the hypercube dimension d; the root has type T(d).
func (t *Tree) Dim() int { return t.d }

// Graph builds T(d) as a rooted graph.Tree over dense hypercube vertex
// indices, from the parent rule, on every call: O(n) memory, for
// generic tree searches on small d.
func (t *Tree) Graph() *graph.Tree {
	parent := make([]int, t.Order())
	for v := 1; v < len(parent); v++ {
		parent[v] = t.Parent(v)
	}
	return graph.MustTree(0, parent)
}

// Order returns 2^d.
func (t *Tree) Order() int { return 1 << t.d }

// Root returns the root vertex (always 0).
func (t *Tree) Root() int { return 0 }

// Parent returns the tree parent of v — v with its most significant
// bit cleared — or -1 for the root.
func (t *Tree) Parent(v int) int {
	if v == 0 {
		return -1
	}
	return int(bits.Parent(bits.Node(v)))
}

// Children returns the tree children of v ordered by increasing edge
// label (equivalently, by decreasing subtree type), in a fresh slice
// the caller owns. Hot paths use VisitChildren instead.
func (t *Tree) Children(v int) []int {
	m := bits.Msb(bits.Node(v))
	out := make([]int, t.d-m)
	for i := range out {
		out[i] = v | 1<<(m+i)
	}
	return out
}

// VisitChildren calls yield for the children of v in increasing edge
// label order — exactly the order Children returns — stopping early
// when yield returns false. Allocation-free.
func (t *Tree) VisitChildren(v int, yield func(c int) bool) {
	for i := bits.Msb(bits.Node(v)); i < t.d; i++ {
		if !yield(v | 1<<i) {
			return
		}
	}
}

// Type returns k such that the subtree rooted at v is a heap queue of
// type T(k): d - m(v).
func (t *Tree) Type(v int) int { return bits.TreeType(bits.Node(v), t.d) }

// IsLeaf reports whether v is a T(0) node.
func (t *Tree) IsLeaf(v int) bool { return bits.IsTreeLeaf(bits.Node(v), t.d) }

// Depth returns the level of v (equal to its tree depth: the broadcast
// tree is a BFS tree of the hypercube).
func (t *Tree) Depth(v int) int { return bits.Level(bits.Node(v)) }

// Leaves returns all T(0) nodes in increasing vertex order: the
// vertices with their most significant bit at position d, i.e.
// [2^(d-1), 2^d), or the lone root of T(0). The slice is fresh and the
// caller owns it.
func (t *Tree) Leaves() []int {
	if t.d == 0 {
		return []int{0}
	}
	half := 1 << (t.d - 1)
	out := make([]int, half)
	for i := range out {
		out[i] = half + i
	}
	return out
}

// SubtreeSize returns the number of vertices under v (inclusive); for
// a node of type T(k) this is exactly 2^k (Definition 1).
func (t *Tree) SubtreeSize(v int) int { return 1 << t.Type(v) }

// AgentsRequired returns the agent complement a node of type T(k)
// holds under Algorithm CLEAN WITH VISIBILITY: 2^(k-1) for k >= 1 and
// 1 for a leaf (Theorem 5).
func AgentsRequired(k int) int64 {
	if k <= 0 {
		return 1
	}
	return combin.Pow2(k - 1)
}

// DispatchPlan returns, for a node of type T(k), the number of agents
// to send to each child ordered as Children() orders them (types
// T(k-1), ..., T(1), T(0)): 2^(i-1) agents to the T(i) child and one
// agent to the T(0) child. The plan sums to AgentsRequired(k) for
// k >= 1 and is empty for leaves.
func DispatchPlan(k int) []int64 {
	if k <= 0 {
		return nil
	}
	plan := make([]int64, k)
	for idx := 0; idx < k; idx++ {
		childType := k - 1 - idx
		plan[idx] = AgentsRequired(childType)
		if childType == 0 {
			plan[idx] = 1
		}
	}
	return plan
}

// PathFromRoot returns the tree path from the root to v, inclusive.
func (t *Tree) PathFromRoot(v int) []int {
	depth := t.Depth(v)
	path := make([]int, depth+1)
	for i := depth; i >= 0; i-- {
		path[i] = v
		if v != 0 {
			v = t.Parent(v)
		}
	}
	return path
}

// NextHopDown returns the child of v on the tree path from v down to
// its descendant x, or v itself when v == x. Iterating it from the
// root walks exactly PathFromRoot(x) without allocating the slice: the
// broadcast tree adds the set bits of x lowest position first. It
// panics if x is not in the subtree of v.
func (t *Tree) NextHopDown(v, x int) int {
	rest := uint32(x &^ v)
	// x descends from v iff v's bits are a subset of x's and every
	// extra bit of x lies above m(v) — checking the lowest suffices.
	if x&v != v || (rest != 0 && int(rest&-rest) <= v) {
		panic(fmt.Sprintf("heapqueue: %d is not a descendant of %d", x, v))
	}
	if rest == 0 {
		return v
	}
	return v | int(rest&-rest)
}

// CountType returns the number of type-T(k) nodes at level l
// (Property 1), computed from the tree itself; tests compare it with
// the closed form in internal/combin.
func (t *Tree) CountType(l, k int) int {
	count := 0
	for _, v := range bits.NodesAtLevel(t.d, l) {
		if t.Type(int(v)) == k {
			count++
		}
	}
	return count
}
