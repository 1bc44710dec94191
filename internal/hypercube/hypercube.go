// Package hypercube implements the d-dimensional hypercube topology
// H_d used by the paper: n = 2^d nodes, d*2^(d-1) edges, port labels
// λ_x(x,y) equal to the position of the differing bit, the level
// decomposition, and the class decomposition C_i of Section 4.
//
// Nodes are identified both by their bitstring (bits.Node) and by the
// dense integer index used by internal/graph; for the hypercube these
// coincide numerically, so the conversion is a cast.
//
// A Hypercube holds nothing but d: every query is computed from the
// node's bits (the neighbour across label i is v XOR 2^(i-1)), so a
// topology of any dimension up to bits.MaxDim costs O(1) memory. The
// slice-returning accessors build a fresh slice per call; hot paths use
// the Visit* iterators, which allocate nothing and visit in the same
// order.
package hypercube

import (
	"fmt"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/graph"
)

// Hypercube is the topology H_d. It implements graph.Graph,
// graph.NeighbourVisitor and graph.EdgeChecker. The zero value is not
// usable; construct with New.
type Hypercube struct {
	d int
	n int
}

// New returns the hypercube H_d. It panics for d outside
// [0, bits.MaxDim].
func New(d int) *Hypercube {
	bits.CheckDim(d)
	return &Hypercube{d: d, n: 1 << d}
}

// ForDim is New. It remains for the benchmark module, which calls it.
func ForDim(d int) *Hypercube { return New(d) }

// Dim returns the dimension d.
func (h *Hypercube) Dim() int { return h.d }

// Order implements graph.Graph: 2^d nodes.
func (h *Hypercube) Order() int { return h.n }

// Size implements graph.Sized: d * 2^(d-1) edges.
func (h *Hypercube) Size() int {
	if h.d == 0 {
		return 0
	}
	return h.d * (h.n / 2)
}

// Neighbours implements graph.Graph: the d neighbours of v ordered by
// edge label 1..d, in a fresh slice the caller owns. Hot paths use
// VisitNeighbours instead.
func (h *Hypercube) Neighbours(v int) []int {
	out := make([]int, h.d)
	for i := range out {
		out[i] = v ^ 1<<i
	}
	return out
}

// VisitNeighbours implements graph.NeighbourVisitor: it calls yield
// for the d neighbours of v in increasing label order — exactly the
// order Neighbours returns — stopping early when yield returns false.
// It allocates nothing.
func (h *Hypercube) VisitNeighbours(v int, yield func(w int) bool) {
	for i := 0; i < h.d; i++ {
		if !yield(v ^ 1<<i) {
			return
		}
	}
}

// Neighbour returns the neighbour of v across the edge labelled i
// (1-based): one XOR, no memory access.
func (h *Hypercube) Neighbour(v, i int) int { return v ^ 1<<(i-1) }

// HasEdge implements graph.EdgeChecker: whether (u, v) is a hypercube
// edge, in O(1). A label outside [0, 2^d) is no node of H_d, so it has
// no edge, even where its bits differ from the other label's in one.
func (h *Hypercube) HasEdge(u, v int) bool {
	return uint(u) < uint(h.n) && uint(v) < uint(h.n) && bits.IsNeighbour(bits.Node(u), bits.Node(v))
}

// Node converts a dense vertex index to its bitstring identifier.
func (h *Hypercube) Node(v int) bits.Node { return bits.Node(v) }

// Index converts a bitstring identifier to its dense vertex index.
func (h *Hypercube) Index(x bits.Node) int { return int(x) }

// Label returns the port label λ_v(v, w) of the edge between
// neighbouring vertices v and w.
func (h *Hypercube) Label(v, w int) int {
	return bits.Label(bits.Node(v), bits.Node(w))
}

// Level returns the level of vertex v (number of one-bits).
func (h *Hypercube) Level(v int) int { return bits.Level(bits.Node(v)) }

// Class returns the class index i such that v is in C_i.
func (h *Hypercube) Class(v int) int { return bits.Class(bits.Node(v)) }

// SmallerNeighbours returns the neighbours of v with label <= m(v), as
// dense indices ordered by label (Definition 2), in a fresh slice the
// caller owns. Hot paths use VisitSmallerNeighbours instead.
func (h *Hypercube) SmallerNeighbours(v int) []int {
	out := make([]int, bits.Msb(bits.Node(v)))
	for i := range out {
		out[i] = v ^ 1<<i
	}
	return out
}

// BiggerNeighbours returns the neighbours of v with label > m(v): the
// broadcast-tree children of v, as dense indices ordered by label, in
// a fresh slice the caller owns. Hot paths use VisitBiggerNeighbours
// instead.
func (h *Hypercube) BiggerNeighbours(v int) []int {
	m := bits.Msb(bits.Node(v))
	out := make([]int, h.d-m)
	for i := range out {
		out[i] = v | 1<<(m+i)
	}
	return out
}

// VisitSmallerNeighbours calls yield for the neighbours of v with
// label <= m(v) in increasing label order, allocation-free. (The loop
// is written out rather than delegated to bits so no adapter closure
// is built per call.)
func (h *Hypercube) VisitSmallerNeighbours(v int, yield func(w int) bool) {
	m := bits.Msb(bits.Node(v))
	for i := 0; i < m; i++ {
		if !yield(v ^ 1<<i) {
			return
		}
	}
}

// VisitBiggerNeighbours calls yield for the neighbours of v with
// label > m(v) — v's broadcast-tree children — in increasing label
// order, allocation-free.
func (h *Hypercube) VisitBiggerNeighbours(v int, yield func(w int) bool) {
	for i := bits.Msb(bits.Node(v)); i < h.d; i++ {
		if !yield(v | 1<<i) {
			return
		}
	}
}

// NodesAtLevel returns the dense indices of the level-l vertices in
// increasing (lexicographic) order, in a fresh slice the caller owns.
// Hot paths use VisitNodesAtLevel instead.
func (h *Hypercube) NodesAtLevel(l int) []int {
	out := make([]int, 0, combin.Binomial(h.d, l))
	h.VisitNodesAtLevel(l, func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// VisitNodesAtLevel calls yield for every level-l vertex in increasing
// (lexicographic) order — exactly the order NodesAtLevel returns —
// stopping early when yield returns false. It enumerates with Gosper's
// hack, allocation-free; the synchronizer's million-node level walks at
// d >= 20 run on it.
func (h *Hypercube) VisitNodesAtLevel(l int, yield func(v int) bool) {
	if l < 0 || l > h.d {
		panic(fmt.Sprintf("hypercube: level %d out of range [0,%d]", l, h.d))
	}
	if l == 0 {
		yield(0)
		return
	}
	for v, limit := bits.Node(1)<<l-1, bits.Node(1)<<h.d; v < limit; v = bits.NextAtLevel(v) {
		if !yield(int(v)) {
			return
		}
	}
}

// NodesInClass returns the dense indices of class C_i in increasing
// order.
func (h *Hypercube) NodesInClass(i int) []int {
	ns := bits.NodesInClass(h.d, i)
	out := make([]int, len(ns))
	for j, x := range ns {
		out[j] = int(x)
	}
	return out
}

// ShortestPath returns a shortest hypercube path between vertices v and
// w (inclusive), correcting low-position bits first and clearing before
// setting, as the synchronizer's router does.
func (h *Hypercube) ShortestPath(v, w int) []int {
	p := bits.HammingPath(bits.Node(v), bits.Node(w), h.d)
	out := make([]int, len(p))
	for i, x := range p {
		out[i] = int(x)
	}
	return out
}

// NextHopToward returns the neighbour of v that is the next vertex on
// ShortestPath(v, w), or v itself when v == w. Iterating it walks
// exactly the vertices ShortestPath returns without allocating the
// path slice; agents use it for step-by-step routing.
func (h *Hypercube) NextHopToward(v, w int) int {
	return int(bits.NextHopToward(bits.Node(v), bits.Node(w)))
}

// Distance returns the hypercube (Hamming) distance between v and w.
func (h *Hypercube) Distance(v, w int) int {
	return bits.HammingDistance(bits.Node(v), bits.Node(w))
}

// String renders vertex v as a d-bit binary string.
func (h *Hypercube) String(v int) string { return bits.String(bits.Node(v), h.d) }

var _ graph.Graph = (*Hypercube)(nil)
var _ graph.Sized = (*Hypercube)(nil)
var _ graph.NeighbourVisitor = (*Hypercube)(nil)
var _ graph.EdgeChecker = (*Hypercube)(nil)
