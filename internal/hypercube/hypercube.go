// Package hypercube implements the d-dimensional hypercube topology
// H_d used by the paper: n = 2^d nodes, d*2^(d-1) edges, port labels
// λ_x(x,y) equal to the position of the differing bit, the level
// decomposition, and the class decomposition C_i of Section 4.
//
// Nodes are identified both by their bitstring (bits.Node) and by the
// dense integer index used by internal/graph; for the hypercube these
// coincide numerically, so the conversion is a cast.
//
// Two representations share the one Hypercube type:
//
//   - New(d) materializes per-node neighbour caches (n*d ints plus the
//     Definition-2 partitions and the level buckets), making the
//     slice-returning Graph interface allocation-free. Cheap through
//     mid dimensions, prohibitive past d=24 (~3 GiB).
//   - Implicit(d) stores nothing but d: every query is computed on the
//     fly by XOR bit-flips. Slice-returning accessors then allocate
//     per call, but the Visit* methods iterate allocation-free in the
//     exact same label order — the big-board engines (d >= 20, a
//     million nodes and up) run entirely on those.
//
// ForDim picks automatically: materialized up to MaterializeLimit,
// implicit beyond.
package hypercube

import (
	"fmt"

	"hypersearch/internal/bits"
	"hypersearch/internal/graph"
)

// MaterializeLimit is the largest dimension ForDim materializes
// neighbour caches for. Above it (2^16 nodes, ~8 MiB of cache) the
// implicit representation wins: no O(n*d) memory, no cache misses on
// the neighbour rows, identical iteration order.
const MaterializeLimit = 16

// MaxMaterializedDim is the hard ceiling for New: past it the caches
// alone are gigabytes. Implicit has no such ceiling below bits.MaxDim.
const MaxMaterializedDim = 24

// Hypercube is the topology H_d. It implements graph.Graph,
// graph.NeighbourVisitor and graph.EdgeChecker. The zero value is not
// usable; construct with New, Implicit or ForDim.
type Hypercube struct {
	d int
	n int
	// cache holds the materialized representation; nil means implicit
	// (every accessor computes by bit-flips on the fly).
	cache *cache
}

// cache is the materialized per-node state built by New.
type cache struct {
	// neighbours caches, per node, the d neighbours ordered by label.
	neighbours [][]int
	// smaller and bigger cache the label-partitioned neighbour lists of
	// Definition 2 (labels <= m(v) and > m(v) respectively). Both views
	// slice the same flat backing array as neighbours conceptually
	// splits it, so the strategies' per-node fan-out queries allocate
	// nothing.
	smaller [][]int
	bigger  [][]int
	// levels caches the level decomposition: levels[l] holds the
	// level-l vertices in increasing order, flat-backed.
	levels [][]int
}

// New returns the hypercube H_d with materialized neighbour caches. It
// panics for d outside [0, bits.MaxDim] and for d > MaxMaterializedDim
// — use Implicit (or ForDim) for big boards.
func New(d int) *Hypercube {
	bits.CheckDim(d)
	if d > MaxMaterializedDim {
		// 2^24 * 24 ints is already ~3 GiB; refuse silly cache sizes.
		panic(fmt.Sprintf("hypercube: dimension %d too large to materialize; use hypercube.Implicit(%d) (or ForDim) for the cache-free representation", d, d))
	}
	n := 1 << d
	h := &Hypercube{
		d: d, n: n,
		cache: &cache{
			neighbours: make([][]int, n),
			smaller:    make([][]int, n),
			bigger:     make([][]int, n),
		},
	}
	c := h.cache
	flat := make([]int, n*d)
	for v := 0; v < n; v++ {
		row := flat[v*d : (v+1)*d : (v+1)*d]
		for i := 1; i <= d; i++ {
			row[i-1] = int(bits.Flip(bits.Node(v), i))
		}
		c.neighbours[v] = row
		// The row is ordered by label, so the smaller/bigger partition
		// of Definition 2 is a split of the same backing storage at
		// m(v): labels 1..m flip set bits (or the msb), labels m+1..d
		// set higher bits.
		m := bits.Msb(bits.Node(v))
		c.smaller[v] = row[:m:m]
		c.bigger[v] = row[m:]
	}
	// Bucket vertices by level into one flat array; ascending vertex
	// order within a bucket is the increasing lexicographic order the
	// synchronizer's level walk requires.
	c.levels = make([][]int, d+1)
	levelFlat := make([]int, n)
	offsets := make([]int, d+2)
	for v := 0; v < n; v++ {
		offsets[h.Level(v)+1]++
	}
	for l := 0; l <= d; l++ {
		offsets[l+1] += offsets[l]
		c.levels[l] = levelFlat[offsets[l]:offsets[l]:offsets[l+1]]
	}
	for v := 0; v < n; v++ {
		l := h.Level(v)
		c.levels[l] = append(c.levels[l], v)
	}
	return h
}

// Implicit returns the hypercube H_d in the cache-free representation:
// O(1) memory, every neighbour computed by an XOR bit-flip on demand.
// The slice-returning accessors allocate per call; hot paths use the
// Visit* iterators, which allocate nothing and visit in the identical
// label order.
func Implicit(d int) *Hypercube {
	bits.CheckDim(d)
	return &Hypercube{d: d, n: 1 << d}
}

// ForDim returns H_d in the representation appropriate for its size:
// materialized caches up to MaterializeLimit, implicit beyond. This is
// the constructor generic callers should use.
func ForDim(d int) *Hypercube {
	if d <= MaterializeLimit {
		return New(d)
	}
	return Implicit(d)
}

// IsImplicit reports whether h is the cache-free representation.
func (h *Hypercube) IsImplicit() bool { return h.cache == nil }

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
// edge label 1..d. On the materialized representation the slice is a
// cached view (callers must not modify it); on the implicit one it is
// freshly allocated — hot paths should use VisitNeighbours instead.
func (h *Hypercube) Neighbours(v int) []int {
	if h.cache != nil {
		return h.cache.neighbours[v]
	}
	out := make([]int, h.d)
	for i := 1; i <= h.d; i++ {
		out[i-1] = v ^ 1<<(i-1)
	}
	return out
}

// VisitNeighbours implements graph.NeighbourVisitor: it calls yield
// for the d neighbours of v in increasing label order — exactly the
// order Neighbours returns — stopping early when yield returns false.
// It allocates nothing on either representation.
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
// edge, in O(1).
func (h *Hypercube) HasEdge(u, v int) bool {
	return bits.IsNeighbour(bits.Node(u), bits.Node(v))
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
// dense indices ordered by label (Definition 2). Materialized: a
// cached view (do not modify); implicit: freshly allocated — prefer
// VisitSmallerNeighbours on hot paths.
func (h *Hypercube) SmallerNeighbours(v int) []int {
	if h.cache != nil {
		return h.cache.smaller[v]
	}
	m := bits.Msb(bits.Node(v))
	out := make([]int, m)
	for i := 1; i <= m; i++ {
		out[i-1] = v ^ 1<<(i-1)
	}
	return out
}

// BiggerNeighbours returns the neighbours of v with label > m(v): the
// broadcast-tree children of v, as dense indices ordered by label.
// Materialized: a cached view (do not modify); implicit: freshly
// allocated — prefer VisitBiggerNeighbours on hot paths.
func (h *Hypercube) BiggerNeighbours(v int) []int {
	if h.cache != nil {
		return h.cache.bigger[v]
	}
	m := bits.Msb(bits.Node(v))
	out := make([]int, h.d-m)
	for i := m + 1; i <= h.d; i++ {
		out[i-m-1] = v | 1<<(i-1)
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
// increasing (lexicographic) order. Materialized: a cached view (do
// not modify); implicit: freshly allocated — prefer VisitNodesAtLevel
// on hot paths.
func (h *Hypercube) NodesAtLevel(l int) []int {
	if h.cache != nil {
		return h.cache.levels[l]
	}
	out := make([]int, 0, combinCap(h.d, l))
	bits.VisitNodesAtLevel(h.d, l, func(x bits.Node) bool {
		out = append(out, int(x))
		return true
	})
	return out
}

// combinCap sizes the implicit NodesAtLevel allocation: C(d, l),
// computed without importing combin (a cycle through graph otherwise
// threatens nothing, but the loop is three lines).
func combinCap(d, l int) int {
	if l < 0 || l > d {
		return 0
	}
	if l > d-l {
		l = d - l
	}
	c := 1
	for i := 1; i <= l; i++ {
		c = c * (d - l + i) / i
	}
	return c
}

// VisitNodesAtLevel calls yield for every level-l vertex in increasing
// (lexicographic) order — exactly the order NodesAtLevel returns —
// stopping early when yield returns false. It enumerates with Gosper's
// hack, allocation-free on both representations; the synchronizer's
// million-node level walks at d >= 20 run on it.
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
