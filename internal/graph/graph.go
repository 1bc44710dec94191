// Package graph provides the topology-generic substrate the search
// strategies and invariant checkers are written against: a Graph
// interface, adjacency-list graphs, trees, and the classic traversals
// (BFS, DFS, connectivity, shortest paths).
//
// Node identifiers are dense integers [0, Order()): the hypercube
// package maps its bitstring nodes onto this space directly, and the
// checkers in internal/board work for any Graph.
package graph

import "fmt"

// Graph is a finite undirected graph over dense integer vertices
// 0..Order()-1. Implementations must return neighbour slices that the
// caller may read but not modify.
type Graph interface {
	// Order returns the number of vertices.
	Order() int
	// Neighbours returns the vertices adjacent to v.
	Neighbours(v int) []int
}

// Sized is an optional extension reporting the number of edges without
// a full scan.
type Sized interface {
	// Size returns the number of undirected edges.
	Size() int
}

// NeighbourVisitor is an optional extension for graphs that can
// enumerate neighbours without materializing a slice — implicit
// topologies compute them on the fly (the hypercube by XOR bit-flips).
// Implementations must visit neighbours in the same order Neighbours
// returns them (for the hypercube: increasing edge label) and stop as
// soon as yield returns false. Determinism of every engine in this
// repository depends on that iteration order being fixed.
type NeighbourVisitor interface {
	VisitNeighbours(v int, yield func(w int) bool)
}

// EdgeChecker is an optional extension for graphs with an O(1)
// adjacency test (the hypercube: one XOR and a popcount). Hot paths
// resolve it once instead of scanning neighbour lists per query.
type EdgeChecker interface {
	HasEdge(u, v int) bool
}

// VisitNeighbours iterates the neighbours of v through the
// NeighbourVisitor fast path when g provides one, falling back to
// ranging over Neighbours. yield returns false to stop early.
func VisitNeighbours(g Graph, v int, yield func(w int) bool) {
	if nv, ok := g.(NeighbourVisitor); ok {
		nv.VisitNeighbours(v, yield)
		return
	}
	for _, w := range g.Neighbours(v) {
		if !yield(w) {
			return
		}
	}
}

// Snapshot returns g's neighbour lists, one per vertex, each in the
// order Neighbours returns it. Exhaustive searches that scan the same
// neighbourhoods many times take one snapshot per call, so their inner
// loops neither allocate nor make an interface call per visit.
func Snapshot(g Graph) [][]int {
	adj := make([][]int, g.Order())
	for v := range adj {
		adj[v] = g.Neighbours(v)
	}
	return adj
}

// HasEdge reports whether (u, v) is an edge of g, using the
// EdgeChecker fast path when available.
func HasEdge(g Graph, u, v int) bool {
	if ec, ok := g.(EdgeChecker); ok {
		return ec.HasEdge(u, v)
	}
	for _, w := range g.Neighbours(u) {
		if w == v {
			return true
		}
	}
	return false
}

// Size returns the number of undirected edges of g, using the Sized
// fast path when available.
func Size(g Graph) int {
	if s, ok := g.(Sized); ok {
		return s.Size()
	}
	total := 0
	for v := 0; v < g.Order(); v++ {
		total += len(g.Neighbours(v))
	}
	return total / 2
}

// Adjacency is a mutable adjacency-list graph.
type Adjacency struct {
	adj [][]int
}

// NewAdjacency returns an empty graph with n vertices and no edges.
func NewAdjacency(n int) *Adjacency {
	if n < 0 {
		panic("graph: negative order")
	}
	return &Adjacency{adj: make([][]int, n)}
}

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate
// edges are rejected with a panic: the search model assumes a simple
// graph.
func (g *Adjacency) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	for _, w := range g.adj[u] {
		if w == v {
			panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", u, v))
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

func (g *Adjacency) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, len(g.adj)))
	}
}

// Order implements Graph.
func (g *Adjacency) Order() int { return len(g.adj) }

// Neighbours implements Graph.
func (g *Adjacency) Neighbours(v int) []int {
	g.check(v)
	return g.adj[v]
}

// Size implements Sized.
func (g *Adjacency) Size() int {
	total := 0
	for _, ns := range g.adj {
		total += len(ns)
	}
	return total / 2
}

// HasEdge reports whether (u, v) is an edge.
func (g *Adjacency) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// BFS runs a breadth-first traversal from src and returns the distance
// (in edges) from src to every vertex, with -1 for unreachable vertices.
func BFS(g Graph, src int) []int {
	dist := make([]int, g.Order())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbours(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// ShortestPath returns one shortest path from src to dst inclusive, or
// nil if dst is unreachable.
func ShortestPath(g Graph, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	parent := make([]int, g.Order())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbours(v) {
			if parent[w] < 0 {
				parent[w] = v
				if w == dst {
					return unwind(parent, src, dst)
				}
				queue = append(queue, w)
			}
		}
	}
	return nil
}

func unwind(parent []int, src, dst int) []int {
	rev := []int{dst}
	for v := dst; v != src; v = parent[v] {
		rev = append(rev, parent[v])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Connected reports whether g is connected (the empty graph counts as
// connected).
func Connected(g Graph) bool {
	n := g.Order()
	if n == 0 {
		return true
	}
	dist := BFS(g, 0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// SubsetConnected reports whether the sub-graph of g induced by the
// vertex set `in` (in[v] == true keeps v) is connected. The empty
// subset counts as connected.
func SubsetConnected(g Graph, in []bool) bool {
	n := g.Order()
	start := -1
	count := 0
	for v := 0; v < n; v++ {
		if in[v] {
			count++
			if start < 0 {
				start = v
			}
		}
	}
	if count == 0 {
		return true
	}
	seen := make([]bool, n)
	seen[start] = true
	reached := 1
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbours(v) {
			if in[w] && !seen[w] {
				seen[w] = true
				reached++
				queue = append(queue, w)
			}
		}
	}
	return reached == count
}

// Reachable returns the set of vertices reachable from any seed without
// entering a blocked vertex. Blocked seeds contribute nothing. The
// result marks reachable vertices true; blocked vertices are never
// marked.
func Reachable(g Graph, seeds []int, blocked []bool) []bool {
	seen := make([]bool, g.Order())
	queue := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if !blocked[s] && !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbours(v) {
			if !blocked[w] && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// IsTree reports whether g is connected and acyclic.
func IsTree(g Graph) bool {
	return Connected(g) && Size(g) == g.Order()-1
}

// DFSOrder returns the vertices of g in preorder of a depth-first
// traversal from src, visiting neighbours in adjacency order. Vertices
// unreachable from src are omitted.
func DFSOrder(g Graph, src int) []int {
	seen := make([]bool, g.Order())
	order := make([]int, 0, g.Order())
	var rec func(v int)
	rec = func(v int) {
		seen[v] = true
		order = append(order, v)
		for _, w := range g.Neighbours(v) {
			if !seen[w] {
				rec(w)
			}
		}
	}
	rec(src)
	return order
}
