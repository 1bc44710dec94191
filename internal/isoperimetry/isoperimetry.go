// Package isoperimetry derives lower bounds on the team size of any
// monotone contiguous search strategy from vertex-isoperimetric
// inequalities, addressing the open problem the paper closes with
// ("is Ω(n/log n) a lower bound?").
//
// The argument: in a monotone contiguous strategy the decontaminated
// set S only grows, and at every instant each node of S adjacent to a
// contaminated node must be guarded (an unguarded decontaminated node
// with a contaminated neighbour floods immediately). The guarded nodes
// therefore cover the inner vertex boundary of S, so
//
//	team >= max over 1 <= k < n of  min over |S| = k of |∂_in(S)|.
//
// The inner-boundary minimum over arbitrary k-sets is a classical
// quantity. On the hypercube, Harper's theorem says Hamming balls
// minimize it; for k equal to the volume of the ball of radius r the
// minimum inner boundary is the top sphere C(d, r). Taking k = |ball of
// radius d/2| gives
//
//	team >= C(d, floor(d/2)) = Θ(n / sqrt(log n)),
//
// which answers the paper's open problem for monotone strategies: the
// true bound is Θ(n/√log n), not the conjectured Ω(n/log n) — and the
// coordinated Algorithm CLEAN is asymptotically optimal among monotone
// strategies, with a constant-factor gap measured in experiment X7.
//
// For tiny graphs the package also computes the exact bound by brute
// force over all vertex subsets, which tests compare against the
// exhaustive strategy search in internal/strategy/optimal.
package isoperimetry

import (
	"fmt"
	"math/bits"

	"hypersearch/internal/combin"
	"hypersearch/internal/graph"
)

// HypercubeLowerBound returns the Harper-ball lower bound on the team
// size of any monotone contiguous search of H_d: the largest sphere
// C(d, r) realized as the inner boundary of a Hamming ball whose
// volume stays below 2^d. This is C(d, floor(d/2)) for every d >= 1.
func HypercubeLowerBound(d int) int64 {
	if d <= 0 {
		return 1
	}
	best := int64(1)
	volume := int64(0)
	for r := 0; r < d; r++ {
		volume += combin.Binomial(d, r)
		// The ball of radius r (volume counted above) has inner
		// boundary exactly its top sphere C(d, r) once it is a proper
		// subset; the bound is the largest such sphere.
		if volume < combin.Pow2(d) {
			if s := combin.Binomial(d, r); s > best {
				best = s
			}
		}
	}
	return best
}

// InnerBoundary returns the number of vertices of S (given as a
// bitmask over a graph of order <= 30) that have a neighbour outside S.
func InnerBoundary(g graph.Graph, set uint32) int {
	return innerBoundary(graph.Snapshot(g), set)
}

// innerBoundary is InnerBoundary over the graph's neighbour lists adj.
func innerBoundary(adj [][]int, set uint32) int {
	count := 0
	for v, nbrs := range adj {
		if set&(1<<uint(v)) == 0 {
			continue
		}
		for _, w := range nbrs {
			if set&(1<<uint(w)) == 0 {
				count++
				break
			}
		}
	}
	return count
}

// ExactMonotoneLowerBound computes, by exhaustive enumeration of all
// vertex subsets, the exact isoperimetric lower bound
//
//	max_{1 <= k < n} min_{|S| = k} |∂_in(S)|
//
// for graphs of order <= 24. Connectivity of S is NOT required, so the
// result is a valid (possibly loose) lower bound for the contiguous
// problem too.
func ExactMonotoneLowerBound(g graph.Graph) int {
	n := g.Order()
	if n > 24 {
		panic(fmt.Sprintf("isoperimetry: exact bound limited to order 24, got %d", n))
	}
	if n <= 1 {
		return 1
	}
	minBoundary := make([]int, n) // index k-1: min boundary over |S| = k
	for k := range minBoundary {
		minBoundary[k] = n + 1
	}
	adj := graph.Snapshot(g)
	for set := uint32(1); set < uint32(1)<<n-1; set++ {
		k := bits.OnesCount32(set)
		b := innerBoundary(adj, set)
		if b < minBoundary[k-1] {
			minBoundary[k-1] = b
		}
	}
	best := 1
	for k := 1; k < n; k++ {
		if minBoundary[k-1] > best && minBoundary[k-1] <= n {
			best = minBoundary[k-1]
		}
	}
	return best
}

// HammingBallBoundaries returns, for each radius r in [0, d), the
// volume of the Hamming ball of radius r and its inner boundary (the
// sphere C(d, r)), the curve behind HypercubeLowerBound. Used by the
// X7 experiment table.
func HammingBallBoundaries(d int) []BallRow {
	rows := make([]BallRow, 0, d)
	volume := int64(0)
	for r := 0; r < d; r++ {
		volume += combin.Binomial(d, r)
		rows = append(rows, BallRow{Radius: r, Volume: volume, Boundary: combin.Binomial(d, r)})
	}
	return rows
}

// BallRow is one radius of the Harper-ball curve.
type BallRow struct {
	Radius   int
	Volume   int64 // |ball(r)|
	Boundary int64 // inner boundary = C(d, r)
}
