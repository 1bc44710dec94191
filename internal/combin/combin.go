// Package combin provides the exact combinatorics used throughout the
// reproduction: binomial coefficients, the closed-form cost expressions
// proved in Theorems 2-8 of Flocchini, Huang and Luccio (IPPS 2005), and
// small asymptotic-fit helpers used by the experiment harness.
//
// All quantities are exact int64 computations with overflow detection;
// for the dimensions this repository simulates (d <= 30) nothing
// overflows, and the guards turn silent wraparound into a panic.
package combin

import (
	"fmt"
	"math"
)

// Binomial returns C(n, k) exactly. By convention C(n, k) = 0 when
// k < 0 or k > n, matching the paper's use of out-of-range binomials.
// It panics if n < 0 or if the result overflows int64.
func Binomial(n, k int) int64 {
	if n < 0 {
		panic(fmt.Sprintf("combin: Binomial with negative n = %d", n))
	}
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 1; i <= k; i++ {
		// c = c * (n - k + i) / i, exact at every step.
		num := int64(n - k + i)
		if c > math.MaxInt64/num {
			panic(fmt.Sprintf("combin: Binomial(%d,%d) overflows int64", n, k))
		}
		c = c * num / int64(i)
	}
	return c
}

// Pow2 returns 2^e as an int64. It panics for e outside [0, 62].
func Pow2(e int) int64 {
	if uint(e) > 62 {
		panic(pow2Range(e))
	}
	return 1 << e
}

// pow2Range is Pow2's panic value. Formatting its message only when it
// is read keeps Pow2 and its hot callers (heapqueue.AgentsRequired)
// inlinable.
type pow2Range int

func (e pow2Range) Error() string { return fmt.Sprintf("combin: Pow2(%d) out of range", int(e)) }

// NodesAtLevel returns the number of hypercube nodes at level l of H_d:
// C(d, l).
func NodesAtLevel(d, l int) int64 { return Binomial(d, l) }

// TreeNodesOfType returns the number of broadcast-tree nodes of type
// T(k) at level l of H_d (Property 1): 1 for the root (l = 0, k = d),
// and C(d-k-1, l-1) for l > 0.
func TreeNodesOfType(d, l, k int) int64 {
	if l == 0 {
		if k == d {
			return 1
		}
		return 0
	}
	if k < 0 || k > d-1 {
		return 0
	}
	return Binomial(d-k-1, l-1)
}

// TreeLeavesAtLevel returns the number of broadcast-tree leaves (type
// T(0) nodes) at level l of H_d (Property 2): C(d-1, l-1) for l > 0.
func TreeLeavesAtLevel(d, l int) int64 {
	return TreeNodesOfType(d, l, 0)
}

// ClassSize returns |C_i| for H_d (Property 5): 1 for i = 0, 2^(i-1)
// otherwise.
func ClassSize(d, i int) int64 {
	if i < 0 || i > d {
		panic(fmt.Sprintf("combin: class %d out of range [0,%d]", i, d))
	}
	if i == 0 {
		return 1
	}
	return Pow2(i - 1)
}

// CleanExtraAgents returns the number of extra agents the synchronizer
// requests from the root before cleaning from level l to level l+1 in
// Algorithm CLEAN (Lemma 3): sum over k >= 2 of (k-1) * #T(k)-at-level-l,
// which telescopes to C(d, l+1) - C(d, l) + C(d-1, l-1).
func CleanExtraAgents(d, l int) int64 {
	if l < 1 || l > d-1 {
		return 0
	}
	var sum int64
	for k := 2; k <= d-l; k++ {
		sum += int64(k-1) * TreeNodesOfType(d, l, k)
	}
	return sum
}

// CleanPhasePeak returns the number of agents simultaneously away from
// the root pool during the phase cleaning level l to level l+1 of
// Algorithm CLEAN, including the synchronizer: the C(d, l) level-l
// guards, the Lemma-3 extras, plus one.
func CleanPhasePeak(d, l int) int64 {
	return Binomial(d, l) + CleanExtraAgents(d, l) + 1
}

// CleanTeamSize returns the exact team size Algorithm CLEAN needs on
// H_d: the maximum phase peak over all phases (Theorem 2). Phase 0
// (root to level 1) needs d + 1 agents.
func CleanTeamSize(d int) int64 {
	best := int64(d) + 1
	for l := 1; l <= d-1; l++ {
		if p := CleanPhasePeak(d, l); p > best {
			best = p
		}
	}
	if d == 0 {
		return 1
	}
	return best
}

// CleanAgentMoves returns the exact number of moves performed by the
// non-synchronizer agents in Algorithm CLEAN (Theorem 3): every
// broadcast-tree leaf at level l terminates one root-to-leaf-and-back
// agent trajectory of 2l moves, totalling (d+1) * 2^(d-1).
func CleanAgentMoves(d int) int64 {
	if d == 0 {
		return 0
	}
	return int64(d+1) * Pow2(d-1)
}

// VisibilityAgents returns the team size of Algorithm CLEAN WITH
// VISIBILITY on H_d (Theorem 5): n/2 = 2^(d-1), with the degenerate
// H_0 needing a single agent.
func VisibilityAgents(d int) int64 {
	if d == 0 {
		return 1
	}
	return Pow2(d - 1)
}

// VisibilityMoves returns the exact total moves of Algorithm CLEAN WITH
// VISIBILITY (Theorem 8): each of the n/2 agents ends on a distinct
// broadcast-tree leaf, and the sum of leaf depths is (d+1) * 2^(d-2).
func VisibilityMoves(d int) int64 {
	if d == 0 {
		return 0
	}
	if d == 1 {
		return 1
	}
	return int64(d+1) * Pow2(d-2)
}

// VisibilityTime returns the ideal-time step count of Algorithm CLEAN
// WITH VISIBILITY (Theorem 7): d = log n.
func VisibilityTime(d int) int64 { return int64(d) }

// VisibilityGatherSum returns the total number of gather events in a
// CLEAN WITH VISIBILITY run — the n/2 homebase placements plus one per
// move: 2^(d-1) + (d+1)*2^(d-2) for d >= 2. The event-driven engine
// does constant work per gather, so this is also its work budget, the
// quantity the d=20 scale benchmarks are sized by; its DES events are
// fewer, one per flight of agents landing together.
func VisibilityGatherSum(d int) int64 {
	return VisibilityAgents(d) + VisibilityMoves(d)
}

// CloningMoves returns the move count of the cloning variant of the
// visibility strategy (Section 5): each broadcast-tree edge is traversed
// exactly once downward, n - 1 moves.
func CloningMoves(d int) int64 { return Pow2(d) - 1 }

// SumLeafDepths returns the sum over all broadcast-tree leaves of their
// level: sum_l l * C(d-1, l-1) = (d+1) * 2^(d-2) for d >= 2. Used by
// move-count identities in tests.
func SumLeafDepths(d int) int64 {
	var sum int64
	for l := 1; l <= d; l++ {
		sum += int64(l) * TreeLeavesAtLevel(d, l)
	}
	return sum
}

// NOverLogN returns n / log2 n = 2^d / d as a float, the paper's stated
// asymptotic for the CLEAN team size.
func NOverLogN(d int) float64 {
	if d == 0 {
		return 1
	}
	return float64(int64(1)<<d) / float64(d)
}

// NOverSqrtLogN returns n / sqrt(log2 n), the tight asymptotic of the
// central-binomial team size realized by Algorithm CLEAN.
func NOverSqrtLogN(d int) float64 {
	if d == 0 {
		return 1
	}
	return float64(int64(1)<<d) / math.Sqrt(float64(d))
}

// NLogN returns n * log2 n.
func NLogN(d int) float64 {
	return float64(int64(1)<<d) * float64(d)
}

// FitRatio returns measured[i] / model[i] for each index, used by the
// experiment harness to show that a measured series tracks a model
// within a bounded constant factor. It panics on length mismatch.
func FitRatio(measured []float64, model []float64) []float64 {
	if len(measured) != len(model) {
		panic("combin: FitRatio length mismatch")
	}
	out := make([]float64, len(measured))
	for i := range measured {
		out[i] = measured[i] / model[i]
	}
	return out
}

// MaxDeviation returns the largest |ratio - 1| over the tail (last
// `tail` entries) of a ratio series, a crude but deterministic check
// that a measured series converges onto a model.
func MaxDeviation(ratios []float64, tail int) float64 {
	if tail > len(ratios) {
		tail = len(ratios)
	}
	worst := 0.0
	for _, r := range ratios[len(ratios)-tail:] {
		if dev := math.Abs(r - 1); dev > worst {
			worst = dev
		}
	}
	return worst
}
