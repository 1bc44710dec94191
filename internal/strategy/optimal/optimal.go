// Package optimal finds the exact minimal team for contiguous,
// monotone node search on small graphs by exhaustive search over game
// states — the paper leaves the hypercube lower bound open
// (Section 5), and experiment X2 probes it on H_1..H_4.
//
// A state is (decontaminated set, multiset of agent positions). All
// agents start on the homebase. A transition moves one agent along an
// edge; the destination joins the decontaminated set; the contamination
// closure then floods every unguarded decontaminated node reachable
// from a contaminated one. Monotone search means the decontaminated
// set never shrinks, so transitions that flood anything are pruned;
// the decontaminated set then only grows, which keeps the reachable
// state space finite and layered.
//
// Because agents are indistinguishable, positions are canonicalized as
// a sorted multiset. The search is breadth-first, so the first goal
// state found also carries the minimal move count for that team size.
package optimal

import (
	"fmt"
	"sort"

	"hypersearch/internal/graph"
)

// Limits guards the exhaustive search against state-space blowups.
type Limits struct {
	MaxStates int // abort after this many distinct states (0 = 4M)
}

// Answer is the outcome for one team size.
type Answer struct {
	Team     int
	Feasible bool
	Moves    int  // minimal moves when feasible
	Aborted  bool // hit the state cap before deciding
	States   int  // states explored
}

// node count above which packing into a uint64 key would overflow.
const maxOrder = 26

// MinimalTeam searches team sizes 1, 2, ... up to maxTeam and returns
// the first feasible answer; if none is feasible the last answer is
// returned with Feasible false.
func MinimalTeam(g graph.Graph, home, maxTeam int, lim Limits) Answer {
	var last Answer
	for team := 1; team <= maxTeam; team++ {
		last = Search(g, home, team, lim)
		if last.Feasible {
			return last
		}
	}
	return last
}

// Pareto sweeps team sizes from the minimum feasible one up to maxTeam
// and returns the minimal move count at each, exposing the
// traffic-versus-team trade-off the paper's cost model cares about.
// Infeasible team sizes below the threshold are included with
// Feasible=false.
func Pareto(g graph.Graph, home, maxTeam int, lim Limits) []Answer {
	out := make([]Answer, 0, maxTeam)
	for team := 1; team <= maxTeam; team++ {
		out = append(out, Search(g, home, team, lim))
	}
	return out
}

// Search decides whether `team` agents suffice for contiguous monotone
// search of g from home, and if so the minimal number of moves.
func Search(g graph.Graph, home, team int, lim Limits) Answer {
	n := g.Order()
	if n > maxOrder {
		panic(fmt.Sprintf("optimal: graph order %d exceeds exhaustive-search limit %d", n, maxOrder))
	}
	if team < 1 {
		panic("optimal: team must be >= 1")
	}
	cap := lim.MaxStates
	if cap == 0 {
		cap = 4 << 20
	}

	full := uint32(1)<<n - 1
	start := state{mask: 1 << home, agents: canonical(repeat(home, team))}
	if start.mask == full {
		return Answer{Team: team, Feasible: true, Moves: 0, States: 1}
	}

	type entry struct {
		s     state
		moves int
	}
	adj := graph.Snapshot(g)
	seen := map[uint64]bool{start.key(n): true}
	queue := []entry{{s: start}}
	explored := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range successors(adj, cur.s) {
			k := next.key(n)
			if seen[k] {
				continue
			}
			if next.mask == full {
				return Answer{Team: team, Feasible: true, Moves: cur.moves + 1, States: explored}
			}
			seen[k] = true
			explored++
			if explored > cap {
				return Answer{Team: team, Aborted: true, States: explored}
			}
			queue = append(queue, entry{s: next, moves: cur.moves + 1})
		}
	}
	return Answer{Team: team, Feasible: false, States: explored}
}

// state is (decontaminated mask, canonical agent positions).
type state struct {
	mask   uint32
	agents []int
}

// key packs the state into a uint64: the mask in the low n bits, then
// each agent position in 5-bit fields (n <= 26 and team <= (64-n)/5).
func (s state) key(n int) uint64 {
	k := uint64(s.mask)
	shift := uint(n)
	for _, a := range s.agents {
		if shift+5 > 64 {
			panic("optimal: state does not fit a uint64 key; reduce graph or team size")
		}
		k |= uint64(a) << shift
		shift += 5
	}
	return k
}

func repeat(v, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = v
	}
	return out
}

func canonical(agents []int) []int {
	sort.Ints(agents)
	return agents
}

// successors enumerates the monotone transitions from s over the
// graph's neighbour lists adj: move one agent to a neighbour such that
// the contamination closure stays empty-handed (no decontaminated node
// floods).
func successors(adj [][]int, s state) []state {
	var out []state
	tried := map[[2]int]bool{} // (position, destination) dedup across equal agents
	for i, a := range s.agents {
		for _, w := range adj[a] {
			if tried[[2]int{a, w}] {
				continue
			}
			tried[[2]int{a, w}] = true
			next, ok := apply(adj, s, i, w)
			if ok {
				out = append(out, next)
			}
		}
	}
	return out
}

// apply moves agent index i to w and recomputes the closure; it reports
// false if the move would recontaminate (non-monotone) — such moves
// are never useful for a monotone strategy.
func apply(adj [][]int, s state, i, w int) (state, bool) {
	agents := append([]int(nil), s.agents...)
	from := agents[i]
	agents[i] = w
	mask := s.mask | 1<<uint(w)

	// Guard counts after the move.
	guarded := make([]bool, len(adj))
	for _, a := range agents {
		guarded[a] = true
	}
	// The only possible flood conduit is `from` if now unguarded.
	if !guarded[from] {
		for _, x := range adj[from] {
			if mask&(1<<uint(x)) == 0 {
				return state{}, false // from would flood: non-monotone
			}
		}
	}
	return state{mask: mask, agents: canonical(agents)}, true
}
