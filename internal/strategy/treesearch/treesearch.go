// Package treesearch implements optimal contiguous, monotone node
// search on trees — the setting of Barrière, Flocchini, Fraigniaud and
// Santoro cited as [1] by the paper, and the comparator for experiment
// X5: the broadcast tree T(d) can be searched with far fewer agents
// than the hypercube it spans, because the hypercube's non-tree edges
// leak contamination.
//
// The minimal team from a fixed homebase follows the classic rooted
// recursion: a leaf costs 1; a node with children subtree costs
// γ1 >= γ2 >= ... >= γk costs γ1 when k = 1 and max(γ1, γ2+1) when
// k >= 2 (clean the cheaper subtrees first while one agent guards the
// node, and let the guard itself descend into the most expensive
// subtree last).
//
// Execute produces an actual move schedule realizing that bound on a
// board over the tree, so the bound is verified constructively, and
// the schedule can be replayed against richer graphs (the hypercube)
// to count how badly the chords break it.
package treesearch

import (
	"sort"

	"hypersearch/internal/board"
	"hypersearch/internal/graph"
	"hypersearch/internal/metrics"
	"hypersearch/internal/trace"
)

// Name identifies the strategy in results.
const Name = "tree-search"

// Cost returns the minimal number of agents for contiguous monotone
// search of the rooted tree from its root.
func Cost(t *graph.Tree) int {
	return subtreeCost(t, t.Root())
}

func subtreeCost(t *graph.Tree, v int) int {
	children := t.Children(v)
	if len(children) == 0 {
		return 1
	}
	costs := make([]int, len(children))
	for i, c := range children {
		costs[i] = subtreeCost(t, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(costs)))
	if len(costs) == 1 {
		return costs[0]
	}
	if costs[1]+1 > costs[0] {
		return costs[1] + 1
	}
	return costs[0]
}

// Execute runs the optimal strategy on the tree and returns the
// result, the board, and the recorded trace. The agent team is exactly
// Cost(t); the execution asserts it suffices (the board panics if a
// move is illegal, and the run fails if capture or monotonicity fail).
func Execute(t *graph.Tree) (metrics.Result, *board.Board, *trace.Log) {
	ex := &executor{Sequential: trace.NewSequential(t, t.Root()), t: t}
	for i := Cost(t); i > 0; i-- {
		ex.free = append(ex.free, ex.Place())
	}
	// Seed: one agent guards the root, then the recursion cleans it.
	ex.clean(t.Root(), ex.takeFree())
	return ex.Finish(Name)
}

// executor carries the sequential execution state. Agents positions
// are tracked on the board; free agents idle inside cleaned territory.
type executor struct {
	*trace.Sequential
	t    *graph.Tree
	free []int // agents idling at the root, available for summoning
}

func (ex *executor) takeFree() int {
	if len(ex.free) == 0 {
		panic("treesearch: team exhausted — the DP bound is wrong")
	}
	a := ex.free[len(ex.free)-1]
	ex.free = ex.free[:len(ex.free)-1]
	return a
}

// release returns agent a to the root pool (walking back through clean
// territory).
func (ex *executor) release(a int) {
	ex.WalkClean(a, ex.t.Root())
	ex.free = append(ex.free, a)
}

// clean decontaminates the subtree rooted at v; on entry, agent
// `guard` stands on v (just arrived). On exit the whole subtree is
// clean and every agent used has been released back to the pool.
func (ex *executor) clean(v, guard int) {
	children := append([]int(nil), ex.t.Children(v)...)
	if len(children) == 0 {
		ex.release(guard)
		return
	}
	// Order children by cost ascending; the guard descends into the
	// most expensive child last.
	sort.Slice(children, func(i, j int) bool {
		return subtreeCost(ex.t, children[i]) < subtreeCost(ex.t, children[j])
	})
	for _, c := range children[:len(children)-1] {
		worker := ex.takeFree()
		ex.WalkClean(worker, v) // summon through clean territory
		ex.Move(worker, c)
		ex.clean(c, worker)
	}
	last := children[len(children)-1]
	ex.Move(guard, last)
	ex.clean(last, guard)
}
