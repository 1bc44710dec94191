// Package levelsweep is the generic ancestor of Algorithm CLEAN: a
// monotone contiguous search for an arbitrary graph that cleans BFS
// level by BFS level from the homebase, keeping two consecutive levels
// guarded while the frontier advances.
//
// Team size is max over l of |L_l| + |L_{l+1}| + 1 (the levels being
// swapped, plus a courier), which is within a factor two of the
// hypercube-tuned Algorithm CLEAN — experiment X8 measures the gap the
// paper's structure exploitation buys. On a path it degenerates to two
// agents, on a mesh to about two columns.
//
// The schedule is sequential and deterministic: before any level-l
// guard departs, every level-(l+1) node is guarded (couriers walk from
// the pool through cleaned territory); only then do level-l agents
// retire to the pool. Monotonicity is therefore structural, and the
// executor asserts it on the board.
package levelsweep

import (
	"fmt"

	"hypersearch/internal/board"
	"hypersearch/internal/graph"
	"hypersearch/internal/metrics"
	"hypersearch/internal/trace"
)

// Name identifies the strategy in results.
const Name = "level-sweep"

// Team returns the team size the sweep provisions for g from home.
func Team(g graph.Graph, home int) int {
	levels := graph.BFS(g, home)
	sizes := levelSizes(levels)
	best := 1
	for l := 0; l < len(sizes); l++ {
		next := 0
		if l+1 < len(sizes) {
			next = sizes[l+1]
		}
		if sizes[l]+next+1 > best {
			best = sizes[l] + next + 1
		}
	}
	return best
}

func levelSizes(levels []int) []int {
	max := -1
	for _, l := range levels {
		if l > max {
			max = l
		}
	}
	sizes := make([]int, max+1)
	for _, l := range levels {
		if l >= 0 {
			sizes[l]++
		}
	}
	return sizes
}

// Run executes the sweep on g from home, returning the result, the
// final board, and the trace. The graph must be connected.
func Run(g graph.Graph, home int) (metrics.Result, *board.Board, *trace.Log) {
	levels := graph.BFS(g, home)
	for v, l := range levels {
		if l < 0 {
			panic(fmt.Sprintf("levelsweep: vertex %d unreachable from home", v))
		}
	}
	ex := &executor{
		Sequential: trace.NewSequential(g, home),
		adj:        graph.Snapshot(g),
		levels:     levels,
		at:         make(map[int]int),
	}
	for i := Team(g, home); i > 0; i-- {
		ex.pool = append(ex.pool, ex.Place())
	}
	ex.sweep()
	return ex.Finish(Name)
}

type executor struct {
	*trace.Sequential
	adj    [][]int // g's neighbour lists, snapshotted once per run
	levels []int
	pool   []int       // idle agents parked at home
	at     map[int]int // guarded node -> agent id
}

// sweep advances level by level: guard all of level l+1, then retire
// level l's guards to the pool.
func (ex *executor) sweep() {
	maxLevel := 0
	for _, l := range ex.levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	// Level 0 is the home, guarded by the parked pool itself; register
	// one explicit guard so retirement logic is uniform.
	guard := ex.take()
	ex.at[ex.B.Home()] = guard

	for l := 0; l < maxLevel; l++ {
		// Guard every level-(l+1) node. Couriers walk from home
		// through decontaminated territory to a guarded level-l
		// neighbour, then step across.
		for v := range ex.adj {
			if ex.levels[v] != l+1 {
				continue
			}
			gate := ex.gateFor(v, l)
			a := ex.take()
			ex.WalkClean(a, gate)
			ex.Move(a, v)
			ex.at[v] = a
		}
		// Retire level-l guards: their neighbours are now all guarded
		// or clean, so departure cannot recontaminate.
		for v := range ex.adj {
			if ex.levels[v] != l {
				continue
			}
			a, ok := ex.at[v]
			if !ok {
				panic(fmt.Sprintf("levelsweep: level-%d node %d unguarded", l, v))
			}
			delete(ex.at, v)
			ex.WalkClean(a, ex.B.Home())
			ex.pool = append(ex.pool, a)
		}
	}
}

// gateFor returns a guarded level-l neighbour of the level-(l+1) node v.
func (ex *executor) gateFor(v, l int) int {
	for _, w := range ex.adj[v] {
		if ex.levels[w] == l {
			if _, ok := ex.at[w]; ok {
				return w
			}
		}
	}
	panic(fmt.Sprintf("levelsweep: no guarded gate into node %d", v))
}

func (ex *executor) take() int {
	if len(ex.pool) == 0 {
		panic("levelsweep: pool exhausted — Team() undercounts")
	}
	a := ex.pool[len(ex.pool)-1]
	ex.pool = ex.pool[:len(ex.pool)-1]
	return a
}
