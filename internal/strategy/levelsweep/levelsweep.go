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
		adj:    graph.Snapshot(g),
		home:   home,
		b:      board.New(g, home),
		log:    &trace.Log{},
		levels: levels,
		at:     make(map[int]int),
	}
	team := Team(g, home)
	for i := 0; i < team; i++ {
		id := ex.b.Place(0)
		ex.log.Append(trace.Event{Time: 0, Kind: trace.Place, Agent: id, To: home, Role: "cleaner"})
		ex.pool = append(ex.pool, id)
	}
	ex.sweep()
	for id := 0; id < ex.b.Agents(); id++ {
		if _, active := ex.b.Position(id); active {
			ex.b.Terminate(id, ex.clock)
			ex.log.Append(trace.Event{Time: ex.clock, Kind: trace.Terminate, Agent: id})
		}
	}
	return metrics.Result{
		Strategy:         Name,
		Nodes:            g.Order(),
		TeamSize:         team,
		PeakAway:         ex.b.PeakAway(),
		AgentMoves:       ex.b.Moves(),
		TotalMoves:       ex.b.Moves(),
		Makespan:         ex.clock,
		Recontaminations: ex.b.Recontaminations(),
		MonotoneOK:       ex.b.MonotoneViolations() == 0,
		ContiguousOK:     ex.b.Contiguous(),
		Captured:         ex.b.AllClean(),
	}, ex.b, ex.log
}

type executor struct {
	adj    [][]int // g's neighbour lists, snapshotted once per run
	home   int
	b      *board.Board
	log    *trace.Log
	levels []int
	clock  int64
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
	ex.at[ex.home] = guard

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
			ex.walkThroughClean(a, gate)
			ex.move(a, v)
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
			ex.walkThroughClean(a, ex.home)
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

// walkThroughClean routes agent a to dst through decontaminated
// territory only (guards block nothing: transit is allowed through
// guarded nodes).
func (ex *executor) walkThroughClean(a, dst int) {
	from, _ := ex.b.Position(a)
	if from == dst {
		return
	}
	path := ex.cleanPath(from, dst)
	if path == nil {
		panic(fmt.Sprintf("levelsweep: no clean path %d -> %d", from, dst))
	}
	for _, v := range path[1:] {
		ex.move(a, v)
	}
}

// cleanPath is a BFS restricted to decontaminated nodes.
func (ex *executor) cleanPath(src, dst int) []int {
	parent := make([]int, len(ex.adj))
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == dst {
			var rev []int
			for x := dst; x != src; x = parent[x] {
				rev = append(rev, x)
			}
			rev = append(rev, src)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return rev
		}
		for _, w := range ex.adj[v] {
			if parent[w] < 0 && ex.b.StateOf(w) != board.Contaminated {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

func (ex *executor) move(a, to int) {
	ex.clock++
	from, _ := ex.b.Position(a)
	ex.b.Move(a, to, ex.clock)
	ex.log.Append(trace.Event{Time: ex.clock, Kind: trace.Move, Agent: a, From: from, To: to, Role: "cleaner"})
}
