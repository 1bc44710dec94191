// Package greedy is a frontier-minimizing heuristic for monotone
// contiguous search on arbitrary graphs: at every step it annexes the
// contaminated node whose addition keeps the guarded frontier
// smallest, summoning agents from the homebase pool on demand and
// releasing guards the moment their posts fall inside the clean
// interior.
//
// It makes no optimality promise — experiment X8 measures it against
// the exact optimum on small graphs and against the structure-aware
// strategies on the hypercube — but it is monotone and contiguous by
// construction on every connected graph, which the property tests
// exercise over random topologies.
package greedy

import (
	"fmt"
	"sort"

	"hypersearch/internal/board"
	"hypersearch/internal/graph"
	"hypersearch/internal/metrics"
	"hypersearch/internal/trace"
)

// Name identifies the strategy in results.
const Name = "greedy"

// Run executes the heuristic on g from home. The team grows on demand;
// TeamSize in the result is the high-water mark actually used.
func Run(g graph.Graph, home int) (metrics.Result, *board.Board, *trace.Log) {
	ex := &executor{
		adj:  graph.Snapshot(g),
		home: home,
		b:    board.New(g, home),
		log:  &trace.Log{},
		at:   make(map[int]int),
	}
	ex.run()
	for id := 0; id < ex.b.Agents(); id++ {
		if _, active := ex.b.Position(id); active {
			ex.b.Terminate(id, ex.clock)
			ex.log.Append(trace.Event{Time: ex.clock, Kind: trace.Terminate, Agent: id})
		}
	}
	return metrics.Result{
		Strategy:         Name,
		Nodes:            g.Order(),
		TeamSize:         ex.b.Agents(),
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

// Team returns just the team size the heuristic ends up using.
func Team(g graph.Graph, home int) int {
	r, _, _ := Run(g, home)
	return r.TeamSize
}

type executor struct {
	adj   [][]int // g's neighbour lists, snapshotted once per run
	home  int
	b     *board.Board
	log   *trace.Log
	clock int64
	at    map[int]int // guarded node -> agent id
	idle  []int       // agents parked at home, reusable
}

func (ex *executor) run() {
	// The homebase starts as the whole frontier.
	ex.at[ex.home] = ex.place()
	for {
		ex.releaseInterior()
		target := ex.pickTarget()
		if target < 0 {
			return // nothing contaminated remains
		}
		ex.annex(target)
	}
}

// pickTarget chooses the contaminated node adjacent to the clean
// region whose annexation minimizes the resulting frontier size,
// breaking ties toward smaller vertex ids for determinism. Returns -1
// when the board is clean.
func (ex *executor) pickTarget() int {
	bestV, bestScore := -1, 1<<30
	for v := range ex.adj {
		if ex.b.StateOf(v) != board.Contaminated || !ex.touchesClean(v) {
			continue
		}
		score := ex.frontierAfter(v)
		if score < bestScore {
			bestV, bestScore = v, score
		}
	}
	return bestV
}

func (ex *executor) touchesClean(v int) bool {
	for _, w := range ex.adj[v] {
		if ex.b.StateOf(w) != board.Contaminated {
			return true
		}
	}
	return false
}

// frontierAfter counts how many decontaminated nodes would still
// touch contamination if v were annexed.
func (ex *executor) frontierAfter(v int) int {
	count := 0
	for w := range ex.adj {
		if w != v && ex.b.StateOf(w) == board.Contaminated {
			continue
		}
		touches := false
		for _, u := range ex.adj[w] {
			if u != v && ex.b.StateOf(u) == board.Contaminated {
				touches = true
				break
			}
		}
		if touches {
			count++
		}
	}
	return count
}

// annex guards v, preferring to advance an adjacent guard whose post
// becomes interior once v is clean (the leapfrog that lets a path cost
// one agent); otherwise it summons an agent from the pool through the
// clean region.
func (ex *executor) annex(v int) {
	if w := ex.advanceableGuard(v); w >= 0 {
		a := ex.at[w]
		delete(ex.at, w)
		ex.move(a, v)
		ex.at[v] = a
		return
	}
	gate := -1
	for _, w := range ex.adj[v] {
		if ex.b.StateOf(w) != board.Contaminated {
			gate = w
			break
		}
	}
	if gate < 0 {
		panic(fmt.Sprintf("greedy: target %d has no clean gate", v))
	}
	a := ex.summon(gate)
	ex.move(a, v)
	ex.at[v] = a
}

// advanceableGuard returns a guarded neighbour w of v whose only
// contaminated neighbour is v itself (so moving its guard into v
// exposes nothing), or -1. Smallest vertex wins for determinism.
func (ex *executor) advanceableGuard(v int) int {
	best := -1
	for _, w := range ex.adj[v] {
		if _, ok := ex.at[w]; !ok {
			continue
		}
		clean := true
		for _, u := range ex.adj[w] {
			if u != v && ex.b.StateOf(u) == board.Contaminated {
				clean = false
				break
			}
		}
		if clean && (best < 0 || w < best) {
			best = w
		}
	}
	return best
}

// releaseInterior retires guards whose node no longer touches
// contamination: they walk home and rejoin the idle pool. Posts are
// scanned in vertex order so the schedule is deterministic.
func (ex *executor) releaseInterior() {
	var posts []int
	for v := range ex.at {
		posts = append(posts, v)
	}
	sort.Ints(posts)
	for _, v := range posts {
		touches := false
		for _, w := range ex.adj[v] {
			if ex.b.StateOf(w) == board.Contaminated {
				touches = true
				break
			}
		}
		if !touches {
			a := ex.at[v]
			delete(ex.at, v)
			ex.walkClean(a, ex.home)
			ex.idle = append(ex.idle, a)
		}
	}
}

// summon routes an idle agent (or a fresh one) to the gate node.
func (ex *executor) summon(gate int) int {
	var a int
	if len(ex.idle) > 0 {
		a = ex.idle[len(ex.idle)-1]
		ex.idle = ex.idle[:len(ex.idle)-1]
	} else {
		a = ex.place()
	}
	ex.walkClean(a, gate)
	return a
}

func (ex *executor) place() int {
	id := ex.b.Place(ex.clock)
	ex.log.Append(trace.Event{Time: ex.clock, Kind: trace.Place, Agent: id, To: ex.home, Role: "cleaner"})
	return id
}

// walkClean routes an agent through decontaminated territory.
func (ex *executor) walkClean(a, dst int) {
	from, _ := ex.b.Position(a)
	if from == dst {
		return
	}
	parent := make([]int, len(ex.adj))
	for i := range parent {
		parent[i] = -1
	}
	parent[from] = from
	queue := []int{from}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == dst {
			break
		}
		for _, w := range ex.adj[v] {
			if parent[w] < 0 && ex.b.StateOf(w) != board.Contaminated {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	if parent[dst] < 0 {
		panic(fmt.Sprintf("greedy: no clean route %d -> %d", from, dst))
	}
	var rev []int
	for x := dst; x != from; x = parent[x] {
		rev = append(rev, x)
	}
	for i := len(rev) - 1; i >= 0; i-- {
		ex.move(a, rev[i])
	}
}

func (ex *executor) move(a, to int) {
	ex.clock++
	from, _ := ex.b.Position(a)
	ex.b.Move(a, to, ex.clock)
	ex.log.Append(trace.Event{Time: ex.clock, Kind: trace.Move, Agent: a, From: from, To: to, Role: "cleaner"})
}
