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
		Sequential: trace.NewSequential(g, home),
		adj:        graph.Snapshot(g),
		at:         make(map[int]int),
	}
	ex.run()
	return ex.Finish(Name)
}

// Team returns just the team size the heuristic ends up using.
func Team(g graph.Graph, home int) int {
	r, _, _ := Run(g, home)
	return r.TeamSize
}

type executor struct {
	*trace.Sequential
	adj  [][]int     // g's neighbour lists, snapshotted once per run
	at   map[int]int // guarded node -> agent id
	idle []int       // agents parked at home, reusable
}

func (ex *executor) run() {
	// The homebase starts as the whole frontier.
	ex.at[ex.B.Home()] = ex.Place()
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
		if ex.B.StateOf(v) != board.Contaminated || !ex.touchesClean(v) {
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
		if ex.B.StateOf(w) != board.Contaminated {
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
		if w != v && ex.B.StateOf(w) == board.Contaminated {
			continue
		}
		touches := false
		for _, u := range ex.adj[w] {
			if u != v && ex.B.StateOf(u) == board.Contaminated {
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
		ex.Move(a, v)
		ex.at[v] = a
		return
	}
	gate := -1
	for _, w := range ex.adj[v] {
		if ex.B.StateOf(w) != board.Contaminated {
			gate = w
			break
		}
	}
	if gate < 0 {
		panic(fmt.Sprintf("greedy: target %d has no clean gate", v))
	}
	a := ex.summon(gate)
	ex.Move(a, v)
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
			if u != v && ex.B.StateOf(u) == board.Contaminated {
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
			if ex.B.StateOf(w) == board.Contaminated {
				touches = true
				break
			}
		}
		if !touches {
			a := ex.at[v]
			delete(ex.at, v)
			ex.WalkClean(a, ex.B.Home())
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
		a = ex.Place()
	}
	ex.WalkClean(a, gate)
	return a
}
