package trace

import (
	"fmt"

	"hypersearch/internal/board"
	"hypersearch/internal/graph"
	"hypersearch/internal/metrics"
)

// Sequential is the executor the sequential strategies share: one
// board and its log. Agents act one at a time on the board's clock;
// each move takes one step, and placements and moves are recorded as
// a cleaner's.
type Sequential struct {
	B   *board.Board
	log *Log

	// WalkClean's BFS scratch, reused across walks.
	parent []int
	queue  []int
}

// NewSequential starts a sequential run on g from home.
func NewSequential(g graph.Graph, home int) *Sequential {
	return &Sequential{B: board.New(g, home), log: &Log{}}
}

// Place creates an agent on the homebase at the current step and
// returns its id.
func (s *Sequential) Place() int {
	now := s.B.Now()
	id := s.B.Place(now)
	s.log.Append(Event{Time: now, Kind: Place, Agent: id, To: s.B.Home(), Role: "cleaner"})
	return id
}

// Move advances the clock one step and moves agent a to the
// neighbouring node to.
func (s *Sequential) Move(a, to int) {
	now := s.B.Now() + 1
	from := s.B.Move(a, to, now)
	s.log.Append(Event{Time: now, Kind: Move, Agent: a, From: from, To: to, Role: "cleaner"})
}

// WalkClean moves agent a to dst along a shortest route through
// decontaminated nodes, one Move per edge. Guards block nothing:
// transit through guarded nodes is allowed. It panics when no such
// route exists, which a contiguous strategy never lets happen.
func (s *Sequential) WalkClean(a, dst int) {
	from, _ := s.B.Position(a)
	if from == dst {
		return
	}
	g := s.B.Graph()
	if len(s.parent) != g.Order() {
		s.parent = make([]int, g.Order())
	}
	parent := s.parent
	for i := range parent {
		parent[i] = -1
	}
	parent[from] = from
	s.queue = append(s.queue[:0], from)
	for head := 0; head < len(s.queue) && parent[dst] < 0; head++ {
		for _, w := range g.Neighbours(s.queue[head]) {
			if parent[w] < 0 && s.B.StateOf(w) != board.Contaminated {
				parent[w] = s.queue[head]
				s.queue = append(s.queue, w)
			}
		}
	}
	if parent[dst] < 0 {
		panic(fmt.Sprintf("trace: no clean route %d -> %d for agent %d", from, dst, a))
	}
	// Reuse the queue for the route, dst first.
	route := s.queue[:0]
	for x := dst; x != from; x = parent[x] {
		route = append(route, x)
	}
	for i := len(route) - 1; i >= 0; i-- {
		s.Move(a, route[i])
	}
}

// Terminate retires agent a in place at the current step.
func (s *Sequential) Terminate(a int) {
	now := s.B.Now()
	s.B.Terminate(a, now)
	s.log.Append(Event{Time: now, Kind: Terminate, Agent: a})
}

// Finish terminates every still-active agent in id order and returns
// the run's result, its final board and its log.
func (s *Sequential) Finish(name string) (metrics.Result, *board.Board, *Log) {
	for id := 0; id < s.B.Agents(); id++ {
		if _, active := s.B.Position(id); active {
			s.Terminate(id)
		}
	}
	return s.B.Result(name), s.B, s.log
}
