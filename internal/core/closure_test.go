package core

import (
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"testing"

	"hypersearch/internal/board"
	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/trace"
)

// The closure oracle checks the board's contamination bookkeeping
// against a brute-force model written from the paper's definitions
// alone. Every golden-table DES run is replayed event by event into a
// fresh board.Board and into the model, and the two must agree on
// every node's state and agent count, the recontamination and
// monotonicity-violation totals, capture and contiguity.
//
// The model shares no code with board or hypercube: its adjacency is
// every pair of labels at Hamming distance one, its counts are plain
// ints, and after every event it recomputes the intruder's closure
// from scratch. An unguarded decontaminated node with a contaminated
// neighbour is recontaminated, over all nodes, until nothing changes.
// A recontamination of a node that was unguarded and decontaminated
// after an earlier closure is a monotonicity violation, the
// recontamination of clean territory that Flocchini et al.'s
// inert-fugitive analysis counts against a strategy.

// closureModel is the brute-force reference of one run.
type closureModel struct {
	n, home          int
	adj              [][]int // node -> neighbours, from popcount(u^v) == 1
	agents           []int   // node -> agents standing on it
	decon            []bool  // node -> decontaminated
	stable           []bool  // unguarded and decontaminated after a closure, not recontaminated since
	pos              []int   // recorded agent id -> node
	recontaminations int64
	violations       int64
}

// hammingAdjacency lists, for every node of H_d, the nodes whose
// labels differ from it in exactly one bit, by testing all pairs.
func hammingAdjacency(d int) [][]int {
	n := 1 << d
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if mathbits.OnesCount(uint(u^v)) == 1 {
				adj[u] = append(adj[u], v)
			}
		}
	}
	return adj
}

func newClosureModel(adj [][]int, home int) *closureModel {
	n := len(adj)
	m := &closureModel{
		n:      n,
		home:   home,
		adj:    adj,
		agents: make([]int, n),
		decon:  make([]bool, n),
		stable: make([]bool, n),
	}
	m.decon[home] = true
	return m
}

// apply performs one recorded event, then the intruder's closure.
func (m *closureModel) apply(t *testing.T, e trace.Event) {
	t.Helper()
	switch e.Kind {
	case trace.Place:
		m.arrive(e.Agent, m.home)
	case trace.Clone:
		if m.agents[e.To] == 0 {
			t.Fatalf("event %d: clone on node %d, which holds no agent", e.Seq, e.To)
		}
		m.arrive(e.Agent, e.To)
	case trace.Move:
		from := m.pos[e.Agent]
		if from != e.From || mathbits.OnesCount(uint(e.From^e.To)) != 1 {
			t.Fatalf("event %d: agent %d on node %d cannot move %d->%d", e.Seq, e.Agent, from, e.From, e.To)
		}
		m.agents[from]--
		m.pos[e.Agent] = e.To
		m.agents[e.To]++
		m.decon[e.To] = true
	case trace.Terminate:
		// The agent stays on its node as a guard.
	default:
		t.Fatalf("event %d: unknown kind %q", e.Seq, e.Kind)
	}
	m.close()
}

// arrive creates agent id on node v, which its arrival decontaminates.
func (m *closureModel) arrive(id, v int) {
	for len(m.pos) <= id {
		m.pos = append(m.pos, -1)
	}
	m.pos[id] = v
	m.agents[v]++
	m.decon[v] = true
}

// close recontaminates until no unguarded decontaminated node has a
// contaminated neighbour, then marks every unguarded decontaminated
// node stably clean.
func (m *closureModel) close() {
	for changed := true; changed; {
		changed = false
		for v := 0; v < m.n; v++ {
			if !m.decon[v] || m.agents[v] > 0 {
				continue
			}
			for _, w := range m.adj[v] {
				if !m.decon[w] {
					m.decon[v] = false
					m.recontaminations++
					if m.stable[v] {
						m.violations++
					}
					m.stable[v] = false
					changed = true
					break
				}
			}
		}
	}
	for v := 0; v < m.n; v++ {
		if m.decon[v] && m.agents[v] == 0 {
			m.stable[v] = true
		}
	}
}

func (m *closureModel) state(v int) board.State {
	switch {
	case m.agents[v] > 0:
		return board.Guarded
	case m.decon[v]:
		return board.Clean
	default:
		return board.Contaminated
	}
}

func (m *closureModel) allClean() bool {
	for _, d := range m.decon {
		if !d {
			return false
		}
	}
	return true
}

// contiguous reports whether the decontaminated nodes induce a
// connected subgraph, by its own breadth-first search.
func (m *closureModel) contiguous() bool {
	total, start := 0, -1
	for v, d := range m.decon {
		if d {
			total++
			if start < 0 {
				start = v
			}
		}
	}
	if total == 0 {
		return true
	}
	seen := make([]bool, m.n)
	seen[start] = true
	queue := []int{start}
	for head := 0; head < len(queue); head++ {
		for _, w := range m.adj[queue[head]] {
			if m.decon[w] && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(queue) == total
}

// compare fails the test where the board and the model disagree.
func (m *closureModel) compare(t *testing.T, where string, seq int, b *board.Board) {
	t.Helper()
	for v := 0; v < m.n; v++ {
		if got, want := b.StateOf(v), m.state(v); got != want {
			t.Fatalf("%s, after event %d: node %d is %v on the board, %v in the model", where, seq, v, got, want)
		}
		if got, want := b.AgentsOn(v), m.agents[v]; got != want {
			t.Fatalf("%s, after event %d: node %d holds %d agents on the board, %d in the model", where, seq, v, got, want)
		}
	}
	if b.Recontaminations() != m.recontaminations || b.MonotoneViolations() != m.violations {
		t.Fatalf("%s, after event %d: board recontaminations/violations %d/%d, model %d/%d",
			where, seq, b.Recontaminations(), b.MonotoneViolations(), m.recontaminations, m.violations)
	}
	if got, want := b.AllClean(), m.allClean(); got != want {
		t.Fatalf("%s, after event %d: board AllClean %v, model %v", where, seq, got, want)
	}
	if got, want := b.Contiguous(), m.contiguous(); got != want {
		t.Fatalf("%s, after event %d: board Contiguous %v, model %v", where, seq, got, want)
	}
}

// closureStride is how often the oracle compares at dimension d: after
// every event up to d = 6, then after every 8th event and the last,
// which keeps the table's largest cubes within the test's time budget
// while the model still applies every event.
func closureStride(d int) int {
	if d <= 6 {
		return 1
	}
	return 8
}

// replayClosure replays events into a fresh board over g and into a
// model over adj, comparing them after every stride-th event and after
// the last, and returns the model.
func replayClosure(t *testing.T, where string, g graph.Graph, adj [][]int, events []trace.Event, stride int) *closureModel {
	t.Helper()
	b := board.New(g, 0)
	m := newClosureModel(adj, 0)
	for i, e := range events {
		id := e.Agent
		switch e.Kind {
		case trace.Place:
			id = b.Place(e.Time)
		case trace.Clone:
			id = b.Clone(e.To, e.Time)
		case trace.Move:
			b.Move(e.Agent, e.To, e.Time)
		case trace.Terminate:
			b.Terminate(e.Agent, e.Time)
		}
		if id != e.Agent {
			t.Fatalf("%s: event %d creates agent %d, which the board numbers %d", where, i, e.Agent, id)
		}
		m.apply(t, e)
		if i%stride == stride-1 || i == len(events)-1 {
			m.compare(t, where, i, b)
		}
	}
	return m
}

// TestClosureOracle replays every golden-table DES run (each strategy,
// d <= 8, latency mode and fault plan, with the trace recorded) into a
// fresh board and the brute-force model, comparing them after every
// event (every 8th and the last at d = 7 and 8). The naive rows
// recontaminate, so the flood is compared on nonzero counts, not only
// on zero; no golden run recontaminates a stably clean node, which is
// TestClosureOracleRandomWalks' job.
func TestClosureOracle(t *testing.T) {
	var recontaminations int64
	runs := 0
	for d := 0; d <= goldenMaxDim; d++ {
		adj := hammingAdjacency(d)
		for _, gs := range goldenStrategies {
			for _, gp := range goldenPlans {
				if gp.plan != nil && !gs.faulted {
					continue
				}
				for _, lat := range goldenLatencies {
					where := fmt.Sprintf("%s d=%d plan=%s latency=%d/%d", gs.label, d, gp.name, lat.max, lat.seed)
					res, env, err := Run(Spec{
						Strategy:           gs.strategy,
						Dim:                d,
						AdversarialLatency: lat.max,
						Seed:               lat.seed,
						ConvoyTeam:         gs.team,
						Record:             true,
						Faults:             gp.plan,
					})
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					m := replayClosure(t, where, env.H, adj, env.Log().Events(), closureStride(d))
					if res.Recontaminations != m.recontaminations || res.MonotoneOK != (m.violations == 0) || res.Captured != m.allClean() {
						t.Fatalf("%s: run result recontaminations=%d monotone=%v captured=%v, model %d/%d/%v",
							where, res.Recontaminations, res.MonotoneOK, res.Captured, m.recontaminations, m.violations, m.allClean())
					}
					recontaminations += m.recontaminations
					runs++
				}
			}
		}
	}
	if runs != 1935 {
		t.Errorf("oracle replayed %d runs, want 1935", runs)
	}
	if recontaminations == 0 {
		t.Error("no golden run recontaminated a node; the naive rows should")
	}
}

// TestClosureOracleRandomWalks replays random walks of small teams
// over H_d, d = 0..8, into the board and the model, comparing after
// every event. A wandering team settles nodes and then abandons them
// to the intruder, so these walks reach the monotonicity violations
// the golden table's strategies never commit.
func TestClosureOracleRandomWalks(t *testing.T) {
	var violations int64
	for d := 0; d <= goldenMaxDim; d++ {
		adj := hammingAdjacency(d)
		for seed := int64(1); seed <= 4; seed++ {
			events := randomWalk(rand.New(rand.NewSource(seed)), adj, int(seed), 40*len(adj))
			where := fmt.Sprintf("random walk d=%d seed=%d", d, seed)
			violations += replayClosure(t, where, hypercube.New(d), adj, events, 1).violations
		}
	}
	if violations == 0 {
		t.Error("no random walk recontaminated a stably clean node")
	}
	t.Logf("%d monotonicity violations", violations)
}

// randomWalk places team agents on the homebase 0, then emits steps
// events: mostly moves of a random active agent to a random
// neighbour, now and then a clone onto an active agent's node, a
// placement on the homebase (which the intruder may have retaken) or
// the termination of one of several active agents.
func randomWalk(rng *rand.Rand, adj [][]int, team, steps int) []trace.Event {
	var events []trace.Event
	var pos, active []int
	emit := func(e trace.Event) {
		e.Seq, e.Time = len(events), int64(len(events))
		events = append(events, e)
	}
	spawn := func(kind trace.Kind, v int) {
		emit(trace.Event{Kind: kind, Agent: len(pos), To: v})
		active = append(active, len(pos))
		pos = append(pos, v)
	}
	for i := 0; i < team; i++ {
		spawn(trace.Place, 0)
	}
	for i := 0; i < steps; i++ {
		k := rng.Intn(len(active))
		a := active[k]
		switch op := rng.Intn(40); {
		case op == 0:
			spawn(trace.Clone, pos[a])
		case op == 1:
			spawn(trace.Place, 0)
		case op == 2 && len(active) > 1:
			emit(trace.Event{Kind: trace.Terminate, Agent: a, From: pos[a], To: pos[a]})
			active = append(active[:k], active[k+1:]...)
		case len(adj[pos[a]]) > 0:
			to := adj[pos[a]][rng.Intn(len(adj[pos[a]]))]
			emit(trace.Event{Kind: trace.Move, Agent: a, From: pos[a], To: to})
			pos[a] = to
		}
	}
	return events
}
