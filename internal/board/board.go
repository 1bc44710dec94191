// Package board implements the node-search state machine of the
// contiguous, monotone model: node states (contaminated / guarded /
// clean), agent positions, atomic moves along edges, and the
// worst-case intruder as an instantaneous contamination closure.
//
// Semantics (Section 2 of the paper, operationalized):
//
//   - A node is guarded while at least one agent stands on it.
//   - Visiting a node removes it from the contaminated set.
//   - The intruder is arbitrarily fast and omniscient, so after every
//     action contamination spreads instantaneously through every
//     unguarded node: an unguarded decontaminated node adjacent to a
//     contaminated node is recontaminated, transitively. After this
//     fixpoint, every unguarded decontaminated node has all neighbours
//     decontaminated — exactly the paper's recursive definition of
//     "clean".
//   - A *monotonicity violation* is a recontamination of a node that
//     had been stably clean (unguarded and decontaminated after a
//     fixpoint). Transit of an agent through contaminated territory
//     does not create clean nodes and therefore cannot violate
//     monotonicity.
//
// Moves are atomic: an agent occupies the source until the move
// completes and the destination from that instant on, matching the
// standard graph-search action model (there is no intermediate state
// with the agent on neither endpoint). Agents that leave one node for
// one neighbour at one instant can move as a run (MoveRun): one
// operation on the two nodes with exactly the effect of one Move per
// agent. Move is a run of one; both are one implementation.
//
// Representation: per-node booleans live in packed bitplanes (see
// bitset.go), agent counts in a byte per node that saturates at 255
// with the rare excess in a small overflow table (see sparse.go), and
// contaminated-neighbour counts in a byte-wide plane (plus, off H_d,
// a plane of degrees) — about three bytes per node on H_d, with Reset
// a handful of memclrs plus one fill. A node is guarded exactly when
// its count byte is nonzero, and a guarded node is always
// decontaminated. The O(n·16B) clean-order/clean-time record is opt-in
// via RecordClean. The contamination flood and the contiguity check
// reuse board-owned scratch (a queue and word planes) and iterate
// neighbours through the graph.NeighbourVisitor fast path, or on a
// hypercube search 64 nodes per word, so the hot path allocates
// nothing. This is what lets one board span the d=20 hypercube (2^20
// nodes) without dominating the run's memory or its garbage.
package board

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/metrics"
)

// State is the paper's node state.
type State uint8

// The three node states of Section 2.
const (
	Contaminated State = iota
	Guarded
	Clean
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Contaminated:
		return "contaminated"
	case Guarded:
		return "guarded"
	case Clean:
		return "clean"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Board is the search state over a graph. Construct with New. Board is
// not safe for concurrent use; the goroutine runtime serializes access.
type Board struct {
	g    graph.Graph
	n    int
	home int
	pos  []int32 // agent id -> node; encoded negative once terminated

	agents     []uint8     // node -> agents standing on it, saturating at 255
	over       sparseCount // node -> agents beyond the 255 agents[v] holds
	decon      words       // bitplane: node is decontaminated
	everClean  words       // bitplane: node settled as stably clean
	settled    words       // bitplane: node settled (clean or final guard)
	deconCount int         // popcount of decon, maintained incrementally

	away     int // agents on nodes other than home
	peakAway int

	moves            int64
	recontaminations int64 // nodes recontaminated, total (with multiplicity)
	violations       int64 // recontaminations of stably-clean nodes

	record      bool    // clean-order accounting enabled
	cleanSeq    int     // next clean-order index
	cleanOrder  []int   // node -> order in which it settled (-1 if not yet)
	cleanTime   []int64 // node -> time at which it settled (-1 if not yet)
	currentTime int64

	// contamNbrs[v] counts v's contaminated neighbours, maintained on
	// every decontamination/recontamination. It turns the expose-time
	// settle-vs-flood decision into one byte load instead of a
	// neighbourhood scan per exposure — the per-move cost that would
	// otherwise dominate big sweeps, where every transit step exposes
	// the node behind the agent. On a graph other than H_d, degrees
	// keeps the all-contaminated pattern so Reset restores the counters
	// with one copy; on H_d, Reset fills them with d. Both are nil (and
	// expose falls back to scanning) if any node's degree overflows the
	// byte-wide counters.
	contamNbrs []uint8
	degrees    []uint8

	// cube is g when it is a hypercube, whose node indices are their
	// labels; Contiguous then searches the decon plane a word at a
	// time, with pend holding each queued word's unexpanded bits.
	cube *hypercube.Hypercube
	pend words

	// Reusable traversal scratch and hoisted visitor callbacks — built
	// once in New so the contamination fixpoint and the contiguity BFS
	// allocate nothing per call.
	queue   []int
	visited words
	spread  bool
	reached int
	visit   func(v int, yield func(w int) bool)
	edge    graph.EdgeChecker // nil when g has no O(1) adjacency test
	scan    func(w int) bool  // expose fallback: any contaminated neighbour?
	flood   func(w int) bool  // expose: recontamination flood step
	sweep   func(w int) bool  // Contiguous: BFS step over decon set
	decNbr  func(w int) bool  // contamNbrs[w]-- (a neighbour was decontaminated)
	incNbr  func(w int) bool  // contamNbrs[w]++ (a neighbour was recontaminated)
}

// New creates a board over g with all nodes contaminated except the
// homebase, which starts decontaminated (agents are placed there).
// Clean-order accounting starts disabled; see RecordClean.
func New(g graph.Graph, home int) *Board {
	n := g.Order()
	if home < 0 || home >= n {
		panic(fmt.Sprintf("board: homebase %d out of range [0,%d)", home, n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("board: %d nodes do not fit the 32-bit position table", n))
	}
	b := &Board{
		g:         g,
		n:         n,
		home:      home,
		agents:    make([]uint8, n),
		decon:     newWords(n),
		everClean: newWords(n),
		settled:   newWords(n),
		visited:   newWords(n),
	}
	if nv, ok := g.(graph.NeighbourVisitor); ok {
		b.visit = nv.VisitNeighbours
	} else {
		b.visit = func(v int, yield func(w int) bool) {
			for _, w := range g.Neighbours(v) {
				if !yield(w) {
					return
				}
			}
		}
	}
	if ec, ok := g.(graph.EdgeChecker); ok {
		b.edge = ec
	}
	if h, ok := g.(*hypercube.Hypercube); ok {
		b.cube = h
		b.pend = newWords(n)
	}
	b.scan = func(w int) bool {
		if !b.decon.get(w) {
			b.spread = true
			return false
		}
		return true
	}
	b.flood = func(w int) bool {
		if b.decon.get(w) && b.agents[w] == 0 {
			b.recontaminate(w)
			b.queue = append(b.queue, w)
		}
		return true
	}
	b.sweep = func(w int) bool {
		if b.decon.get(w) && !b.visited.get(w) {
			b.visited.set(w)
			b.reached++
			b.queue = append(b.queue, w)
		}
		return true
	}
	b.decNbr = func(w int) bool { b.contamNbrs[w]--; return true }
	b.incNbr = func(w int) bool { b.contamNbrs[w]++; return true }
	b.initContamCounters()
	b.decon.set(home)
	b.deconCount = 1
	if b.contamNbrs != nil {
		b.visit(home, b.decNbr)
	}
	return b
}

// initContamCounters sizes and fills the contaminated-neighbour
// counters for the all-contaminated state: contamNbrs[v] = degree(v).
// On H_d every degree is d, so the counters are filled without visiting
// a neighbour and no degree table is kept; any other graph keeps its
// degrees for Reset. Graphs with a node of degree > 255 (none of the
// project's topologies) get no counters and fall back to the
// expose-time scan.
func (b *Board) initContamCounters() {
	if b.cube != nil {
		b.contamNbrs = make([]uint8, b.n)
		fill(b.contamNbrs, uint8(b.cube.Dim()))
		return
	}
	deg := make([]uint8, b.n)
	d := 0
	count := func(int) bool { d++; return true }
	for v := 0; v < b.n; v++ {
		d = 0
		b.visit(v, count)
		if d > 255 {
			return
		}
		deg[v] = uint8(d)
	}
	b.degrees = deg
	b.contamNbrs = make([]uint8, b.n)
	copy(b.contamNbrs, deg)
}

// fill sets every byte of s to c, doubling the filled prefix with each
// copy.
func fill(s []uint8, c uint8) {
	if len(s) == 0 {
		return
	}
	s[0] = c
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// Reset returns the board to its initial state — all nodes
// contaminated except the homebase, no agents, zeroed counters — in
// n byte clears, O(n/64) word clears and one fill or copy, reusing
// every backing array. Pooled environments reset their board instead
// of allocating a fresh one per run.
func (b *Board) Reset() {
	b.pos = b.pos[:0]
	clear(b.agents)
	b.over.reset()
	b.decon.clearAll()
	b.everClean.clearAll()
	b.settled.clearAll()
	b.away, b.peakAway = 0, 0
	b.moves, b.recontaminations, b.violations = 0, 0, 0
	b.cleanSeq = 0
	b.currentTime = 0
	b.queue = b.queue[:0]
	if b.record {
		for i := range b.cleanOrder {
			b.cleanOrder[i] = -1
			b.cleanTime[i] = -1
		}
	}
	b.decon.set(b.home)
	b.deconCount = 1
	switch {
	case b.contamNbrs == nil:
		return
	case b.cube != nil:
		fill(b.contamNbrs, uint8(b.cube.Dim()))
	default:
		copy(b.contamNbrs, b.degrees)
	}
	b.visit(b.home, b.decNbr)
}

// RecordClean toggles the per-node clean-order/clean-time record that
// CleanOrder and CleanTime read. It costs O(n·16B) of memory and an
// O(n) sweep per Reset, so big boards leave it off; visualization and
// figure runs turn it on. Call it on a fresh (or freshly Reset) board:
// settles that happened while recording was off are not backfilled.
func (b *Board) RecordClean(on bool) {
	if on == b.record {
		return
	}
	b.record = on
	if !on {
		return
	}
	if b.cleanOrder == nil {
		b.cleanOrder = make([]int, b.n)
		b.cleanTime = make([]int64, b.n)
	}
	for i := range b.cleanOrder {
		b.cleanOrder[i] = -1
		b.cleanTime[i] = -1
	}
}

// Graph returns the underlying topology.
func (b *Board) Graph() graph.Graph { return b.g }

// Home returns the homebase node.
func (b *Board) Home() int { return b.home }

// Agents returns the number of agents created so far (placed or cloned),
// including terminated ones.
func (b *Board) Agents() int { return len(b.pos) }

// Reserve presizes the agent position table for a team of the given
// size. Purely a performance hint — the table grows on demand without
// it — but a big team (n/2 agents for visibility) would otherwise
// regrow it through a dozen doublings inside the measured region, and
// a first run would allocate about four times the final table; every
// DES strategy reserves its team. The agent counts need no
// reservation: they are a byte per node from New on. The reservation
// survives Reset, so pooled environments pay it once.
func (b *Board) Reserve(agents int) {
	if cap(b.pos) < agents {
		pos := make([]int32, len(b.pos), agents)
		copy(pos, b.pos)
		b.pos = pos
	}
}

// addAgents counts k more agents on v. It stays inlinable, so Place
// and Clone update a count under 255 without a call; saturate takes
// the rest out of line.
func (b *Board) addAgents(v, k int) {
	if int(b.agents[v])+k >= 255 {
		b.saturate(v, k)
		return
	}
	b.agents[v] += uint8(k)
}

// saturate counts k more agents on v, whose byte reaches 255 with them:
// the byte stays at 255 and the excess goes to the overflow table.
func (b *Board) saturate(v, k int) {
	if c := int(b.agents[v]); c != 255 {
		k -= 255 - c
		b.agents[v] = 255
	}
	if k > 0 {
		b.over.add(v, k)
	}
}

// removeAgents counts k agents fewer on v and reports whether v is now
// empty. The overflow table drains before the byte does. It panics if
// v holds fewer than k agents.
func (b *Board) removeAgents(v, k int) (empty bool) {
	c := b.AgentsOn(v)
	if c < k {
		panic(fmt.Sprintf("board: %d agents leave node %d, which holds %d", k, v, c))
	}
	if x := min(c-255, k); x > 0 {
		b.over.sub(v, x)
	}
	if c -= k; c < 255 {
		b.agents[v] = uint8(c)
	}
	return c == 0
}

// Place creates a new agent on the homebase and returns its id. The
// contiguous model forbids placing agents anywhere else. Like any
// arrival, a placement decontaminates the homebase if the intruder had
// retaken it.
func (b *Board) Place(at int64) int {
	b.advance(at)
	id := len(b.pos)
	b.pos = append(b.pos, int32(b.home))
	b.addAgents(b.home, 1)
	b.decontaminate(b.home)
	return id
}

// Clone creates a new agent on node v, which must currently hold at
// least one agent (a clone is a copy of an agent standing there).
// Returns the new agent's id.
func (b *Board) Clone(v int, at int64) int {
	b.advance(at)
	if b.agents[v] == 0 {
		panic(fmt.Sprintf("board: cannot clone on unguarded node %d", v))
	}
	id := len(b.pos)
	b.pos = append(b.pos, int32(v))
	b.addAgents(v, 1)
	if v != b.home {
		b.away++
		if b.away > b.peakAway {
			b.peakAway = b.away
		}
	}
	return id
}

// Move atomically moves agent id along the edge from its current node
// to the neighbouring node `to` at time `at`, then lets contamination
// spread, and returns the node the agent left, so callers need no
// Position read of their own. It panics on a non-edge, an unknown
// agent, or a terminated agent. It is MoveRun's one-agent case: both
// run move.
func (b *Board) Move(id, to int, at int64) (from int) {
	return b.move(id, nil, to, at)
}

// MoveRun moves a run of agents, all standing on one node, along the
// edge to its neighbour `to` at time `at`, and returns the node they
// left. Its effect is exactly that of one Move per id, in order (see
// move). Consecutive runs compose, so a caller may split a long run
// into bounded chunks. It panics on an empty run, a non-edge, and an
// agent that is unknown, terminated or not on the run's source (a
// repeated id is not, by its second move), leaving every agent where
// it stood.
func (b *Board) MoveRun(ids []int32, to int, at int64) (from int) {
	if len(ids) == 0 {
		panic("board: empty run")
	}
	return b.move(int(ids[0]), ids[1:], to, at)
}

// move is the board's one implementation of a move: agent first, then
// each agent of rest, all on first's node, move to its neighbour `to`.
// Only the positions are written per agent. The rest is one Move per
// agent, in order, done once: each count changes by the run's length;
// the away counter moves one way along the run (up when it leaves the
// homebase, down when it reaches it, level otherwise), so its peak is
// read once, at the end; `to` is decontaminated at the first move; and
// the source, if the run empties it, is exposed at the last. Between
// those two the decontaminated set cannot change: only an exposure
// floods, and only the last move empties the source.
func (b *Board) move(first int, rest []int32, to int, at int64) (from int) {
	b.advance(at)
	from = b.agentPos(first)
	// On H_d the edge test inlines; other graphs call adjacent.
	if b.cube != nil && !b.cube.HasEdge(from, to) || b.cube == nil && !b.adjacent(from, to) {
		panic(fmt.Sprintf("board: agent %d move %d->%d is not an edge", first, from, to))
	}
	b.pos[first] = int32(to)
	for i, id := range rest {
		if uint(id) >= uint(len(b.pos)) || b.pos[id] != int32(from) {
			b.strayRun(first, rest[:i], from, int(id))
		}
		b.pos[id] = int32(to)
	}
	// The counts: both bytes in place while neither is or becomes
	// saturated, the overflow table out of line.
	k := 1 + len(rest)
	cf, ct := int(b.agents[from]), int(b.agents[to])+k
	exposed := cf == k
	if cf == 255 || cf < k || ct >= 255 {
		exposed = b.removeAgents(from, k)
		b.addAgents(to, k)
	} else {
		b.agents[from], b.agents[to] = uint8(cf-k), uint8(ct)
	}
	b.moves += int64(k)
	if from != b.home {
		b.away -= k
	}
	if to != b.home {
		b.away += k
		if b.away > b.peakAway {
			b.peakAway = b.away
		}
	}
	b.decontaminate(to)
	// Departure may expose the source.
	if exposed {
		b.expose(from)
	}
	return from
}

// strayRun puts first and the agents of moved, which a run had already
// moved, back on its source, then panics on id, the first agent of the
// run that is not on it.
func (b *Board) strayRun(first int, moved []int32, from, id int) {
	var stray any
	switch {
	case uint(id) >= uint(len(b.pos)):
		stray = agentError{id: id}
	case b.pos[id] < 0:
		stray = agentError{id: id, terminated: true}
	default:
		stray = fmt.Sprintf("board: agent %d of a run from node %d is not on that node", id, from)
	}
	b.pos[first] = int32(from)
	for _, a := range moved {
		b.pos[a] = int32(from)
	}
	panic(stray)
}

// Terminate marks agent id as permanently passive and returns the node
// it settled on. The agent remains on its node as a guard (agents
// cannot be removed from the network in the contiguous model);
// terminating settles the node for clean-order accounting if the whole
// board is otherwise quiescent there.
func (b *Board) Terminate(id int, at int64) (v int) {
	b.advance(at)
	v = b.agentPos(id)
	b.pos[id] = int32(-1 - v) // encode terminated-at-v as negative
	b.settle(v)
	return v
}

// decontaminate marks v decontaminated on an agent's arrival, if the
// intruder held it. Most arrivals land on a node already
// decontaminated, so the test stays inlinable and the update is out of
// line. The bit test is written out because decon.get costs the
// inliner five more, which puts decontaminate over its budget.
func (b *Board) decontaminate(v int) {
	if b.decon[v>>6]&(1<<(uint(v)&63)) == 0 {
		b.decontaminateSlow(v)
	}
}

// decontaminateSlow marks v, which the intruder held, decontaminated
// and counts it out of its neighbours' counters.
func (b *Board) decontaminateSlow(v int) {
	b.decon.set(v)
	b.deconCount++
	if b.contamNbrs != nil {
		b.visit(v, b.decNbr)
	}
}

// agentPos returns the node agent id currently stands on, panicking on
// bad ids or terminated agents.
func (b *Board) agentPos(id int) int {
	if uint(id) >= uint(len(b.pos)) {
		panic(agentError{id: id})
	}
	p := int(b.pos[id])
	if p < 0 {
		panic(agentError{id: id, terminated: true})
	}
	return p
}

// agentError is the panic value for an id that names no active agent.
// Formatting its message only when it is read keeps agentPos, which
// runs on every move, inlinable.
type agentError struct {
	id         int
	terminated bool
}

func (e agentError) Error() string {
	if e.terminated {
		return fmt.Sprintf("board: agent %d already terminated", e.id)
	}
	return fmt.Sprintf("board: unknown agent %d", e.id)
}

func (b *Board) adjacent(u, v int) bool {
	if b.edge != nil {
		return b.edge.HasEdge(u, v)
	}
	for _, w := range b.g.Neighbours(u) {
		if w == v {
			return true
		}
	}
	return false
}

// advance moves the board clock forward; time may repeat but must not
// run backwards (events are applied in order).
func (b *Board) advance(at int64) {
	if at < b.currentTime {
		panic(fmt.Sprintf("board: time moved backwards (%d -> %d)", b.currentTime, at))
	}
	b.currentTime = at
}

// expose handles node u becoming unguarded: if any neighbour is
// contaminated, contamination floods u and everything reachable from u
// through unguarded decontaminated nodes; otherwise u settles as clean.
// The settle-vs-flood decision is one contamNbrs load (every transit
// move pays it, so it must not scan); the flood reuses the board's
// queue scratch and needs no visited set: clearing a node's decon bit
// is what marks it visited.
func (b *Board) expose(u int) {
	if !b.decon.get(u) {
		return
	}
	if b.contamNbrs != nil {
		if b.contamNbrs[u] == 0 {
			b.settle(u)
			return
		}
	} else {
		b.spread = false
		b.visit(u, b.scan)
		if !b.spread {
			b.settle(u)
			return
		}
	}
	// Flood: u and transitively every unguarded decontaminated node.
	b.queue = b.queue[:0]
	b.recontaminate(u)
	b.queue = append(b.queue, u)
	for head := 0; head < len(b.queue); head++ {
		b.visit(b.queue[head], b.flood)
	}
}

func (b *Board) recontaminate(v int) {
	b.decon.clear(v)
	b.deconCount--
	if b.contamNbrs != nil {
		b.visit(v, b.incNbr)
	}
	b.recontaminations++
	if b.everClean.get(v) {
		b.violations++
	}
	// A recontaminated node loses its settled status.
	b.everClean.clear(v)
	b.settled.clear(v)
	if b.record {
		b.cleanOrder[v] = -1
		b.cleanTime[v] = -1
	}
}

// settle records that v is stably clean (or finally guarded by a
// terminated agent) for clean-order accounting.
func (b *Board) settle(v int) {
	if b.settled.get(v) {
		return
	}
	b.settled.set(v)
	if b.agents[v] == 0 {
		b.everClean.set(v)
	}
	if b.record {
		b.cleanOrder[v] = b.cleanSeq
		b.cleanTime[v] = b.currentTime
	}
	b.cleanSeq++
}

// StateOf returns the paper-state of node v.
func (b *Board) StateOf(v int) State {
	switch {
	case b.agents[v] != 0:
		return Guarded
	case b.decon.get(v):
		return Clean
	default:
		return Contaminated
	}
}

// AgentsOn returns the number of agents currently standing on v: its
// byte in the count plane, plus the overflow table's excess once that
// byte has saturated at 255.
func (b *Board) AgentsOn(v int) int {
	if c := b.agents[v]; c != 255 {
		return int(c)
	}
	return b.crowded(v)
}

// crowded returns the count of a node whose byte has saturated. It is
// kept out of line so that AgentsOn, read on every visibility landing,
// stays within the inlining budget.
//
//go:noinline
func (b *Board) crowded(v int) int { return 255 + b.over.get(v) }

// ContaminatedNeighbours returns the number of v's neighbours that are
// contaminated, from the counter the board keeps per node. Every
// hypercube board has the counters (any graph whose degrees fit a
// byte does); on a graph with a node of degree above 255 there are
// none and it panics.
func (b *Board) ContaminatedNeighbours(v int) int { return int(b.contamNbrs[v]) }

// Position returns the node agent id stands on and whether it is still
// active (false once terminated). It stays inlinable, as agentPos
// does: the visibility engine reads each flight's source with it.
func (b *Board) Position(id int) (int, bool) {
	if uint(id) >= uint(len(b.pos)) {
		panic(agentError{id: id})
	}
	p := int(b.pos[id])
	if p < 0 {
		return -1 - p, false
	}
	return p, true
}

// ContaminatedCount returns the number of contaminated nodes.
func (b *Board) ContaminatedCount() int { return b.n - b.deconCount }

// AllClean reports whether every node is decontaminated — the capture
// condition: no contaminated node remains for the intruder.
func (b *Board) AllClean() bool { return b.deconCount == b.n }

// Moves returns the total number of agent moves so far.
func (b *Board) Moves() int64 { return b.moves }

// Recontaminations returns the total number of node recontaminations.
func (b *Board) Recontaminations() int64 { return b.recontaminations }

// MonotoneViolations returns the number of recontaminations of stably
// clean nodes; a correct contiguous monotone strategy keeps this zero.
func (b *Board) MonotoneViolations() int64 { return b.violations }

// PeakAway returns the maximum number of agents simultaneously away
// from the homebase: the working-team requirement of the run.
func (b *Board) PeakAway() int { return b.peakAway }

// Now returns the current board clock.
func (b *Board) Now() int64 { return b.currentTime }

// CleanOrder returns, for node v, the order index in which it settled
// (first stayed stably clean, or had an agent terminate on it), or -1.
// Always -1 unless RecordClean(true) was set before the run.
func (b *Board) CleanOrder(v int) int {
	if !b.record {
		return -1
	}
	return b.cleanOrder[v]
}

// CleanTime returns the board time at which node v settled, or -1.
// Always -1 unless RecordClean(true) was set before the run.
func (b *Board) CleanTime(v int) int64 {
	if !b.record {
		return -1
	}
	return b.cleanTime[v]
}

// Contiguous reports whether the decontaminated set (clean plus
// guarded nodes) induces a connected subgraph — the defining constraint
// of contiguous search. It allocates nothing: the search runs over the
// packed decon bitplane with the board's reusable scratch. On a
// hypercube it moves 64 nodes per word operation (see
// contiguousWords), about n·d/64 word operations when the set is dense
// and never more than the node BFS; on any other graph it is a node
// BFS costing O(n/64 + reached·deg).
func (b *Board) Contiguous() bool {
	if b.deconCount == 0 {
		return true
	}
	if b.cube != nil {
		return b.contiguousWords()
	}
	start := b.decon.firstSet()
	b.visited.clearAll()
	b.queue = b.queue[:0]
	b.visited.set(start)
	b.reached = 1
	b.queue = append(b.queue, start)
	for head := 0; head < len(b.queue); head++ {
		b.visit(b.queue[head], b.sweep)
	}
	return b.reached == b.deconCount
}

// inWord[i] masks the nodes of a word whose label has bit i clear, for
// the labels i < 6 whose edges stay inside a word.
var inWord = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff,
	0x0000ffff0000ffff,
	0x00000000ffffffff,
}

// contiguousWords is Contiguous on H_d, searching the decon plane a
// word of 64 nodes at a time. Node v is bit v&63 of word v>>6, so an
// edge of label i < 6 joins two bits of one word (a masked shift by
// 2^i), and an edge of label i >= 6 joins word w to word w^2^(i-6) at
// the same bit. The queue holds word indices; pend holds, per word,
// the nodes reached but not yet expanded, and a word is queued exactly
// when its pend goes from empty to non-empty. Dequeuing a word closes
// its pending nodes inside the word, then carries the whole batch
// across each label from 6 up. Every enqueue adds at least one node,
// so the search never costs more than the node BFS; over a dense set
// it costs about n·d/64 word operations. pend is empty again on return.
func (b *Board) contiguousWords() bool {
	d := b.cube.Dim()
	low := min(d, 6)
	start := b.decon.firstSet()
	b.visited.clearAll()
	b.queue = b.queue[:0]
	w0, bit := start>>6, uint64(1)<<(uint(start)&63)
	b.visited[w0], b.pend[w0] = bit, bit
	b.queue = append(b.queue, w0)
	reached := 1
	for head := 0; head < len(b.queue); head++ {
		w := b.queue[head]
		batch := b.pend[w]
		b.pend[w] = 0
		for front := batch; front != 0; {
			var nb uint64
			for i := 0; i < low; i++ {
				sh, m := uint(1)<<i, inWord[i]
				nb |= (front&m)<<sh | (front>>sh)&m
			}
			front = nb & b.decon[w] &^ b.visited[w]
			b.visited[w] |= front
			reached += mathbits.OnesCount64(front)
			batch |= front
		}
		for i := 6; i < d; i++ {
			x := w ^ 1<<(i-6)
			nb := batch & b.decon[x] &^ b.visited[x]
			if nb == 0 {
				continue
			}
			b.visited[x] |= nb
			reached += mathbits.OnesCount64(nb)
			if b.pend[x] == 0 {
				b.queue = append(b.queue, x)
			}
			b.pend[x] |= nb
		}
	}
	return reached == b.deconCount
}

// Result summarizes the run on the board under the strategy name: the
// order, the agents created, the peak away from home, the moves, the
// board clock as makespan, and the three correctness verdicts. It
// leaves Dim zero and counts every move as an agent move; an engine
// that knows the dimension, splits moves by role or keeps no virtual
// clock overwrites those fields.
func (b *Board) Result(name string) metrics.Result {
	return metrics.Result{
		Strategy:         name,
		Nodes:            b.n,
		TeamSize:         len(b.pos),
		PeakAway:         b.peakAway,
		AgentMoves:       b.moves,
		TotalMoves:       b.moves,
		Makespan:         b.currentTime,
		Recontaminations: b.recontaminations,
		MonotoneOK:       b.violations == 0,
		ContiguousOK:     b.Contiguous(),
		Captured:         b.AllClean(),
	}
}

// Snapshot returns a copy of the per-node states, for renderers and
// tests.
func (b *Board) Snapshot() []State {
	out := make([]State, b.n)
	for v := range out {
		out[v] = b.StateOf(v)
	}
	return out
}
