// inline.go is the event-driven engine RunEnv, RunCloningEnv and
// RunSynchronousEnv run: the same local rule as the polling node-actor
// reference paths of visibility and cloning (kept as identity oracles
// in inline_identity_test.go), executed without 2^d actors re-checking
// their neighbourhoods on every wake. Visibility and cloning differ
// only in each node's complement, 2^(k-1) agents for a visibility node
// of type T(k) and one for a cloning node, and in where a dispatch's
// movers come from: gathered, or cloned on the spot. The synchronous
// variant gathers as visibility does but fires on a round clock
// instead of on readiness (see below); its reference path, also kept
// as an oracle, walks every agent as an actor of its own.
//
// The dispatch condition of node v — "the agent complement is present
// AND every smaller neighbour is clean or guarded" — is monotone, so
// it never needs to be re-polled: it flips exactly once, at a single
// identifiable landing. The engine reads it from the board's own
// counters instead of keeping counters of its own. Agents reach v only
// from its tree parent, so until v dispatches its k bigger neighbours
// (its children, for v of type T(k)) are all contaminated; v is
// therefore ready exactly when
//
//   - B.AgentsOn(v) equals its Theorem-5 complement, and
//   - B.ContaminatedNeighbours(v) equals k (no smaller one is left).
//
// Only two kinds of landing can make that true: one at v itself (the
// count grows), and the first one at a smaller neighbour u of v (whose
// decontamination Board.Move has just counted down in v's counter). v's
// parent is such a u, but its first landing precedes v's agents; every
// other u has v's type and differs from v below its top bit. So each
// landing checks its destination u, and u's first landing also checks
// the m(u)-1 neighbours u^2^i, i < m(u)-1. Before such a landing the
// condition was false, so each node is found ready once, and a run
// does O(moves) work — at d=20 that is ~5.5M landings for a
// 1,048,576-node board — instead of O(nodes·wakes).
//
// Byte-identity with the reference path (traces, latency draws, fault
// consultations, clean orders, metrics — see TestInlineMatchesLegacy*)
// requires reproducing not just *which* nodes dispatch at a virtual
// time but *in what order*. The reference path's order is subtle: a
// parked node is woken by the FIRST same-time board event that touches
// its closed neighbourhood (every move fires both endpoints and all
// their neighbours), and since wakes run after every same-time arrival,
// the condition is checked against the post-arrival state — a node can
// dispatch at a wake position scheduled by an arrival EARLIER than the
// one that actually enabled it, including an arrival that merely
// departed from a shared neighbour. The engine reproduces this without
// polling:
//
//   - every flight appends its destination to the timestep's landings,
//     which are emptied when the virtual time moves on;
//   - a node found ready sets its bit in the waiting plane, and the
//     first one per timestep schedules a single flush event, which runs
//     after every same-time arrival;
//   - the flush replays the landings in order. For each it fires, by
//     label, the waiting neighbours of the flight's source (the
//     destination's tree parent), then those of the destination, and
//     clears their bits. That is the reference fire sequence of the
//     flight's first agent without its two endpoints: the source has
//     dispatched and never waits, and the destination is the source's
//     neighbour of label m-1, reached before its own head. The two
//     neighbourhoods share no other node, so a landing touches a node
//     once, and a node fires at its first touch of the timestep, which
//     is its reference wake. A flight's later agents repeat its first
//     one's sequence, and a later landing from the same source or to the
//     same destination repeats half of an earlier one's, so neither
//     touches a node first; the flush skips a source that repeats its
//     predecessor's. It stops once every waiting node has fired, after
//     at most 2d bit tests per landing; the landing that made a node
//     ready touches it, so a node left waiting is a bug.
//
// Dispatch draws each departing mover's latency at dispatch time, in
// (child, plan-slot) order. The reference path draws in walker
// actors that run after all same-time wakes, grouped per dispatch
// in the same order, and only the draw sequence is observable (via
// the shared RNG and fault-plan counters), not its position within
// the timestep — so the two paths consume identical draw and
// fault-consultation sequences. A run of equal draws to one child is
// one flight, one DES event: the per-agent events it replaces would
// have held consecutive sequence numbers at one time, so they would
// have dispatched back to back, and the only interceptor a strategy
// installs (kernel lag) defers by virtual time alone, so it would have
// deferred them all alike. Under unit latency every child's
// departures are one flight, and a run schedules n-1 of them.
//
// A flight is also one board operation: arrive lands its agents with
// Env.ApplyRun (Board.MoveRun), which writes each agent's position and
// trace event but updates the two nodes' counts, the move and away
// counters, the destination's contamination and the source's exposure
// once, and arrive records the landing and runs the readiness checks
// once per flight, not per agent (arrive says why that is exact). A
// one-agent flight is a run of one, as Board.Move is. Under unit
// latency a d=18 run's 1,245,184 moves are 262,143 flights, so most of
// the per-node work of a landing is paid once per tree edge.
//
// A cloning dispatch sends its agent to the first child and, before
// each later child's draw, makes a clone of it (Env.Clone, a trace
// Clone event) to send there. The reference path makes every clone of
// a timestep before any of its walkers draws, but clones touch only
// the board and the trace, and draws only the latency RNG and the
// fault plan's counters, so the interleaving is unobservable. Like
// every dispatch, a clone runs after every same-time arrival, so the
// wakes it fires in the reference path are never a ready node's first
// wake of the timestep and change no wake order.
//
// The synchronous variant reads no visibility: a round clock (tick)
// fires the nodes x with m(x) = m at t = m, in increasing order,
// through the same fire, after asserting that each holds its
// complement. Its hops are flights like any other, and arrive lands
// them but records no landing and runs no readiness checks. The clock
// steps twice at each t, the first time only to queue its second step
// behind every event already due at t, so every hop landing at t —
// kernel-lag deferred ones included — applies before the nodes fire.
// The reference path (a clock that walks each agent as its own actor)
// draws in its walkers' first steps, which run right after the clock's
// step in dispatch order, so the draw sequence is the same; its hops
// land in the order fire schedules the flights, and a flight's agents
// in the order their walkers would.
//
// Agents gathered on a node are kept on the environment's per-node
// agent stacks (strategy.Stacks), pushed on arrival and popped on
// dispatch — the same last-arrived-first selection as the reference
// path's append/pop-from-tail lists. A flight's agents are the popped
// run of the source's chain, so a flight is its first agent, its
// child's label and a count, and it rides in its DES event as the
// payload (packFlight): there is no flight object. Its first agent
// stands on the source until the flight lands, so arrive reads the
// source from the board and the destination is the source's
// neighbour across the label. arrive walks the chain, pushing each
// agent onto the destination after reading its link, and hands the
// board at most 64 agents at a time.
package visibility

import (
	"fmt"

	"hypersearch/internal/bits"
	"hypersearch/internal/board"
	"hypersearch/internal/combin"
	"hypersearch/internal/des"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/strategy"
)

// MaxInlineDim is the largest dimension the engine supports: no larger
// limit has committed evidence behind it (ROADMAP item 9 raises a limit
// only with a run at the new one), and memory binds beyond it. d=27 is
// a 134M-node board with a 67M-agent team; at the 3 B/node of a fresh
// environment and the 21.7 B/node its first run allocates at d=16
// (TestNewEnvFootprint, TestFirstRunFootprint), a first run at d=27
// holds about 3.3 GB. TestVisibilityDimLimit pins the limit.
const MaxInlineDim = 27

// A flight's payload packs its first agent in the low flightAgentBits
// bits (ids below 2^(d-1)), its child's label in the next
// flightLabelBits (labels below d), and its count, at most 2^(d-2), in
// the rest: 57 bits at d = MaxInlineDim = 27. The fields fit 64 bits up
// to d = 30; TestFlightPackingAtDimLimit round-trips the extreme flight
// at every d up to the limit.
const (
	flightAgentBits = MaxInlineDim - 1
	flightLabelBits = 5
	flightCountAt   = flightAgentBits + flightLabelBits
)

// packFlight returns the payload of a flight of count agents, agent
// and the next count-1 links of its chain, to the child across label.
func packFlight(agent, label, count int) uint64 {
	return uint64(agent) | uint64(label)<<flightAgentBits | uint64(count)<<flightCountAt
}

// unpackFlight inverts packFlight.
func unpackFlight(p uint64) (agent, label, count int) {
	return int(p & (1<<flightAgentBits - 1)), int(p >> flightAgentBits & (1<<flightLabelBits - 1)), int(p >> flightCountAt)
}

// engine is the per-environment state of the inline path. It parks
// itself in the environment's Aux slot, so a pooled environment reuses
// the arrays and event headers across runs and steady-state allocs/op
// stay flat.
type engine struct {
	env *strategy.Env
	// b is env.B, held here so the engine imports board and the
	// compiler inlines the board reads in arrive.
	b *board.Board
	d int

	// stacks holds the gathered agents: the environment's stacks,
	// copied here so that a landing's push loads their arrays from the
	// engine.
	stacks strategy.Stacks

	// landings holds the destination of every flight that landed at
	// curTime, in landing order; the flush replays them.
	landings []int32
	curTime  int64

	// waiting has a bit per node gone ready this timestep and not yet
	// fired; pending counts those bits, and first is the timestep's
	// first ready node, the one a flush of one fires.
	waiting []uint64
	pending int
	first   int

	// flush is the engine's once-per-timestep dispatch event header; it
	// runs after every same-time arrival and fires the waiting nodes in
	// reference wake order.
	flush des.Inline
	// land is the header of every flight's event, whose payload is the
	// flight; its step is arrive.
	land des.Inline

	// kind is the strategy the engine runs.
	kind kind

	// run holds the chunk of a flight's agents arrive hands to the board
	// at once.
	run [64]int32

	// The synchronous variant's round clock: its header, the round m it
	// fires next, and whether it has stepped once at t = m already.
	// They follow every field a visibility run touches, so those keep
	// their offsets and cache lines.
	clock  des.Inline
	round  int
	waited bool

	// Pooled environments run at once on different cores, and their
	// engines can be heap neighbours. Padding the engine to a multiple
	// of 64 bytes keeps each in cache lines of its own; otherwise one's
	// landings length, written on every flight, can share a line with
	// the next one's env and stacks, read on every flight.
	// TestEngineSizeIsCacheLineMultiple holds the size.
	_ [7]byte
}

// kind is a strategy the engine runs.
type kind uint8

const (
	// kindVisibility is CLEAN WITH VISIBILITY.
	kindVisibility kind = iota
	// kindCloning is the cloning variant: every complement is one agent,
	// and fire clones the incumbent for the children after the first.
	kindCloning
	// kindSynchronous is the synchronous variant: the round clock fires
	// the nodes, and a landing runs no readiness checks.
	kindSynchronous
)

// names are the kinds' strategy names, as results carry them.
var names = [...]string{kindVisibility: Name, kindCloning: CloningName, kindSynchronous: SynchronousName}

// engineFor returns the environment's parked engine, building it on
// first use, and resets it for a fresh run of strategy k.
func engineFor(env *strategy.Env, k kind) *engine {
	d, n := env.H.Dim(), env.H.Order()
	if d > MaxInlineDim {
		panic(fmt.Sprintf("visibility: inline engine supports d <= %d (the largest checked dimension; memory binds beyond it); got d=%d", MaxInlineDim, d))
	}
	eng, _ := env.Aux.(*engine)
	if eng == nil || eng.d != d {
		eng = &engine{d: d, waiting: make([]uint64, (n+63)/64)}
		eng.flush.Step = eng.runFlush
		eng.land.Step = eng.arrive
		eng.clock.Step = eng.tick
		env.Aux = eng
	}
	eng.env, eng.b, eng.kind = env, env.B, k
	eng.stacks = env.Stacks(int(combin.VisibilityAgents(d)))
	eng.reset()
	return eng
}

// complement is the number of agents a node of type T(k) gathers
// before it dispatches, and so the number its parent sends it: 2^(k-1)
// (one for a leaf), or one in a cloning run.
func (e *engine) complement(k int) int64 {
	if e.kind == kindCloning {
		return 1
	}
	return heapqueue.AgentsRequired(k)
}

// reset forgets the landings, clears the waiting plane and sets the
// round clock back to round 0.
func (e *engine) reset() {
	e.landings = e.landings[:0]
	e.curTime = 0
	clear(e.waiting)
	e.pending = 0
	e.round, e.waited = 0, false
}

// pop takes the most recently gathered agent off v's stack.
func (e *engine) pop(v int) int {
	a := e.stacks.Pop(v)
	if a < 0 {
		panic(fmt.Sprintf("visibility: node %d dispatching without its complement", v))
	}
	return a
}

// ready marks node v waiting for this timestep's flush, scheduling the
// flush event itself on the first ready node of the timestep. The flush
// fires every waiting node, and nothing goes ready in a timestep after
// its flush (every landing is at least one step after its dispatch), so
// no pending node means no flush is scheduled.
func (e *engine) ready(s *des.Simulator, v int) {
	if e.pending == 0 {
		s.SpawnInline(&e.flush)
		e.first = v
	}
	e.pending++
	e.waiting[v>>6] |= 1 << (v & 63)
}

// arrive lands the flight its event carries as one board operation,
// records the landing for the flush, then runs the readiness checks
// the flight implies: the destination's own, and, if the flight finds
// it empty, those of the neighbours it is a smaller neighbour of,
// except its parent and its children — the parent received its agents
// before the destination was reached, and the children receive theirs
// only after it dispatches. In a synchronous run, which the round clock
// fires, it only lands the flight.
// The result is that of landing the agents one by one, each with its
// own checks:
//
//   - Each agent's chain link is read before the agent is pushed onto
//     the destination's stack.
//   - The flight is one landing for the flush: its later agents'
//     reference fire sequences repeat its first one's, so they touch no
//     node first.
//   - A child receives exactly its complement, so its own readiness can
//     only become true at a flight's last agent: it is checked once,
//     with the final count.
//   - The neighbour checks run once, for the flight that finds the
//     destination empty, as its first agent's landing ran them.
//   - The counters those checks read equal their values after the
//     first landing, unless the source's exposure at the last landing
//     floods, which a visibility run never does (the polling oracles
//     check this).
//
// The agents go to the board in chunks of at most len(e.run), so no
// scratch grows with a flight; consecutive runs compose. A one-agent
// flight (every cloning flight, most flights under the adversary) is a
// chunk of one. The flight's first agent still stands on its source,
// so the source is read before the first chunk moves it.
func (e *engine) arrive(s *des.Simulator) {
	a, label, count := unpackFlight(s.Arg())
	from, _ := e.b.Position(a)
	to := from | 1<<label

	for left := count; left > 0; {
		run := e.run[:min(left, len(e.run))]
		for i := range run {
			run[i] = int32(a)
			next := e.stacks.Next(a)
			e.stacks.Push(to, a)
			a = next
		}
		e.env.ApplyRun(run, to, strategy.RoleCleaner)
		left -= len(run)
	}
	if e.kind == kindSynchronous {
		return
	}

	if now := s.Now(); now != e.curTime {
		e.curTime = now
		e.landings = e.landings[:0]
	}
	e.landings = append(e.landings, int32(to))

	b := e.b
	m := bits.Msb(bits.Node(to))
	k, agents := e.d-m, b.AgentsOn(to)
	// complement(k), spelled out so that the read inlines into arrive.
	required := heapqueue.AgentsRequired(k)
	if e.kind == kindCloning {
		required = 1
	}
	if agents == count {
		// The labels below m-1 lead to the nodes of to's type that count
		// it among their smaller neighbours. Each counter was just
		// decremented by the flight's first move, so test it before
		// reading the agent count.
		for i := 0; i < m-1; i++ {
			w := to ^ 1<<i
			if b.ContaminatedNeighbours(w) == k && int64(b.AgentsOn(w)) == required {
				e.ready(s, w)
			}
		}
	}
	if int64(agents) == required && b.ContaminatedNeighbours(to) == k {
		e.ready(s, to)
	}
}

// runFlush fires every node that went ready this timestep, in the
// reference path's wake order: a lone one directly, more by replaying
// the timestep's landings (the package comment says why that order is
// the reference's).
func (e *engine) runFlush(s *des.Simulator) {
	left := e.pending
	e.pending = 0
	if left == 1 {
		v := e.first
		e.waiting[v>>6] &^= 1 << (v & 63)
		e.fire(s, v)
		return
	}
	from := -1
	for _, to := range e.landings {
		to := int(to)
		if parent := int(bits.Parent(bits.Node(to))); parent != from {
			from = parent
			left -= e.fireWaiting(s, from)
		}
		if left -= e.fireWaiting(s, to); left == 0 {
			return
		}
	}
	panic(fmt.Sprintf("visibility: %d ready nodes untouched by the %d landings at time %d", left, len(e.landings), s.Now()))
}

// fireWaiting fires u's waiting neighbours in label order, clearing
// their bits, and returns how many it fired.
func (e *engine) fireWaiting(s *des.Simulator, u int) int {
	fired, waiting := 0, e.waiting
	for i := range e.d {
		w := u ^ 1<<i
		if word, bit := &waiting[w>>6], uint64(1)<<(w&63); *word&bit != 0 {
			*word &^= bit
			e.fire(s, w)
			fired++
		}
	}
	return fired
}

// fire runs a ready node: a leaf terminates its guard in place; an
// internal node draws each departing mover's latency in child order
// (each child's complement: 2^(i-1) agents to the T(i) child and one
// to the T(0) child in the Theorem-5 dispatch plan, one to every child
// in a cloning run) and schedules the landings, one flight per run of
// equal draws to a child. A flight is scheduled when its run ends,
// because its payload carries the final count; nothing else is
// scheduled during the draws, so the flights take the sequence numbers
// they would take if each were scheduled at its first draw. A cloning
// node's agent goes to the first child, and before each later child's
// draw it pushes a clone of that agent onto v's stack, so that each
// clone goes to its own child.
func (e *engine) fire(s *des.Simulator, v int) {
	m := bits.Msb(bits.Node(v))
	if e.d-m == 0 {
		e.env.Terminate(e.pop(v))
		return
	}
	incumbent := e.stacks.Top(v) // a cloning node's one agent
	for i := m; i < e.d; i++ {
		child := v | 1<<i
		if e.kind == kindCloning && i > m {
			e.stacks.Push(v, e.env.Clone(incumbent, v, strategy.RoleCleaner))
		}
		first, count, lat := -1, 0, int64(0) // the flight whose run is open
		for j := e.complement(e.d - i - 1); j > 0; j-- {
			a := e.pop(v)
			l := e.env.MoveLatency(a, v, child, strategy.RoleCleaner)
			if count > 0 && l == lat {
				count++
				continue
			}
			if count > 0 {
				s.AfterWith(lat, &e.land, packFlight(first, i, count))
			}
			first, count, lat = a, 1, l
		}
		s.AfterWith(lat, &e.land, packFlight(first, i, count))
	}
	if e.stacks.Top(v) >= 0 {
		panic(fmt.Sprintf("visibility: node %d kept agents after dispatch", v))
	}
}

// tick is the synchronous variant's round clock. At t = m it steps
// twice: the first step only queues the second behind every event
// already due at t, so every hop landing at t applies first (in
// continuous time an arrival "at t" precedes the dispatch "at t").
// The second fires the nodes x with m(x) = m in increasing order and
// schedules the next round, until round d. No visibility read decides
// a firing: the schedule itself must have gathered each node's
// complement, and tick asserts it.
func (e *engine) tick(s *des.Simulator) {
	if !e.waited {
		e.waited = true
		s.AfterInline(0, &e.clock)
		return
	}
	e.waited = false
	m := e.round
	required := int(heapqueue.AgentsRequired(e.d - m))
	// The nodes x with m(x) = m: 2^(m-1) .. 2^m - 1, or node 0 at m = 0.
	// Until a node fires, the agents on it are those on its stack.
	for v := 1 << m >> 1; v < 1<<m; v++ {
		if got := e.b.AgentsOn(v); got != required {
			panic(fmt.Sprintf("synchronous: node %d holds %d agents at t=%d, want %d",
				v, got, s.Now(), required))
		}
		e.fire(s, v)
	}
	if m < e.d {
		e.round++
		s.AfterInline(1, &e.clock)
	}
}
