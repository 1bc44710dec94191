// inline.go is the event-driven engine RunEnv and RunCloningEnv run:
// the same local rule as the polling node-actor reference paths (kept
// as the identity oracles in inline_identity_test.go), executed without
// 2^d actors re-checking their neighbourhoods on every wake. The two
// strategies differ only in each node's complement, 2^(k-1) agents for
// a visibility node of type T(k) and one for a cloning node, and in
// where a dispatch's movers come from: gathered, or cloned on the spot.
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
//   - every landing takes the run's next arrival number and stamps it
//     on its two endpoints unless they already hold one from this
//     timestep — a stamp is current while it is above the counter's
//     value when the timestep began;
//   - nodes found ready join a pending list, and the first one per
//     timestep schedules a single flush event, which runs after every
//     same-time arrival;
//   - the flush sorts the pending nodes by their reference wake key —
//     (earliest touching arrival, position within that arrival's
//     fire sequence: source neighbourhood by label, then destination
//     neighbourhood by label) — reconstructed in O(d) per ready node
//     from the endpoint stamps, then dispatches them in key order.
//     No two ready nodes share a wake key, so the order is one
//     in-place radix pass over the keys' top bits plus a sort of each
//     small bucket (sortKeys), not a comparison sort of the whole
//     flush.
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
// once, and arrive stamps the endpoints and runs the readiness checks
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
// Agents gathered on a node are kept on the environment's per-node
// agent stacks (strategy.Stacks), pushed on arrival and popped on
// dispatch — the same last-arrived-first selection as the reference
// path's append/pop-from-tail lists. A flight's agents are the popped
// run of the source's chain, so a flight stores only its first agent
// and a count; arrive walks the chain, pushing each agent onto the
// destination after reading its link, and hands the board at most 64
// agents at a time.
package visibility

import (
	"fmt"
	mathbits "math/bits"
	"slices"

	"hypersearch/internal/bits"
	"hypersearch/internal/board"
	"hypersearch/internal/combin"
	"hypersearch/internal/des"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/strategy"
)

const (
	// MaxInlineDim is the largest dimension the engine supports: node
	// ids fill the low 27 bits of a flush sort key, and a run's
	// (d+1)·2^(d-2) arrival numbers stay below 2^30. Far beyond it,
	// memory is the binding constraint anyway: d=27 is a 134M-node
	// board with a 67M-agent team.
	MaxInlineDim = 27

	// posBits and nodeBits lay out a flush sort key: the wake key
	// arrival<<posBits|pos (the reference wake position, at most 36
	// bits) in the high bits, the node id in the low bits, so sorting
	// the keys (sortKeys) orders ready nodes and carries their
	// identity.
	posBits  = 6
	nodeBits = MaxInlineDim
	nodeMask = 1<<nodeBits - 1
	// noTouchKey sorts above every real wake key; it can only occur
	// for the root's initial dispatch, which flushes alone.
	noTouchKey = int64(1) << 40

	// radixMin is the smallest flush sortKeys deals into buckets
	// (smaller ones go to slices.Sort whole), radixBits the widest
	// bucket index, and insertionMax the largest bucket it orders by
	// insertion.
	radixMin     = 64
	radixBits    = 12
	insertionMax = 128
)

// engine is the per-environment state of the inline path. It parks
// itself in the environment's Aux slot, so a pooled environment reuses
// the arrays and event objects across runs and steady-state allocs/op
// stay flat.
type engine struct {
	env *strategy.Env
	// b is env.B, held here so the engine imports board and the
	// compiler inlines the board reads in arrive.
	b *board.Board
	d int
	n int

	// stacks holds the gathered agents: the environment's stacks,
	// copied here so that a landing's push loads their arrays from the
	// engine.
	stacks strategy.Stacks

	// Endpoint stamps for wake-key reconstruction: departed[u] is the
	// arrival number of the earliest landing this timestep that came
	// from u, landed[u] of the earliest that landed on u. A stamp at or
	// below base is from an earlier timestep; reset zeroes both.
	departed []uint32
	landed   []uint32

	arrival uint32 // arrival number of the run's latest landing
	base    uint32 // arrival when the current timestep began
	curTime int64  // the current timestep

	pending []int32 // nodes gone ready this timestep, enabling order
	keys    []int64 // flush scratch: packed sort keys

	// flush is the engine's once-per-timestep dispatch event header; it
	// runs after every same-time arrival and fires the pending nodes in
	// reference wake order.
	flush des.Inline
	// free pools landed flights. A slice rather than a list threaded
	// through the flights, so taking one loads no cold flight: the
	// root's dispatch takes up to 2^(d-1) of them in a row.
	free []*flight

	// clone selects the cloning variant: every complement is one agent,
	// and fire clones the incumbent for the children after the first.
	clone bool

	// run holds the chunk of a flight's agents arrive hands to the board
	// at once.
	run [64]int32

	// Pooled environments run at once on different cores, and their
	// engines can be heap neighbours. Padding the engine to a multiple
	// of 64 bytes keeps each in cache lines of its own; otherwise one's
	// free-slice length, written on every flight, shares a line with
	// the next one's env and stacks, read on every flight.
	// TestEngineSizeIsCacheLineMultiple holds the size.
	_ [23]byte
}

// flight is a run of agents leaving one node for one child with the
// same latency: scheduled when the first is drawn, it lands them all
// when it fires. Its agents are agent and the next count-1 links of
// its chain. Pooled in the engine's free slice; its header's step
// closure, which holds the engine, is wired once, when the pool
// allocates it, so a flight is 24 bytes.
type flight struct {
	des.Inline
	agent int32
	to    int32
	count int32
}

// engineFor returns the environment's parked engine, building it on
// first use, and resets it for a fresh run of the visibility strategy
// or, with clone, of its cloning variant.
func engineFor(env *strategy.Env, clone bool) *engine {
	d, n := env.H.Dim(), env.H.Order()
	if d > MaxInlineDim {
		panic(fmt.Sprintf("visibility: inline engine supports d <= %d (sort-key and stamp width); got d=%d", MaxInlineDim, d))
	}
	eng, _ := env.Aux.(*engine)
	if eng == nil || eng.n != n {
		eng = &engine{
			d:        d,
			n:        n,
			departed: make([]uint32, n),
			landed:   make([]uint32, n),
		}
		eng.flush.Step = eng.runFlush
		env.Aux = eng
	}
	eng.env, eng.b, eng.clone = env, env.B, clone
	eng.stacks = env.Stacks(int(combin.VisibilityAgents(d)))
	eng.reset()
	return eng
}

// complement is the number of agents a node of type T(k) gathers
// before it dispatches, and so the number its parent sends it: 2^(k-1)
// (one for a leaf), or one in a cloning run.
func (e *engine) complement(k int) int64 {
	if e.clone {
		return 1
	}
	return heapqueue.AgentsRequired(k)
}

// reset zeroes the stamps and restarts the arrival counter.
func (e *engine) reset() {
	clear(e.departed)
	clear(e.landed)
	e.arrival, e.base = 0, 0
	e.curTime = 0
	e.pending = e.pending[:0]
}

// pop takes the most recently gathered agent off v's stack.
func (e *engine) pop(v int) int {
	a := e.stacks.Pop(v)
	if a < 0 {
		panic(fmt.Sprintf("visibility: node %d dispatching without its complement", v))
	}
	return a
}

// newFlight takes a flight from the pool (or allocates the pool's
// steady-state miss) and arms it with one agent.
func (e *engine) newFlight(agent, to int) *flight {
	var f *flight
	if n := len(e.free); n > 0 {
		f = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		nf := &flight{}
		nf.Step = func(s *des.Simulator) { e.arrive(s, nf) }
		f = nf
	}
	f.agent, f.to, f.count = int32(agent), int32(to), 1
	return f
}

// ready queues node v for this timestep's flush, scheduling the flush
// event itself on the first ready node of the timestep. The flush
// drains the list, and nothing goes ready in a timestep after its
// flush (every landing is at least one step after its dispatch), so an
// empty list means no flush is scheduled.
func (e *engine) ready(s *des.Simulator, v int) {
	if len(e.pending) == 0 {
		s.SpawnInline(&e.flush)
	}
	e.pending = append(e.pending, int32(v))
}

// arrive stamps a flight's endpoints, lands it as one board operation,
// then runs the readiness checks the flight implies: the destination's
// own, and, if the flight finds it empty, those of the neighbours it is
// a smaller neighbour of, except its parent and its children — the
// parent received its agents before the destination was reached, and
// the children receive theirs only after it dispatches. The result is
// that of landing the agents one by one, each with its own checks:
//
//   - Each agent's chain link is read before the agent is pushed onto
//     the destination's stack.
//   - Arrival numbers still advance by one per agent. Only the first
//     agent could stamp departed[parent] and landed[to]: later agents
//     find both stamps current. So the flight stamps with the first
//     agent's number, then adds the rest. Stamps are read only by the
//     flush, so setting them before the landing changes nothing.
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
// chunk of one.
func (e *engine) arrive(s *des.Simulator, f *flight) {
	a, to, count := int(f.agent), int(f.to), int(f.count)
	e.free = append(e.free, f)

	if now := s.Now(); now != e.curTime {
		e.curTime = now
		e.base = e.arrival
	}
	m := bits.Msb(bits.Node(to))
	parent := to &^ (1 << (m - 1))
	e.arrival++
	if e.departed[parent] <= e.base {
		e.departed[parent] = e.arrival
	}
	if e.landed[to] <= e.base {
		e.landed[to] = e.arrival
	}
	e.arrival += uint32(count - 1)

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

	b := e.b
	k, agents := e.d-m, b.AgentsOn(to)
	// complement(k), spelled out so that the read inlines into arrive.
	required := heapqueue.AgentsRequired(k)
	if e.clone {
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

// wakeKey reconstructs the queue position at which the reference path
// would wake ready node v this timestep: the earliest same-time
// arrival whose fire sequence touches v, and the position within that
// sequence (source's neighbours by label first, then the
// destination's). Every enabling event is an arrival adjacent to v,
// so a ready node always has at least one touch — except the root's
// initial dispatch, which happens before any arrival and flushes
// alone under noTouchKey.
func (e *engine) wakeKey(v int) int64 {
	best := noTouchKey
	if t := e.landed[v]; t > e.base {
		// v's own arrivals touch it from the source side: the source
		// is v's tree parent, whose neighbour loop reaches v at the
		// position of v's most significant bit.
		if k := int64(t-e.base)<<posBits | int64(bits.Msb(bits.Node(v))-1); k < best {
			best = k
		}
	}
	for i := 0; i < e.d; i++ {
		x := v ^ 1<<i
		if t := e.departed[x]; t > e.base {
			if k := int64(t-e.base)<<posBits | int64(i); k < best {
				best = k
			}
		}
		if t := e.landed[x]; t > e.base {
			if k := int64(t-e.base)<<posBits | int64(e.d+i); k < best {
				best = k
			}
		}
	}
	return best
}

// runFlush fires every node that went ready this timestep, in the
// reference path's wake order.
func (e *engine) runFlush(s *des.Simulator) {
	if len(e.pending) == 1 {
		v := int(e.pending[0])
		e.pending = e.pending[:0]
		e.fire(s, v)
		return
	}
	e.keys = e.keys[:0]
	for _, v := range e.pending {
		e.keys = append(e.keys, e.wakeKey(int(v))<<nodeBits|int64(v))
	}
	e.pending = e.pending[:0]
	sortKeys(e.keys)
	for _, k := range e.keys {
		e.fire(s, int(k&nodeMask))
	}
}

// sortKeys orders a flush's packed keys ascending, in place. Wake keys
// are distinct, so the bits above nodeBits decide the order alone and
// the node bits need no pass. A flush of radixMin keys or more is
// dealt into buckets by the top bits of its wake keys — one
// American-flag pass, which swaps each key into its bucket's next free
// slot — and each bucket is then sorted by itself. The bucket offsets
// live on the stack, and the keys need no second buffer. A bucket
// holds about four keys, or len/2^radixBits in flushes too large for
// that; insertion sort orders it, or slices.Sort past insertionMax.
func sortKeys(keys []int64) {
	if len(keys) < radixMin {
		slices.Sort(keys)
		return
	}
	var top int64
	for _, k := range keys {
		top |= k
	}
	width := mathbits.Len64(uint64(top) >> nodeBits)
	w := min(radixBits, width, mathbits.Len(uint(len(keys)))-2)
	shift := uint(nodeBits + width - w)
	buckets := 1 << w

	// end[b] counts bucket b's keys, then becomes its end offset;
	// next[b] is its next unfilled slot.
	var next, end [1 << radixBits]int32
	for _, k := range keys {
		end[k>>shift]++
	}
	var sum int32
	for b := range buckets {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	for b := range buckets {
		for i := next[b]; i < end[b]; i = next[b] {
			k := keys[i]
			for c := k >> shift; c != int64(b); c = k >> shift {
				j := next[c]
				next[c]++
				keys[j], k = k, keys[j]
			}
			keys[i] = k
			next[b]++
		}
	}
	var lo int32
	for b := range buckets {
		bucket := keys[lo:end[b]]
		lo = end[b]
		if len(bucket) > insertionMax {
			slices.Sort(bucket)
			continue
		}
		for i := 1; i < len(bucket); i++ {
			k, j := bucket[i], i
			for ; j > 0 && bucket[j-1] > k; j-- {
				bucket[j] = bucket[j-1]
			}
			bucket[j] = k
		}
	}
}

// fire runs a ready node: a leaf terminates its guard in place; an
// internal node draws each departing mover's latency in child order
// (each child's complement: 2^(i-1) agents to the T(i) child and one
// to the T(0) child in the Theorem-5 dispatch plan, one to every child
// in a cloning run) and schedules the landings, one flight per run of
// equal draws to a child. A cloning node's agent goes to the first
// child, and before each later child's draw it pushes a clone of that
// agent onto v's stack, so that each clone goes to its own child.
func (e *engine) fire(s *des.Simulator, v int) {
	m := bits.Msb(bits.Node(v))
	if e.d-m == 0 {
		e.env.Terminate(e.pop(v))
		return
	}
	incumbent := e.stacks.Top(v) // a cloning node's one agent
	for i := m; i < e.d; i++ {
		child := v | 1<<i
		if e.clone && i > m {
			e.stacks.Push(v, e.env.Clone(incumbent, v, strategy.RoleCleaner))
		}
		var f *flight
		var lat int64
		for j := e.complement(e.d - i - 1); j > 0; j-- {
			a := e.pop(v)
			l := e.env.MoveLatency(a, v, child, strategy.RoleCleaner)
			if f != nil && l == lat {
				f.count++
				continue
			}
			f, lat = e.newFlight(a, child), l
			s.AfterInline(l, &f.Inline)
		}
	}
	if e.stacks.Top(v) >= 0 {
		panic(fmt.Sprintf("visibility: node %d kept agents after dispatch", v))
	}
}
