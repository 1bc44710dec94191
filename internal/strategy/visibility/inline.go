// inline.go is the event-driven visibility engine RunEnv runs: the
// same local rule as the polling node-actor reference path (kept as
// the identity oracle in inline_identity_test.go), executed with
// countdown counters instead of 2^d actors re-checking their
// neighbourhoods on every wake.
//
// The dispatch condition of node v — "the agent complement is present
// AND every smaller neighbour is clean or guarded" — is monotone, so
// it never needs to be re-polled: it flips exactly once, at a single
// identifiable event. The engine therefore keeps, per node, two packed
// countdown counters in one uint32:
//
//   - need  (low bits):  agents still missing from the complement,
//   - dirty (high bits): smaller neighbours still contaminated,
//
// and decrements them from the two event kinds that can change them.
// An agent arrival at v decrements need[v]; the first arrival at v
// (its contaminated -> guarded transition) decrements dirty[w] for
// every watcher w that counts v among its smaller neighbours (all of
// v's neighbours except its broadcast-tree parent). A node whose word
// reaches zero is ready. Nothing is ever woken to re-check a condition
// that did not change, so a run does O(moves) work — at d=20 that is
// ~5.5M events for a 1,048,576-node board — instead of O(nodes·wakes).
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
//   - every arrival stamps its two endpoints with (timestep epoch,
//     arrival index) — two array writes per move;
//   - nodes whose counter word hits zero join a pending list, and the
//     first one per timestep schedules a single flush event, which
//     runs after every same-time arrival;
//   - the flush sorts the pending nodes by their reference wake key —
//     (earliest touching arrival, position within that arrival's
//     fire sequence: source neighbourhood by label, then destination
//     neighbourhood by label) — reconstructed in O(d) per ready node
//     from the endpoint stamps, then dispatches them in key order.
//
// Dispatch draws each departing mover's latency at dispatch time, in
// (child, plan-slot) order. The reference path draws in walker
// actors that run after all same-time wakes, grouped per dispatch
// in the same order, and only the draw sequence is observable (via
// the shared RNG and fault-plan counters), not its position within
// the timestep — so the two paths consume identical draw and
// fault-consultation sequences. Agents gathered on a node are kept in
// a per-node intrusive stack (head/next arrays) pushed on arrival and
// popped on dispatch — the same last-arrived-first selection as the
// reference path's append/pop-from-tail lists, in O(4B) per node
// instead of a slice header.
package visibility

import (
	"fmt"
	"slices"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/des"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/strategy"
)

const (
	// needBits splits the packed per-node counter word: the complement
	// countdown lives in the low bits, the contaminated-smaller-
	// neighbour countdown above it. The largest complement of any
	// arrival-fed node is 2^(d-2) (the root's T(d-1) child), so 27 need
	// bits cover every dimension up to MaxInlineDim; dirty counts at
	// most d smaller neighbours and fits the remaining 5 bits.
	needBits = 27
	needMask = 1<<needBits - 1
	dirtyOne = 1 << needBits

	// MaxInlineDim is the largest dimension the packed counters (and
	// the node ids packed into sort keys) support. Far beyond it,
	// memory is the binding constraint anyway: d=27 is a 134M-node
	// board with a 67M-agent team.
	MaxInlineDim = 27

	// posBits and nodeBits lay out a flush sort key:
	// arrivalIdx<<posBits|pos (the reference wake position) in the high
	// bits, the node id in the low bits, so one slices.Sort orders
	// ready nodes and carries their identity.
	posBits  = 6
	nodeBits = MaxInlineDim
	nodeMask = 1<<nodeBits - 1
	// noTouchKey sorts above every real wake key; it can only occur
	// for the root's initial dispatch, which flushes alone.
	noTouchKey = int64(1) << 40
)

// engine is the per-environment state of the inline path. It parks
// itself in the environment's aux slot under the strategy name, so a
// pooled environment reuses the arrays and event objects across runs
// and steady-state allocs/op stay flat.
type engine struct {
	env *strategy.Env
	d   int
	n   int

	// state[v] packs need (low) and dirty (high); zero means ready.
	state []uint32
	// head[v] / next[a] form per-node intrusive stacks of gathered
	// agent ids; -1 terminates a chain.
	head []int32
	next []int32

	// Endpoint stamps for wake-key reconstruction: fromEpoch[u] ==
	// epoch means some arrival departed u this timestep, and
	// fromIdx[u] is the index of the earliest one; toEpoch/toIdx are
	// the arrival side. Epochs make the stamps self-invalidating
	// across timesteps (and runs) without O(n) clearing.
	fromEpoch []int32
	fromIdx   []int32
	toEpoch   []int32
	toIdx     []int32

	epoch      int32 // current timestep epoch
	curTime    int64 // timestep the epoch corresponds to
	arrivals   int32 // arrivals processed this timestep
	flushEpoch int32 // epoch the flusher is already scheduled for

	pending []int32 // nodes gone ready this timestep, enabling order
	keys    []int64 // flush scratch: packed sort keys

	// flush is the engine's once-per-timestep dispatch event header; it
	// runs after every same-time arrival and fires the pending nodes in
	// reference wake order.
	flush      des.Inline
	freeFlight *flight
}

// flight is one agent in transit: scheduled at draw time, it lands the
// move when it fires. Pooled via the engine's free list; its header's
// step closure is wired once, when the pool allocates it.
type flight struct {
	des.Inline
	eng   *engine
	free  *flight
	agent int32
	to    int32
}

func (f *flight) step(s *des.Simulator) { f.eng.arrive(s, f) }

// engineFor returns the environment's parked engine, building it on
// first use, and resets it for a fresh run.
func engineFor(env *strategy.Env) *engine {
	d, n := env.H.Dim(), env.H.Order()
	if d > MaxInlineDim {
		panic(fmt.Sprintf("visibility: inline engine supports d <= %d (packed counter width); got d=%d", MaxInlineDim, d))
	}
	eng, _ := env.Aux(Name).(*engine)
	if eng == nil || eng.n != n {
		eng = &engine{
			d:         d,
			n:         n,
			state:     make([]uint32, n),
			head:      make([]int32, n),
			next:      make([]int32, combin.VisibilityAgents(d)),
			fromEpoch: make([]int32, n),
			fromIdx:   make([]int32, n),
			toEpoch:   make([]int32, n),
			toIdx:     make([]int32, n),
		}
		eng.flush.Step = eng.runFlush
		env.SetAux(Name, eng)
	}
	eng.env = env
	eng.reset()
	return eng
}

// reset re-derives every node's initial counter word: need is the
// Theorem-5 complement, dirty the number of smaller neighbours that
// start contaminated — all of them except the guarded homebase, which
// is a smaller neighbour exactly of the powers of two. The root starts
// at zero (its complement is placed, not moved in); the runner puts it
// on the pending list directly.
func (e *engine) reset() {
	for v := 1; v < e.n; v++ {
		m := bits.Msb(bits.Node(v))
		dirty := uint32(m)
		if v&(v-1) == 0 {
			dirty--
		}
		e.state[v] = uint32(heapqueue.AgentsRequired(e.d-m)) | dirty<<needBits
		e.head[v] = -1
	}
	e.state[0] = 0
	e.head[0] = -1
	// Advancing the epoch invalidates every stamp from the previous
	// run; the epoch counter never repeats within one run because each
	// run starts beyond all epochs the previous one used.
	e.epoch++
	e.curTime = 0
	e.arrivals = 0
	e.flushEpoch = e.epoch - 1
	e.pending = e.pending[:0]
}

// push adds agent a to node v's gathered stack.
func (e *engine) push(v int, a int32) {
	e.next[a] = e.head[v]
	e.head[v] = a
}

// pop removes and returns the most recently gathered agent on v.
func (e *engine) pop(v int) int32 {
	a := e.head[v]
	if a < 0 {
		panic(fmt.Sprintf("visibility: node %d dispatching without its complement", v))
	}
	e.head[v] = e.next[a]
	return a
}

// newFlight takes a flight from the pool (or allocates the pool's
// steady-state miss) and arms it.
func (e *engine) newFlight(agent, to int32) *flight {
	f := e.freeFlight
	if f == nil {
		f = &flight{eng: e}
		f.Step = f.step
	} else {
		e.freeFlight = f.free
	}
	f.agent, f.to = agent, to
	return f
}

// ready queues node v for this timestep's flush, scheduling the flush
// event itself on the first ready node of the timestep.
func (e *engine) ready(s *des.Simulator, v int) {
	e.pending = append(e.pending, int32(v))
	if e.flushEpoch != e.epoch {
		e.flushEpoch = e.epoch
		s.SpawnInline(&e.flush)
	}
}

// arrive lands one agent move: board update and trace through the
// environment, endpoint stamps for wake-key reconstruction, then the
// counter decrements the arrival implies — the destination's own
// complement, and on its first arrival the dirty counters of its
// watchers (every neighbour except the tree parent it arrived from).
func (e *engine) arrive(s *des.Simulator, f *flight) {
	a, to := int(f.agent), int(f.to)
	f.free = e.freeFlight
	e.freeFlight = f

	if now := s.Now(); now != e.curTime {
		e.curTime = now
		e.epoch++
		e.arrivals = 0
	}

	e.env.ApplyMove(a, to, strategy.RoleCleaner)
	e.push(to, int32(a))

	m := bits.Msb(bits.Node(to))
	parent := to &^ (1 << (m - 1))
	if e.fromEpoch[parent] != e.epoch {
		e.fromEpoch[parent] = e.epoch
		e.fromIdx[parent] = e.arrivals
	}
	if e.toEpoch[to] != e.epoch {
		e.toEpoch[to] = e.epoch
		e.toIdx[to] = e.arrivals
	}
	e.arrivals++

	st := e.state[to]
	first := int64(st&needMask) == heapqueue.AgentsRequired(e.d-m)
	st--
	e.state[to] = st
	if st == 0 {
		e.ready(s, to)
	}
	if first {
		for i := 0; i < e.d; i++ {
			w := to ^ 1<<i
			if w == parent {
				continue
			}
			wst := e.state[w] - dirtyOne
			e.state[w] = wst
			if wst == 0 {
				e.ready(s, w)
			}
		}
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
	if e.toEpoch[v] == e.epoch {
		// v's own arrivals touch it from the source side: the source
		// is v's tree parent, whose neighbour loop reaches v at the
		// position of v's most significant bit.
		if k := int64(e.toIdx[v])<<posBits | int64(bits.Msb(bits.Node(v))-1); k < best {
			best = k
		}
	}
	for i := 0; i < e.d; i++ {
		x := v ^ 1<<i
		if e.fromEpoch[x] == e.epoch {
			if k := int64(e.fromIdx[x])<<posBits | int64(i); k < best {
				best = k
			}
		}
		if x != v && e.toEpoch[x] == e.epoch {
			if k := int64(e.toIdx[x])<<posBits | int64(e.d+i); k < best {
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
	slices.Sort(e.keys)
	for _, k := range e.keys {
		e.fire(s, int(k&nodeMask))
	}
}

// fire runs a ready node: a leaf terminates its guard in place; an
// internal node draws each departing mover's latency in child order
// (2^(i-1) agents to the T(i) child, one to the T(0) child — the
// Theorem-5 dispatch plan) and schedules the landings.
func (e *engine) fire(s *des.Simulator, v int) {
	m := bits.Msb(bits.Node(v))
	if e.d-m == 0 {
		e.env.Terminate(int(e.pop(v)))
		return
	}
	for i := m; i < e.d; i++ {
		child := v | 1<<i
		for j := heapqueue.AgentsRequired(e.d - i - 1); j > 0; j-- {
			a := e.pop(v)
			lat := e.env.MoveLatency(int(a), v, child, strategy.RoleCleaner)
			s.AfterInline(lat, &e.newFlight(a, int32(child)).Inline)
		}
	}
	if e.head[v] >= 0 {
		panic(fmt.Sprintf("visibility: node %d kept agents after dispatch", v))
	}
}
