// Package strategy provides the shared execution environment the
// cleaning strategies run on: a hypercube board driven by the
// discrete-event simulator, with per-move latency models (unit latency
// for ideal-time measurement, seeded random latency as the asynchronous
// adversary), structured trace recording, per-node condition signals
// for visibility-style waiting, and result assembly.
package strategy

import (
	"fmt"
	"math/rand"

	"hypersearch/internal/board"
	"hypersearch/internal/des"
	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/metrics"
	"hypersearch/internal/trace"
)

// Latency models how long one edge traversal takes. Draws happen in
// deterministic DES order, so a seeded latency makes the whole run
// reproducible.
type Latency interface {
	// Draw returns the duration (>= 1) of a move from one node to a
	// neighbour.
	Draw(from, to int) int64
}

// Unit is the ideal-time model: every move takes exactly one step.
type Unit struct{}

// Draw implements Latency.
func (Unit) Draw(_, _ int) int64 { return 1 }

// Adversarial draws durations uniformly from [1, Max], seeded: the
// standard asynchronous adversary used by the robustness experiments.
type Adversarial struct {
	rng *rand.Rand
	max int64
}

// NewAdversarial returns an adversarial latency with durations in
// [1, max].
func NewAdversarial(seed, max int64) *Adversarial {
	if max < 1 {
		panic("strategy: adversarial max latency must be >= 1")
	}
	return &Adversarial{rng: rand.New(rand.NewSource(seed)), max: max}
}

// Draw implements Latency.
func (a *Adversarial) Draw(_, _ int) int64 { return 1 + a.rng.Int63n(a.max) }

// ContiguityCheck selects how often the O(n) connectivity invariant is
// verified during a run.
type ContiguityCheck int

// Checking modes, from cheapest to most thorough.
const (
	CheckFinal     ContiguityCheck = iota // once, at the end
	CheckEveryMove                        // after every move (tests, small d)
)

// Options configures an execution environment.
type Options struct {
	Latency    Latency         // nil means Unit{}
	Contiguity ContiguityCheck // default CheckFinal
	Record     bool            // keep a full trace log

	// Stream, when non-nil, receives every trace event as it happens
	// without the environment retaining it: the memory-bounded way to
	// capture megannode runs whose full in-memory log would not fit.
	// It composes with Record (events go to both) but is typically
	// used instead of it. The environment never resets or closes the
	// sink; the caller owns its lifecycle.
	Stream trace.Sink

	// Faults optionally injects deterministic adversity: stalls,
	// latency spikes, and lock starvation become extra virtual delay
	// on the affected moves, and kernel-lag faults are installed as a
	// DES event interceptor. Crash faults are not supported by the
	// discrete-event engine (a dead agent would wedge the kernel);
	// they require the crash-tolerant goroutine runtime.
	Faults *faults.Injector
}

// Env is the execution environment for one strategy run on H_d.
type Env struct {
	H   *hypercube.Hypercube
	BT  *heapqueue.Tree
	Sim *des.Simulator
	B   *board.Board

	opts     Options
	log      *trace.Log
	logStash *trace.Log // trace retired by a Record:false flip, kept for its capacity
	sink     trace.Sink // optional streaming sink (Options.Stream)
	// sigs and armed are allocated lazily, on the first ParkNode: only
	// actors that wait on a node's neighbourhood use them, and at big
	// dimensions that laziness matters — the sigs array alone is tens
	// of megabytes at d=20, which an event-driven megannode run that
	// never parks should not pay for.
	sigs []des.Signal
	// armed mirrors "sigs[v] has parked actors" as one bit per node.
	// At big dimensions the sigs array is tens of megabytes, so
	// fireAround consults this L2-resident bitset and only touches the
	// Signal structs that actually have a sleeper. ParkNode sets a bit
	// and fireAt clears it before firing; a woken actor that parks
	// again re-arms its bit, so no wakeup is lost.
	armed        []uint64
	armedCount   int // number of set bits in armed; 0 short-circuits fireAround
	contiguousOK bool
	completed    bool
	// aux holds per-environment scratch owned by individual strategies
	// (keyed by strategy name): the event-driven engines park their
	// counter tables and event pools here so pooled environments reuse
	// them across runs, keeping allocs/op flat. The environment only
	// stores the values; resetting them is the owning strategy's job.
	aux map[string]any
	// Per-role move counters. The two standard roles dominate every
	// run (one increment per move), so they get dedicated counters;
	// exotic roles fall back to the map.
	syncMoves    int64
	cleanerMoves int64
	roleMoves    map[string]int64
	// lists is per-run scratch for strategies that track agents per
	// node (one []int per node, emptied by NodeLists); reusing it
	// across pooled runs avoids rebuilding per-node maps.
	lists [][]int
	// walkers is the free list of Walk actors, kept across runs.
	walkers *walker
}

// NewEnv builds an environment for dimension d with all nodes
// contaminated except the homebase 0.
func NewEnv(d int, opts Options) *Env {
	h := hypercube.New(d)
	e := &Env{
		H:         h,
		BT:        heapqueue.New(d),
		Sim:       des.New(),
		B:         board.New(h, 0),
		roleMoves: map[string]int64{},
	}
	e.applyOptions(opts)
	return e
}

// applyOptions installs a run's options onto a clean environment.
func (e *Env) applyOptions(opts Options) {
	if opts.Latency == nil {
		opts.Latency = Unit{}
	}
	e.opts = opts
	e.sink = opts.Stream
	e.contiguousOK = true
	e.completed = false
	e.B.RecordClean(opts.Record)
	if opts.Record {
		if e.log == nil {
			// A Record:false -> true flip reuses the trace retired by
			// the last recorded run of this environment (and thus this
			// dimension), so the log is pre-sized instead of regrowing
			// from scratch.
			if e.logStash != nil {
				e.log, e.logStash = e.logStash, nil
			} else {
				e.log = &trace.Log{}
			}
		}
	} else {
		if e.log != nil {
			e.log.Reset()
			e.logStash = e.log
		}
		e.log = nil
	}
	if opts.Faults != nil {
		if ic := opts.Faults.KernelInterceptor(); ic != nil {
			e.Sim.Intercept(des.Interceptor(ic))
		}
	}
}

// Reset prepares the environment for a fresh run under new options,
// reusing every allocation from the previous run: the board, trace
// log, role counters and scratch lists are cleared in O(n), and the
// simulator keeps its warmed event heap. It panics — via Sim.Reset —
// if the previous run was abandoned with parked actors; such poisoned
// environments must be discarded, not reset. Otherwise no actor is
// parked, so every node signal and armed bit is already clear.
func (e *Env) Reset(opts Options) {
	e.Sim.Reset()
	e.B.Reset()
	e.syncMoves, e.cleanerMoves = 0, 0
	for k := range e.roleMoves {
		delete(e.roleMoves, k)
	}
	if e.log != nil {
		e.log.Reset()
	}
	e.applyOptions(opts)
}

// Completed reports whether Result has been called since the last
// Reset: the run finished and its summary was taken. Pools use it to
// reject environments whose run panicked mid-simulation.
func (e *Env) Completed() bool { return e.completed }

// NodeLists returns one empty []int per node, reusing backing arrays
// across calls and runs. Strategies use it as per-node agent
// registries instead of allocating map[int][]int every run. The
// environment owns the storage; only one caller may use it at a time.
// The table is allocated on first use — O(n) slice headers that the
// event-driven strategies, which track agents in packed per-node
// stacks instead, never pay for.
func (e *Env) NodeLists() [][]int {
	if e.lists == nil {
		e.lists = make([][]int, e.H.Order())
	}
	for i := range e.lists {
		e.lists[i] = e.lists[i][:0]
	}
	return e.lists
}

// Aux returns the per-environment scratch value stored under key, or
// nil. Strategies key their reusable engine state by their own name;
// a pooled environment then carries that state across runs, which is
// what keeps an event-driven strategy's allocs/op flat under reuse.
func (e *Env) Aux(key string) any { return e.aux[key] }

// SetAux stores a per-environment scratch value under key; see Aux.
func (e *Env) SetAux(key string, v any) {
	if e.aux == nil {
		e.aux = map[string]any{}
	}
	e.aux[key] = v
}

// faultDelay consults the injector for one move of agent in role and
// returns the extra virtual delay to impose. Lock starvation has no
// distinct meaning under the single-threaded kernel, so hold time is
// folded into the delay.
func (e *Env) faultDelay(agent int, role string) int64 {
	if e.opts.Faults == nil {
		return 0
	}
	act := e.opts.Faults.BeforeMove(faults.MoveCtx{Agent: agent, Sync: role == RoleSynchronizer})
	if act.Crash {
		panic("strategy: crash faults require the goroutine runtime's crash recovery (runtime.RunClean)")
	}
	return act.Delay + act.Hold
}

// Log returns the trace log, or nil if recording was off.
func (e *Env) Log() *trace.Log { return e.log }

// emit delivers one trace event to the in-memory log and/or the
// streaming sink, whichever are configured. Callers guard with
// `e.log != nil || e.sink != nil` so unrecorded runs never build the
// event struct.
func (e *Env) emit(ev trace.Event) {
	if e.log != nil {
		e.log.Append(ev)
	}
	if e.sink != nil {
		e.sink.Append(ev)
	}
}

// ensureSigs allocates the per-node signal array and armed bitset on
// first use; environments whose actors never park never build them.
func (e *Env) ensureSigs() {
	if e.sigs == nil {
		e.sigs = make([]des.Signal, e.H.Order())
		e.armed = make([]uint64, (e.H.Order()+63)/64)
	}
}

// ParkNode parks actor h until the board next changes at node v or at
// one of its neighbours, arming v's bit in the armed bitset so
// fireAround knows a sleeper exists without reading the (large, cold)
// Signal array. An actor waiting for a condition on v's neighbourhood
// re-checks it in the woken step and parks again while it fails.
func (e *Env) ParkNode(h *des.Inline, v int) {
	e.ensureSigs()
	if w, bit := v>>6, uint64(1)<<(uint(v)&63); e.armed[w]&bit == 0 {
		e.armed[w] |= bit
		e.armedCount++
	}
	e.Sim.Park(&e.sigs[v], h)
}

// fireAt wakes the actors parked on node v's signal, if the armed
// bitset says there are any. The bit is cleared before firing;
// re-parking actors re-arm it through ParkNode.
func (e *Env) fireAt(v int) {
	w, bit := v>>6, uint64(1)<<(uint(v)&63)
	if e.armed[w]&bit == 0 {
		return
	}
	e.armed[w] &^= bit
	e.armedCount--
	e.Sim.Fire(&e.sigs[v])
}

// fireAround signals a board change at v: v's own waiters and those of
// every neighbour (whose "all my neighbours are clean"-style conditions
// may have just flipped) get woken. The armed count makes the dominant
// case — no sleeper anywhere on the board, true for every transit move
// of a courier convoy — a single comparison; otherwise the neighbour
// loop is the XOR walk over the armed bitset, with no topology lookup
// and no allocation.
func (e *Env) fireAround(v int) {
	if e.armedCount == 0 {
		return
	}
	e.fireAt(v)
	for i := 0; i < e.H.Dim(); i++ {
		e.fireAt(v ^ 1<<i)
	}
}

// Place creates an agent on the homebase at the current time.
func (e *Env) Place(role string) int {
	id := e.B.Place(e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Place, Agent: id, To: e.B.Home(), Role: role})
	}
	e.fireAround(e.B.Home())
	return id
}

// Clone creates an agent on v (which must hold one) at the current
// time; parent records provenance in the trace.
func (e *Env) Clone(parent, v int, role string) int {
	id := e.B.Clone(v, e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Clone, Agent: id, From: parent, To: v, Role: role})
	}
	e.fireAround(v)
	return id
}

// Terminate retires an agent in place.
func (e *Env) Terminate(agent int) {
	v, _ := e.B.Position(agent)
	e.B.Terminate(agent, e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Terminate, Agent: agent, From: v, To: v})
	}
	e.fireAround(v)
}

// ApplyMove performs the instantaneous part of a move at the current
// simulation time: board update, per-role accounting, trace, invariant
// check, signals — the landing half of the split MoveLatency opens.
// An escort (the synchronizer carrying a cleaner across one edge) is
// one draw and two ApplyMoves at the same instant.
func (e *Env) ApplyMove(agent, to int, role string) {
	from, _ := e.B.Position(agent)
	e.B.Move(agent, to, e.Sim.Now())
	switch role {
	case RoleCleaner:
		e.cleanerMoves++
	case RoleSynchronizer:
		e.syncMoves++
	default:
		e.roleMoves[role]++
	}
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Move, Agent: agent, From: from, To: to, Role: role})
	}
	if e.opts.Contiguity == CheckEveryMove && e.contiguousOK {
		e.contiguousOK = e.B.Contiguous()
	}
	e.fireAround(from)
	e.fireAround(to)
}

// MoveLatency draws the duration of agent's next move from from to to
// (latency model plus any injected fault delay), without performing
// it. An actor calls it when the move starts — the agent occupies the
// source until completion, the standard graph-search action model —
// and schedules its own step for the landing, where ApplyMove performs
// the move. The draw order is observable (a shared RNG and the fault
// plan's move counters), so it is part of a strategy's behaviour.
func (e *Env) MoveLatency(agent, from, to int, role string) int64 {
	return e.opts.Latency.Draw(from, to) + e.faultDelay(agent, role)
}

// walker is the actor behind Walk: one agent stepping hop by hop toward
// its destination. Walkers are pooled on the environment, so a steady
// stream of walks allocates nothing once the pool is warm.
type walker struct {
	des.Inline
	env     *Env
	next    *walker // free-list link
	agent   int
	hop     int // the node the hop in flight lands on, or -1 before the first
	dst     int
	role    string
	arrived func(agent, dst int)
}

// Walk moves agent from its current node to dst along the canonical
// shortest hypercube path (the vertices H.ShortestPath returns; from
// an ancestor in the broadcast tree that is the tree path down), as a
// pooled actor spawned at the current time. Each hop draws its latency
// when it starts and lands one event later. arrived (if non-nil) runs
// in the step that lands the agent on dst — the start step if it is
// already there — before any other event. The agent must be on the
// board.
func (e *Env) Walk(agent, dst int, role string, arrived func(agent, dst int)) {
	if _, active := e.B.Position(agent); !active {
		panic(fmt.Sprintf("strategy: Walk of agent %d, which is not on the board", agent))
	}
	w := e.walkers
	if w == nil {
		w = &walker{env: e}
		w.Step = w.step
	} else {
		e.walkers = w.next
	}
	w.agent, w.hop, w.dst, w.role, w.arrived = agent, -1, dst, role, arrived
	e.Sim.SpawnInline(&w.Inline)
}

// step lands the hop in flight, if any, then starts the next one or
// finishes the walk, returning the walker to the pool.
func (w *walker) step(s *des.Simulator) {
	e := w.env
	if w.hop >= 0 {
		e.ApplyMove(w.agent, w.hop, w.role)
	}
	if at, _ := e.B.Position(w.agent); at != w.dst {
		w.hop = e.H.NextHopToward(at, w.dst)
		s.AfterInline(e.MoveLatency(w.agent, at, w.hop, w.role), &w.Inline)
		return
	}
	agent, dst, arrived := w.agent, w.dst, w.arrived
	w.arrived, w.next, e.walkers = nil, e.walkers, w
	if arrived != nil {
		arrived(agent, dst)
	}
}

// RoleMoves returns the number of moves recorded for a role.
func (e *Env) RoleMoves(role string) int64 {
	switch role {
	case RoleCleaner:
		return e.cleanerMoves
	case RoleSynchronizer:
		return e.syncMoves
	default:
		return e.roleMoves[role]
	}
}

// Result assembles the run's cost and correctness summary. Call it
// after Sim.Run has returned; it also marks the environment's run as
// completed, which is what allows a pooled environment to be reused.
func (e *Env) Result(name string) metrics.Result {
	e.completed = true
	ok := e.contiguousOK && e.B.Contiguous()
	agentMoves, syncMoves := e.cleanerMoves, e.syncMoves
	for role, n := range e.roleMoves {
		if role == RoleSynchronizer {
			syncMoves += n
		} else {
			agentMoves += n
		}
	}
	return metrics.Result{
		Strategy:         name,
		Dim:              e.H.Dim(),
		Nodes:            e.H.Order(),
		TeamSize:         e.B.Agents(),
		PeakAway:         e.B.PeakAway(),
		AgentMoves:       agentMoves,
		SyncMoves:        syncMoves,
		TotalMoves:       e.B.Moves(),
		Makespan:         e.B.Now(),
		Recontaminations: e.B.Recontaminations(),
		MonotoneOK:       e.B.MonotoneViolations() == 0,
		ContiguousOK:     ok,
		Captured:         e.B.AllClean(),
	}
}

// Role names used in traces and per-role move accounting.
const (
	RoleSynchronizer = "synchronizer"
	RoleCleaner      = "cleaner"
)

// Source hands out execution environments. Fresh allocates per call;
// envpool.Pool reuses them. Callers must Release every Acquired
// environment when done with it (after taking Result) and must not
// touch it afterwards.
type Source interface {
	Acquire(d int, opts Options) *Env
	Release(*Env)
}

// Fresh is the non-pooling Source: every Acquire builds a new
// environment and Release discards it.
type Fresh struct{}

// Acquire implements Source.
func (Fresh) Acquire(d int, opts Options) *Env { return NewEnv(d, opts) }

// Release implements Source.
func (Fresh) Release(*Env) {}
