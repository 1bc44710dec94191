// Package strategy provides the shared execution environment the
// cleaning strategies run on: a hypercube board driven by the
// discrete-event simulator, with per-move latency models (unit latency
// for ideal-time measurement, seeded random latency as the asynchronous
// adversary), structured trace recording, pooled walks along shortest
// paths, per-node agent stacks, and result assembly. An actor that
// waits for a condition parks on a signal of its own, fired by whatever
// makes the condition true; the environment fires no signal.
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
	a := &Adversarial{}
	a.reseed(seed, max)
	return a
}

// reseed restarts a at seed with durations in [1, max], allocating its
// random source on first use. Reseeding restarts the sequence exactly
// as a new source with that seed would.
func (a *Adversarial) reseed(seed, max int64) {
	if max < 1 {
		panic("strategy: adversarial max latency must be >= 1")
	}
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(seed))
	} else {
		a.rng.Seed(seed)
	}
	a.max = max
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

	// Aux is strategy scratch kept across pooled runs: the visibility
	// engine, which runs both visibility and its cloning variant,
	// parks its arrays and event headers here, so that a warm run
	// allocates nothing. The environment only stores it; resetting it
	// is the engine's job.
	Aux any

	opts         Options
	log          *trace.Log
	logStash     *trace.Log // trace retired by a Record:false flip, kept for its capacity
	sink         trace.Sink // optional streaming sink (Options.Stream)
	contiguousOK bool
	completed    bool
	// syncMoves counts the synchronizer's moves; every other move on
	// the board is an agent move.
	syncMoves int64
	// stacks is the per-node agent registry Stacks hands out, kept
	// across runs.
	stacks Stacks
	// walkers is the free list of Walk actors, kept across runs.
	walkers *walker
	// adversary is the latency Adversary installs, its random source
	// kept across runs and reseeded.
	adversary Adversarial
	// Pooled environments are allocated next to each other and run at
	// once on different cores. Padding Env to a multiple of 64 bytes
	// keeps each in cache lines of its own; otherwise one's move
	// counter shares a line with its neighbour's topology pointer, and
	// every move evicts the other core's copy.
	// TestEnvSizeIsCacheLineMultiple holds the size.
	_ [32]byte
}

// NewEnv builds an environment for dimension d with all nodes
// contaminated except the homebase 0.
func NewEnv(d int, opts Options) *Env {
	h := hypercube.New(d)
	e := &Env{
		H:   h,
		BT:  heapqueue.New(d),
		Sim: des.New(),
		B:   board.New(h, 0),
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
// reusing every allocation from the previous run: the board, trace log
// and move counters are cleared in O(n) (the agent stacks are emptied
// by the run's Stacks call), and the simulator keeps its warmed event
// heap. It panics — via Sim.Reset — if the previous run was abandoned
// with parked actors; such poisoned environments must be discarded,
// not reset.
func (e *Env) Reset(opts Options) {
	e.Sim.Reset()
	e.B.Reset()
	e.syncMoves = 0
	if e.log != nil {
		e.log.Reset()
	}
	e.applyOptions(opts)
}

// Adversary makes the run's latency the asynchronous adversary
// NewAdversarial(seed, max) builds, drawing the same sequence from a
// random source the environment keeps across runs and reseeds, so a
// pooled adversarial run allocates nothing for its latency. Call it
// after the environment is acquired and before the run starts; the
// next Reset installs its own options' latency again.
func (e *Env) Adversary(seed, max int64) {
	e.adversary.reseed(seed, max)
	e.opts.Latency = &e.adversary
}

// Completed reports whether Result has been called since the last
// Reset: the run finished and its summary was taken. Pools use it to
// reject environments whose run panicked mid-simulation.
func (e *Env) Completed() bool { return e.completed }

// Stacks is the per-node agent registry of the DES strategies: every
// node's gathered agents form a stack threaded through the agents, a
// head per node and a link per agent, -1 ending a chain. Push and Pop
// work at the top, so a node hands out its last-arrived agent first.
type Stacks struct {
	head []int32 // node -> its top agent
	next []int32 // agent -> the agent below it
}

// Stacks returns the environment's agent stacks with every node's
// empty and room for agent ids below agents. The arrays are allocated
// on first use (4 B per node and per agent) and kept across runs; only
// one strategy may use them at a time.
func (e *Env) Stacks(agents int) Stacks {
	s := &e.stacks
	if s.head == nil {
		s.head = make([]int32, e.H.Order())
	}
	if len(s.next) < agents {
		s.next = make([]int32, agents)
	}
	for v := range s.head {
		s.head[v] = -1
	}
	return *s
}

// Push puts agent a on top of node v's stack.
func (s *Stacks) Push(v, a int) {
	s.next[a] = s.head[v]
	s.head[v] = int32(a)
}

// Pop takes the top agent off node v's stack, or returns -1 if the
// stack is empty.
func (s *Stacks) Pop(v int) int {
	a := s.head[v]
	if a >= 0 {
		s.head[v] = s.next[a]
	}
	return int(a)
}

// Top returns the top agent of node v's stack, or -1 if it is empty.
func (s *Stacks) Top(v int) int { return int(s.head[v]) }

// Next returns the agent below a on its node's stack, or -1 if a is
// the bottom one. A pushed agent's link is overwritten, so read it
// before pushing the agent elsewhere.
func (s *Stacks) Next(a int) int { return int(s.next[a]) }

// Count returns the number of agents on node v's stack, walking its
// chain.
func (s *Stacks) Count(v int) int {
	n := 0
	for a := s.head[v]; a >= 0; a = s.next[a] {
		n++
	}
	return n
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

// Place creates an agent on the homebase at the current time.
func (e *Env) Place(role string) int {
	id := e.B.Place(e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Place, Agent: id, To: e.B.Home(), Role: role})
	}
	return id
}

// Clone creates an agent on v (which must hold one) at the current
// time; parent records provenance in the trace.
func (e *Env) Clone(parent, v int, role string) int {
	id := e.B.Clone(v, e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Clone, Agent: id, From: parent, To: v, Role: role})
	}
	return id
}

// Terminate retires an agent in place.
func (e *Env) Terminate(agent int) {
	v := e.B.Terminate(agent, e.Sim.Now())
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Terminate, Agent: agent, From: v, To: v})
	}
}

// ApplyMove performs the instantaneous part of a move at the current
// simulation time: board update, per-role accounting, trace and
// invariant check — the landing half of the split MoveLatency opens.
// An escort (the synchronizer carrying a cleaner across one edge) is
// one draw and two ApplyMoves at the same instant; agents landing
// together on one node from one node may instead be one ApplyRun.
func (e *Env) ApplyMove(agent, to int, role string) {
	from := e.B.Move(agent, to, e.Sim.Now())
	if role == RoleSynchronizer {
		e.syncMoves++
	}
	if e.log != nil || e.sink != nil {
		e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Move, Agent: agent, From: from, To: to, Role: role})
	}
	if e.opts.Contiguity == CheckEveryMove && e.contiguousOK {
		e.contiguousOK = e.B.Contiguous()
	}
}

// ApplyRun is ApplyMove for a run of agents standing on one node, all
// landing on its neighbour `to`: the same board state, accounting and
// per-agent trace events as one ApplyMove per agent, in order, in one
// board operation (Board.MoveRun). Under CheckEveryMove, which checks
// contiguity after every move, it lands them one by one.
func (e *Env) ApplyRun(agents []int32, to int, role string) {
	if e.opts.Contiguity == CheckEveryMove {
		for _, a := range agents {
			e.ApplyMove(int(a), to, role)
		}
		return
	}
	from := e.B.MoveRun(agents, to, e.Sim.Now())
	if role == RoleSynchronizer {
		e.syncMoves += int64(len(agents))
	}
	if e.log != nil || e.sink != nil {
		for _, a := range agents {
			e.emit(trace.Event{Time: e.Sim.Now(), Kind: trace.Move, Agent: int(a), From: from, To: to, Role: role})
		}
	}
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
	arrived func(agent, dst int)
}

// Walk moves cleaner agent from its current node to dst along the
// canonical shortest hypercube path (the vertices H.ShortestPath
// returns; from an ancestor in the broadcast tree that is the tree path
// down), as a pooled actor spawned at the current time. Each hop draws
// its latency when it starts and lands one event later. arrived (if
// non-nil) runs in the step that lands the agent on dst — the start
// step if it is already there — before any other event. The agent must
// be on the board.
func (e *Env) Walk(agent, dst int, arrived func(agent, dst int)) {
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
	w.agent, w.hop, w.dst, w.arrived = agent, -1, dst, arrived
	e.Sim.SpawnInline(&w.Inline)
}

// step lands the hop in flight, if any, then starts the next one or
// finishes the walk, returning the walker to the pool. The agent's
// node is the hop it just landed; only the first step reads it from
// the board.
func (w *walker) step(s *des.Simulator) {
	e := w.env
	at := w.hop
	if at >= 0 {
		e.ApplyMove(w.agent, at, RoleCleaner)
	} else {
		at, _ = e.B.Position(w.agent)
	}
	if at != w.dst {
		w.hop = e.H.NextHopToward(at, w.dst)
		s.AfterInline(e.MoveLatency(w.agent, at, w.hop, RoleCleaner), &w.Inline)
		return
	}
	agent, dst, arrived := w.agent, w.dst, w.arrived
	w.arrived, w.next, e.walkers = nil, e.walkers, w
	if arrived != nil {
		arrived(agent, dst)
	}
}

// Result ends the run and assembles its cost and correctness summary.
// Call it after Sim.Run has returned. It first retires every agent
// still on the board, in id order, at the current time; then it marks
// the environment's run as completed, which is what allows a pooled
// environment to be reused.
func (e *Env) Result(name string) metrics.Result {
	for id := 0; id < e.B.Agents(); id++ {
		if _, active := e.B.Position(id); active {
			e.Terminate(id)
		}
	}
	e.completed = true
	r := e.B.Result(name)
	r.Dim = e.H.Dim()
	r.AgentMoves, r.SyncMoves = r.TotalMoves-e.syncMoves, e.syncMoves
	r.ContiguousOK = r.ContiguousOK && e.contiguousOK
	return r
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
