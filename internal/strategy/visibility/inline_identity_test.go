package visibility

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"hypersearch/internal/bits"
	"hypersearch/internal/board"
	"hypersearch/internal/combin"
	"hypersearch/internal/des"
	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
	"hypersearch/internal/trace"
)

// The inline event-driven engine claims byte-identity with the
// reference paths of the three strategies it runs: identical traces
// (every event, in order, with times), identical metrics, identical
// clean orders and clean times — under unit latency, adversarial
// latency, and seeded fault plans alike. A synchronous run whose
// schedule breaks panics on its lockstep assertion, and the two paths
// must then break alike: with the same message, after the same trace.
// These tests state that claim as a property over strategies,
// dimensions and seeds.

// pathPair is one strategy's engine entry point and its reference path.
type pathPair struct {
	name   string
	engine func(*strategy.Env) metrics.Result
	legacy func(*strategy.Env, *waker) metrics.Result
}

// strategies lists the strategies the engine runs.
var strategies = []pathPair{
	{Name, RunEnv, runEnvLegacy},
	{CloningName, RunCloningEnv, runCloningLegacy},
	{SynchronousName, RunSynchronousEnv, runSynchronousLegacy},
}

// waker is the reference paths' wakeup source: one signal per node, and
// a trace sink that fires, for every event, the signals of the node the
// event touches and of its neighbours — for a move the source's, then
// the destination's. The environment emits each event as the board
// changes, so an actor parked on node v re-checks its condition after
// every board change in v's closed neighbourhood.
type waker struct {
	sim  *des.Simulator
	d    int
	sigs []des.Signal
}

// park parks actor h until the board next changes at node v or at one
// of its neighbours.
func (w *waker) park(h *des.Inline, v int) { w.sim.Park(&w.sigs[v], h) }

// Append implements trace.Sink.
func (w *waker) Append(ev trace.Event) {
	if ev.Kind == trace.Move {
		w.fireAround(ev.From)
	}
	w.fireAround(ev.To)
}

func (w *waker) fireAround(v int) {
	w.sim.Fire(&w.sigs[v])
	for i := 0; i < w.d; i++ {
		w.sim.Fire(&w.sigs[v^1<<i])
	}
}

// runEnvLegacy executes the visibility reference path: one DES actor
// per node that re-checks the dispatch condition on every board change
// in the node's closed neighbourhood (waker.park), with no counters. It
// is the executable statement of the algorithm, and the identity
// oracle RunEnv's event-driven engine is tested against; its
// O(n·wakes) polling bounds it to small dimensions.
func runEnvLegacy(env *strategy.Env, w *waker) metrics.Result {
	d := env.H.Dim()
	team := int(combin.VisibilityAgents(d))
	at := make([][]int, env.H.Order())
	for i := 0; i < team; i++ {
		at[0] = append(at[0], env.Place(strategy.RoleCleaner))
	}

	if d > 0 {
		landed := func(a, v int) { at[v] = append(at[v], a) }
		for v := 0; v < env.H.Order(); v++ {
			n := &legacyNode{env: env, w: w, at: at, v: v, landed: landed}
			n.Step = n.step
			env.Sim.SpawnInline(&n.Inline)
		}
	}
	env.Sim.Run()

	for id := 0; id < team; id++ {
		if _, active := env.B.Position(id); active {
			env.Terminate(id)
		}
	}
	return env.Result(Name)
}

// legacyNode runs the local rule for node v, standing in for the
// identical local programs of the agents gathered there (which one
// moves where is settled on the node's whiteboard).
type legacyNode struct {
	des.Inline
	env    *strategy.Env
	w      *waker
	at     [][]int
	v      int
	landed func(a, v int)
}

func (n *legacyNode) step(*des.Simulator) {
	env, at, v := n.env, n.at, n.v
	k := env.BT.Type(v)
	required := int(heapqueue.AgentsRequired(k))
	if len(at[v]) < required || !smallerNeighboursReady(env, v) {
		n.w.park(&n.Inline, v)
		return
	}
	if len(at[v]) != required {
		panic(fmt.Sprintf("visibility: node %d gathered %d agents, want %d", v, len(at[v]), required))
	}
	if k == 0 {
		// Leaf: the single agent terminates in place.
		env.Terminate(at[v][0])
		at[v] = nil
		return
	}
	dispatch(env, at, v, n.landed)
}

// smallerNeighboursReady implements the visibility read: every smaller
// neighbour of v is clean or guarded.
func smallerNeighboursReady(env *strategy.Env, v int) bool {
	ready := true
	env.H.VisitSmallerNeighbours(v, func(w int) bool {
		if env.B.StateOf(w) == board.Contaminated {
			ready = false
			return false
		}
		return true
	})
	return ready
}

// dispatch sends the gathered complement onward: plan[i] agents to the
// i-th broadcast-tree child. Each agent moves as its own concurrent
// walker (asynchronous arrivals).
func dispatch(env *strategy.Env, at [][]int, v int, landed func(a, v int)) {
	children := env.BT.Children(v)
	plan := heapqueue.DispatchPlan(env.BT.Type(v))
	for i, child := range children {
		for j := int64(0); j < plan[i]; j++ {
			agents := at[v]
			a := agents[len(agents)-1]
			at[v] = agents[:len(agents)-1]
			env.Walk(a, child, landed)
		}
	}
	if len(at[v]) != 0 {
		panic(fmt.Sprintf("visibility: node %d kept %d agents after dispatch", v, len(at[v])))
	}
}

// runCloningLegacy executes the cloning variant's reference path: one
// DES actor per node that waits on the waker until an agent stands on
// the node and no smaller neighbour is contaminated, then clones and
// dispatches. It is the identity oracle RunCloningEnv is tested
// against.
func runCloningLegacy(env *strategy.Env, w *waker) metrics.Result {
	r := &cloningShared{env: env, w: w, at: make([][]int, env.H.Order())}
	r.landed = func(a, v int) { r.at[v] = append(r.at[v], a) }
	r.at[0] = append(r.at[0], env.Place(strategy.RoleCleaner))

	if env.H.Dim() > 0 {
		nodes := make([]cloningNode, env.H.Order())
		for v := range nodes {
			nodes[v] = cloningNode{r: r, v: v}
			nodes[v].Step = nodes[v].step
			env.Sim.SpawnInline(&nodes[v].Inline)
		}
	}
	env.Sim.Run()
	return env.Result(CloningName)
}

// cloningShared is the state the cloning node actors share.
type cloningShared struct {
	env    *strategy.Env
	w      *waker
	at     [][]int // node -> the (single) agent standing there
	movers []int   // dispatch scratch
	landed func(a, v int)
}

// cloningNode is the local rule of node v: an actor that waits on the
// waker until an agent stands on v and no smaller neighbour (label
// <= m(v)) is contaminated, then clones and dispatches.
type cloningNode struct {
	des.Inline
	r *cloningShared
	v int
}

func (n *cloningNode) step(*des.Simulator) {
	r, v := n.r, n.v
	env := r.env
	d, m := env.H.Dim(), bits.Msb(bits.Node(v))
	ready := len(r.at[v]) > 0
	for i := 0; ready && i < m; i++ {
		ready = env.B.StateOf(v^1<<i) != board.Contaminated
	}
	if !ready {
		r.w.park(&n.Inline, v)
		return
	}
	a := r.at[v][0]
	if m == d {
		env.Terminate(a)
		return
	}
	// The incumbent continues to the first child; clones take the
	// rest. Cloning is local and instantaneous.
	r.movers = append(r.movers[:0], a)
	for i := m + 1; i < d; i++ {
		r.movers = append(r.movers, env.Clone(a, v, strategy.RoleCleaner))
	}
	for i, mover := range r.movers {
		env.Walk(mover, v|1<<(m+i), r.landed)
	}
}

// runSynchronousLegacy executes the synchronous variant's reference
// path: a global round clock that, at each t = m, walks every agent of
// the nodes x with m(x) = m to its child as an actor of its own. It
// reads no visibility, so it parks nothing on the waker. It is the
// identity oracle RunSynchronousEnv is tested against.
func runSynchronousLegacy(env *strategy.Env, _ *waker) metrics.Result {
	team := int(combin.VisibilityAgents(env.H.Dim()))
	c := &legacyClock{env: env, at: env.Stacks(team)}
	env.B.Reserve(team)
	for i := 0; i < team; i++ {
		c.at.Push(0, env.Place(strategy.RoleCleaner))
	}

	if env.H.Dim() > 0 {
		c.landed = func(a, v int) { c.at.Push(v, a) }
		c.Step = c.step
		env.Sim.SpawnInline(&c.Inline)
	}
	env.Sim.Run()
	return env.Result(SynchronousName)
}

// legacyClock is the global round clock: an actor that, at each time
// t = m, dispatches the complements of the nodes x with m(x) = m, then
// schedules itself one round later, until round d.
type legacyClock struct {
	des.Inline
	env    *strategy.Env
	at     strategy.Stacks // the agents standing on each node
	landed func(a, v int)
	m      int  // the round
	waited bool // stepped once at t = m already, behind the round's arrivals
}

func (c *legacyClock) step(s *des.Simulator) {
	if !c.waited {
		// Step once more so that arrivals scheduled for this same
		// round (from t = m-1) apply first: in continuous time an
		// arrival "at t" precedes the dispatch "at t".
		c.waited = true
		s.AfterInline(0, &c.Inline)
		return
	}
	c.waited = false
	env, m := c.env, c.m
	d := env.H.Dim()
	required := int(heapqueue.AgentsRequired(d - m))
	// The nodes x with m(x) = m: 2^(m-1) .. 2^m - 1, or node 0 at m = 0.
	for v := 1 << m >> 1; v < 1<<m; v++ {
		// No visibility read: the schedule itself must guarantee the
		// complement has arrived. Assert it.
		if got := c.at.Count(v); got != required {
			panic(fmt.Sprintf("synchronous: node %d holds %d agents at t=%d, want %d",
				v, got, s.Now(), required))
		}
		if m == d {
			env.Terminate(c.at.Pop(v))
			continue
		}
		// 2^(i-1) agents to the T(i) child and one to the T(0) child, in
		// child order (heapqueue.DispatchPlan).
		for i := m; i < d; i++ {
			for j := heapqueue.AgentsRequired(d - i - 1); j > 0; j-- {
				env.Walk(c.at.Pop(v), v|1<<i, c.landed)
			}
		}
	}
	if m < d {
		c.m++
		s.AfterInline(1, &c.Inline)
	}
}

// capture is everything observable about one run.
type capture struct {
	res        metrics.Result
	broke      string // the lockstep assertion a synchronous run panicked with
	events     []trace.Event
	cleanOrder []int
	cleanTime  []int64
}

// runPath executes one run of strategy s on a fresh environment
// through the selected path and captures its observables. The
// reference path's waker receives the run's trace as its stream.
func runPath(s pathPair, d int, opts strategy.Options, legacy bool) capture {
	opts.Record = true
	opts.Contiguity = strategy.CheckEveryMove
	var w waker
	if legacy {
		opts.Stream = &w
	}
	env := strategy.NewEnv(d, opts)
	var c capture
	c.res, c.broke = lockstep(func() metrics.Result {
		if legacy {
			w.sim, w.d, w.sigs = env.Sim, d, make([]des.Signal, env.H.Order())
			return s.legacy(env, &w)
		}
		return s.engine(env)
	})
	c.events = append(c.events, env.Log().Events()...)
	n := env.H.Order()
	c.cleanOrder = make([]int, n)
	c.cleanTime = make([]int64, n)
	for v := 0; v < n; v++ {
		c.cleanOrder[v] = env.B.CleanOrder(v)
		c.cleanTime[v] = env.B.CleanTime(v)
	}
	return c
}

// lockstep runs run and returns its result, or the message of the
// lockstep assertion it panicked with: a synchronous run whose schedule
// has not gathered a node's complement by the node's round. Any other
// panic propagates.
func lockstep(run func() metrics.Result) (res metrics.Result, broke string) {
	defer func() {
		if p := recover(); p != nil {
			msg, ok := p.(string)
			if !ok || !strings.HasPrefix(msg, "synchronous: ") {
				panic(p)
			}
			broke = msg
		}
	}()
	return run(), ""
}

// assertIdentical compares two captures field by field with a usable
// first-divergence report.
func assertIdentical(t *testing.T, legacy, inline capture) {
	t.Helper()
	if legacy.broke != inline.broke {
		t.Fatalf("lockstep assertions diverge:\nlegacy: %q\ninline: %q", legacy.broke, inline.broke)
	}
	if legacy.res != inline.res {
		t.Fatalf("metrics diverge:\nlegacy: %+v\ninline: %+v", legacy.res, inline.res)
	}
	if len(legacy.events) != len(inline.events) {
		t.Fatalf("trace lengths diverge: legacy %d events, inline %d", len(legacy.events), len(inline.events))
	}
	for i := range legacy.events {
		if legacy.events[i] != inline.events[i] {
			t.Fatalf("trace diverges at event %d:\nlegacy: %+v\ninline: %+v", i, legacy.events[i], inline.events[i])
		}
	}
	for v := range legacy.cleanOrder {
		if legacy.cleanOrder[v] != inline.cleanOrder[v] || legacy.cleanTime[v] != inline.cleanTime[v] {
			t.Fatalf("clean record diverges at node %d: legacy (order %d, time %d), inline (order %d, time %d)",
				v, legacy.cleanOrder[v], legacy.cleanTime[v], inline.cleanOrder[v], inline.cleanTime[v])
		}
	}
}

// checkIdentity runs both paths of every strategy at dimension d, one
// subtest per strategy, each path under fresh options from mk, and
// compares what they capture.
func checkIdentity(t *testing.T, d int, mk func() strategy.Options) {
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			assertIdentical(t, runPath(s, d, mk(), true), runPath(s, d, mk(), false))
		})
	}
}

// TestInlineMatchesLegacyUnit: identity under the ideal-time model,
// every dimension the reference paths can reasonably run. Under unit
// latency the leaves dispatch in one final flush of 2^(d-1) ready
// nodes, so d=12 orders a flush of 2,048.
func TestInlineMatchesLegacyUnit(t *testing.T) {
	for d := 0; d <= 12; d++ {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			checkIdentity(t, d, func() strategy.Options { return strategy.Options{} })
		})
	}
}

// TestInlineMatchesLegacyAdversarial: identity under seeded random
// latencies — the asynchronous adversary exercises every interleaving
// the event-driven engine must reproduce, and the latency draw sequence
// itself is part of the identity (a reordered draw would desync the
// shared RNG stream immediately).
//
// Every seed runs at d <= 8; d=10..12 run seed 1 at each bound, for
// flushes of hundreds of ready nodes (at d=12 the largest holds 333 at
// bound 3) that the small dimensions never reach.
func TestInlineMatchesLegacyAdversarial(t *testing.T) {
	bounds := []int64{1, 3, 16}
	run := func(d int, seed, max int64) {
		t.Run(fmt.Sprintf("d=%d/seed=%d/max=%d", d, seed, max), func(t *testing.T) {
			checkIdentity(t, d, func() strategy.Options {
				return strategy.Options{Latency: strategy.NewAdversarial(seed, max)}
			})
		})
	}
	for d := 1; d <= 8; d++ {
		for _, seed := range []int64{1, 2, 7, 40, 1337} {
			for _, max := range bounds {
				run(d, seed, max)
			}
		}
	}
	for d := 10; d <= 12; d++ {
		for _, max := range bounds {
			run(d, 1, max)
		}
	}
}

// TestInlineMatchesLegacyFaults: identity under seeded fault plans —
// stalls and latency spikes consult the injector's move counters in
// move order, and kernel lag defers DES events as a pure function of
// virtual time, so both paths must produce the same deferred schedule.
// Every plan runs under the adversary and, in its unit/ subtests, under
// the unit latency the synchronous variant is defined for; under the
// adversary nearly every synchronous run breaks its lockstep.
func TestInlineMatchesLegacyFaults(t *testing.T) {
	plans := []*faults.Plan{
		{Name: "stall-any", Seed: 3, Faults: []faults.Fault{
			{Kind: faults.Stall, Target: faults.TargetAny, At: 3, Delay: 5},
			{Kind: faults.Stall, Target: faults.TargetAny, At: 11, Delay: 2},
		}},
		{Name: "spike-agent", Seed: 5, Faults: []faults.Fault{
			{Kind: faults.LatencySpike, Target: "agent:1", At: 1, Until: 4, Delay: 2},
			{Kind: faults.LatencySpike, Target: "agent:0", At: 2, Until: 3, Delay: 7},
		}},
		{Name: "kernel-lag", Seed: 9, Faults: []faults.Fault{
			{Kind: faults.KernelLag, From: 1, To: 4},
		}},
		{Name: "combined", Seed: 11, Faults: []faults.Fault{
			{Kind: faults.Stall, Target: faults.TargetAny, At: 5, Delay: 3},
			{Kind: faults.KernelLag, From: 2, To: 6},
		}},
	}
	for _, plan := range plans {
		for d := 1; d <= 6; d++ {
			t.Run(fmt.Sprintf("%s/d=%d", plan.Name, d), func(t *testing.T) {
				checkIdentity(t, d, func() strategy.Options {
					return strategy.Options{
						Latency: strategy.NewAdversarial(plan.Seed, 4),
						Faults:  faults.NewInjector(plan),
					}
				})
			})
			t.Run(fmt.Sprintf("%s/unit/d=%d", plan.Name, d), func(t *testing.T) {
				checkIdentity(t, d, func() strategy.Options {
					return strategy.Options{Faults: faults.NewInjector(plan)}
				})
			})
		}
	}
}

// flightCase is one FuzzInlineMatchesLegacy input, decoded by
// options: dimension 1+D%6; unit latency when Bound%17 is 0, else the
// adversary at bound Bound%17 seeded by Seed; a kernel-lag window
// [From%32, From%32+Len%32) for each of (LagFrom, LagLen) and
// (Lag2From, Lag2Len) whose Len%32 > 0; a stall of StallDelay%16 on
// move 1+StallAt%64 when StallDelay%16 > 0, of every move counted when
// StallAgent%8 is 0, else of agent StallAgent%8-1's; a latency spike of
// SpikeDelay%8 on moves 1+SpikeAt%64 through 1+SpikeAt%64+SpikeLen%8
// when SpikeDelay%8 > 0; and strategies[Strategy%3].
type flightCase struct {
	D                             uint8
	Seed                          int64
	Bound                         uint8
	LagFrom, LagLen               uint8
	Lag2From, Lag2Len             uint8
	StallAt, StallDelay           uint8
	StallAgent                    uint8
	SpikeAt, SpikeLen, SpikeDelay uint8
	Strategy                      uint8
}

func (c flightCase) dim() int     { return 1 + int(c.D%6) }
func (c flightCase) bound() int64 { return int64(c.Bound % 17) }
func (c flightCase) lags() [2][2]int64 {
	window := func(from, n uint8) [2]int64 { return [2]int64{int64(from % 32), int64(from%32) + int64(n%32)} }
	return [2][2]int64{window(c.LagFrom, c.LagLen), window(c.Lag2From, c.Lag2Len)}
}
func (c flightCase) pair() pathPair { return strategies[int(c.Strategy)%len(strategies)] }

// options builds a fresh run's options: each call has its own RNG and
// injector, so the two paths consume identical sequences.
func (c flightCase) options() strategy.Options {
	var opts strategy.Options
	if b := c.bound(); b > 0 {
		opts.Latency = strategy.NewAdversarial(c.Seed, b)
	}
	var fs []faults.Fault
	for _, lag := range c.lags() {
		if lag[1] > lag[0] {
			fs = append(fs, faults.Fault{Kind: faults.KernelLag, From: lag[0], To: lag[1]})
		}
	}
	if delay := int64(c.StallDelay % 16); delay > 0 {
		target := faults.TargetAny
		if a := c.StallAgent % 8; a > 0 {
			target = fmt.Sprintf("agent:%d", a-1)
		}
		fs = append(fs, faults.Fault{Kind: faults.Stall, Target: target, At: 1 + int(c.StallAt%64), Delay: delay})
	}
	if delay := int64(c.SpikeDelay % 8); delay > 0 {
		at := 1 + int(c.SpikeAt%64)
		fs = append(fs, faults.Fault{Kind: faults.LatencySpike, Target: faults.TargetAny, At: at, Until: at + int(c.SpikeLen%8), Delay: delay})
	}
	if fs != nil {
		opts.Faults = faults.NewInjector(&faults.Plan{Name: "fuzz", Seed: c.Seed, Faults: fs})
	}
	return opts
}

// FuzzInlineMatchesLegacy's seed corpus, run for each strategy in turn:
// unit latency, bound 1 (every draw equal, so each child's departures
// are one flight), splitSeed (mixed draws split a child's departures
// into several flights), lagSeed (a kernel-lag window defers a
// multi-agent flight) and lag plus a stall; then lockstepSeed.
// TestFlightSeedsCoverShapes checks, for visibility, the two seeds
// whose shape depends on the draws; a cloning flight carries one agent.
// lockstepSeed is a synchronous run at d=2 under unit latency with a
// 3-step stall on agent 1's first move, kernel lag [0,1) and [2,6) and
// a 3-step spike on moves 2 to 4: the two paths break on different
// nodes if the engine's round clock fires each round in its first step
// at t = m, without first queueing itself behind the hops due then.
var (
	splitSeed   = flightCase{D: 5, Seed: 1, Bound: 2}
	lagSeed     = flightCase{D: 5, Seed: 3, Bound: 2, LagFrom: 2, LagLen: 4}
	flightSeeds = []flightCase{
		{D: 5},
		{D: 5, Seed: 7, Bound: 1},
		splitSeed,
		lagSeed,
		{D: 4, Seed: 11, Bound: 4, LagFrom: 2, LagLen: 4, StallAt: 4, StallDelay: 3},
	}
	lockstepSeed = flightCase{D: 1, LagLen: 1, Lag2From: 2, Lag2Len: 4, StallDelay: 3, StallAgent: 2,
		SpikeAt: 1, SpikeLen: 2, SpikeDelay: 3, Strategy: 2}
)

// FuzzInlineMatchesLegacy: the engine's batched flights, board-read
// readiness, replayed flush order, dispatch-time clones and round clock
// reproduce the reference paths under fuzzed strategies, dimensions,
// latency bounds, kernel-lag windows, stalls and latency spikes. A run
// that completes must match byte for byte, and a synchronous run that
// breaks its lockstep must break with the same message after the same
// trace.
func FuzzInlineMatchesLegacy(f *testing.F) {
	add := func(c flightCase) {
		f.Add(c.D, c.Seed, c.Bound, c.LagFrom, c.LagLen, c.Lag2From, c.Lag2Len,
			c.StallAt, c.StallDelay, c.StallAgent, c.SpikeAt, c.SpikeLen, c.SpikeDelay, c.Strategy)
	}
	for i := range strategies {
		for _, c := range flightSeeds {
			c.Strategy = uint8(i)
			add(c)
		}
	}
	add(lockstepSeed)
	f.Fuzz(func(t *testing.T, d uint8, seed int64, bound, lagFrom, lagLen, lag2From, lag2Len,
		stallAt, stallDelay, stallAgent, spikeAt, spikeLen, spikeDelay, strategy uint8) {
		c := flightCase{D: d, Seed: seed, Bound: bound, LagFrom: lagFrom, LagLen: lagLen, Lag2From: lag2From, Lag2Len: lag2Len,
			StallAt: stallAt, StallDelay: stallDelay, StallAgent: stallAgent, SpikeAt: spikeAt, SpikeLen: spikeLen, SpikeDelay: spikeDelay, Strategy: strategy}
		s := c.pair()
		assertIdentical(t, runPath(s, c.dim(), c.options(), true), runPath(s, c.dim(), c.options(), false))
	})
}

// TestSynchronousDelayedHops: a move delay breaks a synchronous run
// only when it holds a hop back past its destination's round. At d=2
// node 0's two hops, moves 1 and 2, go to node 1 (round 1) and node 2
// (round 2). A 1-step stall on move 2 lands its hop at t=2, in node
// 2's round but before the node fires, and the run completes with
// makespan 2; the same stall on move 1 leaves node 1 empty at t=1.
// Both paths must reach either outcome alike.
func TestSynchronousDelayedHops(t *testing.T) {
	synchronous := strategies[2]
	stall := func(move int) strategy.Options {
		return strategy.Options{Faults: faults.NewInjector(&faults.Plan{Name: "stall", Faults: []faults.Fault{
			{Kind: faults.Stall, Target: faults.TargetAny, At: move, Delay: 1},
		}})}
	}
	done := runPath(synchronous, 2, stall(2), false)
	if done.broke != "" || !done.res.Ok() || done.res.Makespan != 2 {
		t.Errorf("stall on move 2: %s, broke %q; want a clean run of makespan 2", done.res.String(), done.broke)
	}
	assertIdentical(t, runPath(synchronous, 2, stall(2), true), done)

	broke := runPath(synchronous, 2, stall(1), false)
	if want := "synchronous: node 1 holds 0 agents at t=1, want 1"; broke.broke != want {
		t.Errorf("stall on move 1: broke %q, want %q", broke.broke, want)
	}
	assertIdentical(t, runPath(synchronous, 2, stall(1), true), broke)
}

// drawLog is a latency model that records every draw with the time it
// was taken.
type drawLog struct {
	inner strategy.Latency
	sim   *des.Simulator
	draws []draw
}

type draw struct {
	now, lat int64
	from, to int
}

func (l *drawLog) Draw(from, to int) int64 {
	lat := l.inner.Draw(from, to)
	l.draws = append(l.draws, draw{l.sim.Now(), lat, from, to})
	return lat
}

// flightShapes runs c on a fresh environment and reads its flight
// shapes off the latency draws. A child's departures are the
// consecutive draws of one (from, to), all taken at one dispatch; its
// flights are their runs of equal draws. split: a child's departures
// form several flights, one of them carrying several agents; deferred:
// such a flight lands inside c's kernel-lag window. The draw log sees
// the latency model only, so read the shapes off stall-free cases.
func flightShapes(c flightCase) (split, deferred bool) {
	opts := c.options()
	log := &drawLog{inner: opts.Latency}
	opts.Latency = log
	env := strategy.NewEnv(c.dim(), opts)
	log.sim = env.Sim
	RunEnv(env)

	lag, ds := c.lags()[0], log.draws
	sameChild := func(i, j int) bool { return ds[i].from == ds[j].from && ds[i].to == ds[j].to }
	for i := 0; i < len(ds); {
		j := i + 1
		for j < len(ds) && ds[j] == ds[i] {
			j++
		}
		if j-i > 1 {
			split = split || (i > 0 && sameChild(i-1, i)) || (j < len(ds) && sameChild(j, i))
			land := ds[i].now + ds[i].lat
			deferred = deferred || (land >= lag[0] && land < lag[1])
		}
		i = j
	}
	return split, deferred
}

// TestFlightSeedsCoverShapes: splitSeed splits a child's departures
// into several flights, and lagSeed's kernel-lag window defers a
// multi-agent flight.
func TestFlightSeedsCoverShapes(t *testing.T) {
	if split, _ := flightShapes(splitSeed); !split {
		t.Errorf("splitSeed %+v splits no child's departures into several flights", splitSeed)
	}
	if _, deferred := flightShapes(lagSeed); !deferred {
		t.Errorf("lagSeed %+v defers no multi-agent flight", lagSeed)
	}
}

// TestUnitLatencySchedulesOneFlightPerTreeEdge: under unit latency
// every child's departures are one flight, so a run of any strategy
// schedules combin.CloningMoves(d) flights — one per broadcast-tree
// edge — plus, at each timestep 0..d, one flush, or the synchronous
// round clock's two steps.
func TestUnitLatencySchedulesOneFlightPerTreeEdge(t *testing.T) {
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			perStep := int64(1)
			if s.name == SynchronousName {
				perStep = 2
			}
			for d := 1; d <= 12; d++ {
				env := strategy.NewEnv(d, strategy.Options{})
				var events int64
				env.Sim.Intercept(func(int64, int64) int64 { events++; return 0 })
				s.engine(env)
				steps := perStep * int64(d+1)
				if want := combin.CloningMoves(d) + steps; events != want {
					t.Errorf("d=%d: %d events, want %d flights + %d flush or clock steps", d, events, combin.CloningMoves(d), steps)
				}
			}
		})
	}
}

// The engine must stay a multiple of the 64-byte cache line, as
// strategy.Env must: two pooled runs at once on different cores
// otherwise write and read one line from both sides.
func TestEngineSizeIsCacheLineMultiple(t *testing.T) {
	if n := unsafe.Sizeof(engine{}); n%64 != 0 {
		t.Errorf("engine is %d bytes; resize its trailing padding to reach a multiple of 64", n)
	}
}

// TestFlightPackingAtDimLimit: at every d the engine supports, the
// extreme flight — the last agent id of a visibility team, 2^(d-1)-1,
// to the child across label d-1, with the root's first child's
// complement 2^(d-2) — survives packFlight and unpackFlight. Raising
// MaxInlineDim past what the payload holds fails here.
func TestFlightPackingAtDimLimit(t *testing.T) {
	for d := 1; d <= MaxInlineDim; d++ {
		agent, label, count := int(combin.VisibilityAgents(d))-1, d-1, int(heapqueue.AgentsRequired(d-1))
		if a, l, c := unpackFlight(packFlight(agent, label, count)); a != agent || l != label || c != count {
			t.Errorf("d=%d: flight (agent %d, label %d, count %d) unpacks as (%d, %d, %d)", d, agent, label, count, a, l, c)
		}
	}
}

// TestInlinePooledResetIdentity: a pooled environment re-running the
// inline engine after Reset reproduces the fresh-environment run
// exactly, whichever strategy ran on it before — the engine's parked
// stacks, landings, waiting plane and strategy reset cleanly.
func TestInlinePooledResetIdentity(t *testing.T) {
	opts := strategy.Options{Record: true, Contiguity: strategy.CheckEveryMove}
	for _, s := range strategies {
		for _, prev := range strategies {
			t.Run(prev.name+"-then-"+s.name, func(t *testing.T) {
				for d := 1; d <= 8; d++ {
					fresh := runPath(s, d, strategy.Options{}, false)
					env := strategy.NewEnv(d, opts)
					prev.engine(env)
					env.Reset(opts)
					res := s.engine(env)
					if res != fresh.res {
						t.Fatalf("d=%d: pooled re-run diverges:\nfresh:  %+v\nre-run: %+v", d, fresh.res, res)
					}
					events := env.Log().Events()
					if len(events) != len(fresh.events) {
						t.Fatalf("d=%d: pooled re-run trace has %d events, fresh %d", d, len(events), len(fresh.events))
					}
					for i := range events {
						if events[i] != fresh.events[i] {
							t.Fatalf("d=%d: pooled re-run trace diverges at event %d: %+v vs %+v", d, i, events[i], fresh.events[i])
						}
					}
				}
			})
		}
	}
}
