package visibility

import (
	"fmt"
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
// node-actor reference paths of both strategies it runs: identical
// traces (every event, in order, with times), identical metrics,
// identical clean orders and clean times — under unit latency,
// adversarial latency, and seeded fault plans alike. These tests state
// that claim as a property over strategies, dimensions and seeds.

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
			env.Walk(a, child, strategy.RoleCleaner, landed)
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
		env.Walk(mover, v|1<<(m+i), strategy.RoleCleaner, r.landed)
	}
}

// capture is everything observable about one run.
type capture struct {
	res        metrics.Result
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
	if legacy {
		w.sim, w.d, w.sigs = env.Sim, d, make([]des.Signal, env.H.Order())
		c.res = s.legacy(env, &w)
	} else {
		c.res = s.engine(env)
	}
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

// assertIdentical compares two captures field by field with a usable
// first-divergence report.
func assertIdentical(t *testing.T, legacy, inline capture) {
	t.Helper()
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
		}
	}
}

// flightCase is one FuzzInlineMatchesLegacy input, decoded by
// options: dimension 1+D%6; unit latency when Bound%17 is 0, else the
// adversary at bound Bound%17 seeded by Seed; a kernel-lag window
// [LagFrom%32, LagFrom%32+LagLen%32) when LagLen%32 > 0; a stall of
// StallDelay%16 on move 1+StallAt%64 when StallDelay%16 > 0; the
// cloning variant when Cloning, else visibility.
type flightCase struct {
	D                   uint8
	Seed                int64
	Bound               uint8
	LagFrom, LagLen     uint8
	StallAt, StallDelay uint8
	Cloning             bool
}

func (c flightCase) dim() int     { return 1 + int(c.D%6) }
func (c flightCase) bound() int64 { return int64(c.Bound % 17) }
func (c flightCase) lag() [2]int64 {
	return [2]int64{int64(c.LagFrom % 32), int64(c.LagFrom%32) + int64(c.LagLen%32)}
}
func (c flightCase) pair() pathPair {
	if c.Cloning {
		return strategies[1]
	}
	return strategies[0]
}

// options builds a fresh run's options: each call has its own RNG and
// injector, so the two paths consume identical sequences.
func (c flightCase) options() strategy.Options {
	var opts strategy.Options
	if b := c.bound(); b > 0 {
		opts.Latency = strategy.NewAdversarial(c.Seed, b)
	}
	var fs []faults.Fault
	if lag := c.lag(); lag[1] > lag[0] {
		fs = append(fs, faults.Fault{Kind: faults.KernelLag, From: lag[0], To: lag[1]})
	}
	if delay := int64(c.StallDelay % 16); delay > 0 {
		fs = append(fs, faults.Fault{Kind: faults.Stall, Target: faults.TargetAny, At: 1 + int(c.StallAt%64), Delay: delay})
	}
	if fs != nil {
		opts.Faults = faults.NewInjector(&faults.Plan{Name: "fuzz", Seed: c.Seed, Faults: fs})
	}
	return opts
}

// FuzzInlineMatchesLegacy's seed corpus, run for visibility and then
// for cloning: unit latency, bound 1 (every draw equal, so each
// child's departures are one flight), splitSeed (mixed draws split a
// child's departures into several flights), lagSeed (a kernel-lag
// window defers a multi-agent flight) and lag plus a stall.
// TestFlightSeedsCoverShapes checks, for visibility, the two seeds
// whose shape depends on the draws; a cloning flight carries one agent.
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
)

// FuzzInlineMatchesLegacy: the engine's batched flights, board-read
// readiness, replayed flush order and dispatch-time clones reproduce the
// reference paths under fuzzed strategies, dimensions, latency bounds,
// kernel-lag windows and stalls.
func FuzzInlineMatchesLegacy(f *testing.F) {
	for _, cloning := range []bool{false, true} {
		for _, c := range flightSeeds {
			f.Add(c.D, c.Seed, c.Bound, c.LagFrom, c.LagLen, c.StallAt, c.StallDelay, cloning)
		}
	}
	f.Fuzz(func(t *testing.T, d uint8, seed int64, bound, lagFrom, lagLen, stallAt, stallDelay uint8, cloning bool) {
		c := flightCase{D: d, Seed: seed, Bound: bound, LagFrom: lagFrom, LagLen: lagLen, StallAt: stallAt, StallDelay: stallDelay, Cloning: cloning}
		s := c.pair()
		assertIdentical(t, runPath(s, c.dim(), c.options(), true), runPath(s, c.dim(), c.options(), false))
	})
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

	lag, ds := c.lag(), log.draws
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
// every child's departures are one flight, so a run of either strategy
// schedules combin.CloningMoves(d) flights — one per broadcast-tree
// edge — plus one flush per timestep 0..d.
func TestUnitLatencySchedulesOneFlightPerTreeEdge(t *testing.T) {
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			for d := 1; d <= 12; d++ {
				env := strategy.NewEnv(d, strategy.Options{})
				var events int64
				env.Sim.Intercept(func(int64, int64) int64 { events++; return 0 })
				s.engine(env)
				if want := combin.CloningMoves(d) + int64(d) + 1; events != want {
					t.Errorf("d=%d: %d events, want %d flights + %d flushes", d, events, combin.CloningMoves(d), d+1)
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
