// Package core is the public face of the library: a single-call API
// over the paper's strategies (and the baselines), the three execution
// engines (deterministic discrete-event simulation, real goroutine
// concurrency, and message-passing hosts), and the cost/correctness
// summary they produce.
//
// One table decides which strategy runs on which engine, at which
// dimensions and under which fault kinds.
//
// Typical use:
//
//	res, env, err := core.Run(core.Spec{Strategy: core.Visibility, Dim: 8, Record: true})
//	fmt.Println(res)                 // agents, moves, time, invariants
//	fmt.Print(viz.CleanOrder(env.H, env.B, true)) // needs Record: true
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/faults"
	"hypersearch/internal/metrics"
	"hypersearch/internal/netarena"
	"hypersearch/internal/netsim"
	"hypersearch/internal/runtime"
	"hypersearch/internal/strategy"
	"hypersearch/internal/strategy/coordinated"
	"hypersearch/internal/strategy/naive"
	"hypersearch/internal/strategy/visibility"
	"hypersearch/internal/trace"
)

// Strategy names accepted by Spec.Strategy.
const (
	Clean       = coordinated.Name           // Algorithm 1: synchronizer-coordinated
	Visibility  = visibility.Name            // Algorithm 2: local rule with neighbour visibility
	Cloning     = visibility.CloningName     // Section 5 cloning variant
	Synchronous = visibility.SynchronousName // Section 5 synchronous variant
	NaiveDFS    = naive.DFSName              // oblivious single-agent sweep (baseline)
	NaiveConvoy = naive.ConvoyName           // oblivious convoy sweep (baseline)
)

// Engine names accepted by Spec.Engine.
const (
	EngineDES        = "des"        // deterministic discrete-event simulation (default)
	EngineGoroutines = "goroutines" // one goroutine per agent, real preemption
	EngineNetwork    = "network"    // message-passing hosts, 1-bit visibility beacons
)

// Spec describes one search run.
type Spec struct {
	Strategy string // which strategy; see the name constants
	Dim      int    // hypercube dimension d (n = 2^d)
	Engine   string // EngineDES (default), EngineGoroutines or EngineNetwork

	// Asynchrony: 0 runs with unit latency (ideal time on the DES). A
	// positive value runs the asynchronous adversary: per-move
	// latencies uniform in [1, AdversarialLatency] on the DES, random
	// sleeps of up to that many microseconds on goroutines, and
	// per-delivery latencies of up to that many microseconds on the
	// network engine. The synchronous variant always runs at unit
	// latency.
	AdversarialLatency int64
	Seed               int64

	ConvoyTeam     int  // team size for NaiveConvoy (default 1)
	CheckEveryMove bool // verify contiguity after every move (O(n) each)
	Record         bool // keep a structured trace (DES engine only)

	// Stream receives every trace event as the run emits it without
	// retaining anything (DES engine only) — the memory-bounded
	// alternative to Record for boards whose full logs do not fit in
	// memory; see trace.NewStream. Record and Stream are independent.
	Stream trace.Sink

	// Faults optionally injects a deterministic fault plan. A plan
	// carrying a kind the engine does not inject is rejected rather
	// than run with faults that never fire. The DES injects stall,
	// latency-spike, lock-starve and kernel-lag, and rejects delays
	// targeted at "order:<key>" (its moves carry no order key); the
	// network engine
	// the link kinds (link-drop, link-dup, link-delay, host-crash,
	// partition, cascade), less host-crash and cascade for clean; the
	// goroutine engine none (crash and lost-wakeup faults go through
	// runtime.Config.Faults). Link targets must name hosts of H_d.
	// The same (Spec, Faults) pair always produces the same Result,
	// which lets the campaign service cache runs by (d, protocol,
	// seed, Faults.CanonicalHash()).
	Faults *faults.Plan
}

// maxNetworkDim is the largest dimension the network engine accepts:
// it starts one host goroutine per node, 2^24 of them at the limit.
const maxNetworkDim = 24

// The fault kinds each engine injects. The DES's become move delays
// and a kernel interceptor (no DES strategy broadcasts wakeups, so
// lost-wakeup is not among them); the link kinds drive netsim's wire
// layer.
var (
	desFaults  = []faults.Kind{faults.Stall, faults.LatencySpike, faults.LockStarve, faults.KernelLag}
	linkFaults = []faults.Kind{faults.LinkDrop, faults.LinkDup, faults.LinkDelay, faults.Partition, faults.HostCrash, faults.Cascade}
)

// A row is one runnable (strategy, engine) pair. Its runner is the
// field of its engine; the other two are nil.
type row struct {
	strategy, engine string
	maxDim           int           // the smallest dimension is 0
	faults           []faults.Kind // the fault kinds the pair injects
	trace            bool          // keeps a trace and returns its Env (Record, Stream)
	unit             bool          // runs at unit latency whatever AdversarialLatency says
	forms            []closedForm  // the paper's closed forms the result meets

	des        func(*strategy.Env, Spec) metrics.Result
	goroutines func(int, runtime.Config) (runtime.Report, error)
	network    func(*netsim.Fabric, netsim.Config) netsim.Stats
}

// table holds every runnable pair, per engine in the order
// EngineStrategies lists them.
var table = []row{
	onDES(Clean, envOnly(coordinated.RunEnv), cleanTeam, cleanAgentMoves),
	// The visibility engine, which runs the cloning and synchronous
	// variants too, panics above visibility.MaxInlineDim.
	{strategy: Visibility, engine: EngineDES, maxDim: visibility.MaxInlineDim, faults: desFaults, trace: true,
		forms: []closedForm{visibilityTeam, visibilityMoves, logTime}, des: envOnly(visibility.RunEnv)},
	{strategy: Cloning, engine: EngineDES, maxDim: visibility.MaxInlineDim, faults: desFaults, trace: true,
		forms: []closedForm{visibilityTeam, cloningMoves, logTime}, des: envOnly(visibility.RunCloningEnv)},
	// The synchronous variant is defined only for unit latency. Its
	// lockstep assertion panics when a hop that an injected move delay
	// holds back has not landed by its destination's round (a delayed
	// hop that still lands in time changes nothing), and a kernel-lag
	// window pauses its round clock with every other event.
	{strategy: Synchronous, engine: EngineDES, maxDim: visibility.MaxInlineDim, faults: desFaults, trace: true, unit: true,
		forms: []closedForm{visibilityTeam, visibilityMoves, logTime}, des: envOnly(visibility.RunSynchronousEnv)},
	onDES(NaiveDFS, envOnly(naive.RunDFSEnv)),
	onDES(NaiveConvoy, func(env *strategy.Env, spec Spec) metrics.Result {
		return naive.RunConvoyEnv(env, max(spec.ConvoyTeam, 1))
	}),

	onGoroutines(Clean, runtime.RunClean, cleanTeam, cleanAgentMoves),
	onGoroutines(Visibility, runtime.RunVisibility, visibilityTeam, visibilityMoves),

	onNetwork(Visibility, linkFaults, netsim.RunOn, visibilityTeam, visibilityMoves),
	// CLEAN's protocol state rides the messages, so it cannot rebuild a
	// host that host-crash or cascade wiped.
	onNetwork(Clean, linkFaults[:4], netsim.RunCleanOn, cleanTeam, cleanAgentMoves),
	onNetwork(Cloning, linkFaults, netsim.RunCloningOn, visibilityTeam, cloningMoves),
}

func onDES(name string, run func(*strategy.Env, Spec) metrics.Result, forms ...closedForm) row {
	return row{strategy: name, engine: EngineDES, maxDim: bits.MaxDim, faults: desFaults, trace: true, forms: forms, des: run}
}

func onGoroutines(name string, run func(int, runtime.Config) (runtime.Report, error), forms ...closedForm) row {
	return row{strategy: name, engine: EngineGoroutines, maxDim: bits.MaxDim, forms: forms, goroutines: run}
}

func onNetwork(name string, kinds []faults.Kind, run func(*netsim.Fabric, netsim.Config) netsim.Stats, forms ...closedForm) row {
	return row{strategy: name, engine: EngineNetwork, maxDim: maxNetworkDim, faults: kinds, forms: forms, network: run}
}

// envOnly adapts a DES strategy that reads nothing from the spec.
func envOnly(run func(*strategy.Env) metrics.Result) func(*strategy.Env, Spec) metrics.Result {
	return func(env *strategy.Env, _ Spec) metrics.Result { return run(env) }
}

// A closedForm is one of the paper's exact costs. An ideal form holds
// only under unit latency without a fault plan.
type closedForm struct {
	metric string
	got    func(metrics.Result) int64
	want   func(d int) int64
	ideal  bool
}

var (
	cleanTeam = closedForm{"team", team, combin.CleanTeamSize, false} // Theorem 2
	// Theorem 3, less one move per root child: phase 0 places the
	// level-1 guards instead of escorting them up.
	cleanAgentMoves = closedForm{"agent moves", func(r metrics.Result) int64 { return r.AgentMoves },
		func(d int) int64 { return combin.CleanAgentMoves(d) - int64(d) }, false}
	visibilityTeam  = closedForm{"team", team, combin.VisibilityAgents, false}                                            // Theorem 5
	visibilityMoves = closedForm{"moves", totalMoves, combin.VisibilityMoves, false}                                      // Theorem 8
	cloningMoves    = closedForm{"moves", totalMoves, combin.CloningMoves, false}                                         // Section 5: n-1
	logTime         = closedForm{"time", func(r metrics.Result) int64 { return r.Makespan }, combin.VisibilityTime, true} // Theorem 7: d
)

func team(r metrics.Result) int64       { return int64(r.TeamSize) }
func totalMoves(r metrics.Result) int64 { return r.TotalMoves }

// Strategies lists the registered strategy names: those of the DES,
// which runs every strategy.
func Strategies() []string { return EngineStrategies(EngineDES) }

// EngineStrategies lists the strategies engine runs, in table order;
// it is empty for an unknown engine.
func EngineStrategies(engine string) []string {
	var names []string
	for i := range table {
		if table[i].engine == engine {
			names = append(names, table[i].strategy)
		}
	}
	return names
}

// lookup returns the row of spec's (strategy, engine) pair once the
// dimension, the trace options and the plan's fault kinds suit it.
func lookup(spec Spec) (*row, error) {
	engine := cmp.Or(spec.Engine, EngineDES)
	i := slices.IndexFunc(table, func(t row) bool { return t.strategy == spec.Strategy && t.engine == engine })
	if i < 0 {
		return nil, fmt.Errorf("core: no strategy %q on engine %q", spec.Strategy, engine)
	}
	r := &table[i]
	switch {
	case spec.Dim < 0 || spec.Dim > r.maxDim:
		return nil, fmt.Errorf("core: dimension %d out of range [0,%d] for %s on the %s engine", spec.Dim, r.maxDim, r.strategy, r.engine)
	case (spec.Record || spec.Stream != nil) && !r.trace:
		return nil, fmt.Errorf("core: %s on the %s engine keeps no trace; Record and Stream need the %s engine", r.strategy, r.engine, EngineDES)
	}
	if spec.Faults == nil {
		return r, nil
	}
	for _, f := range spec.Faults.Faults {
		if !slices.Contains(r.faults, f.Kind) {
			where := "no engine injects them through Spec.Faults"
			if i := slices.IndexFunc(table, func(t row) bool { return slices.Contains(t.faults, f.Kind) }); i >= 0 {
				where = fmt.Sprintf("%s on the %s engine does", table[i].strategy, table[i].engine)
			}
			return nil, fmt.Errorf("core: plan %q carries %s faults, which %s on the %s engine does not inject; %s", spec.Faults.Name, f.Kind, r.strategy, r.engine, where)
		}
		// A move delay counts its target's moves, and DES moves carry
		// no order key, so an order-targeted delay would never fire.
		if r.des != nil && f.Kind != faults.KernelLag && strings.HasPrefix(f.Target, "order:") {
			return nil, fmt.Errorf("core: plan %q targets %s faults at %q, but moves on the %s engine carry no order key, so they never fire", spec.Faults.Name, f.Kind, f.Target, r.engine)
		}
	}
	return r, nil
}

// admit returns spec's row once spec passes Check.
func admit(spec Spec) (*row, error) {
	r, err := lookup(spec)
	if err == nil {
		err = spec.Faults.ValidateForHosts(1 << spec.Dim)
	}
	return r, err
}

// Check reports whether Run would accept spec, building nothing: the
// (strategy, engine) pair needs a row whose range holds the dimension,
// whose trace serves Record and Stream, and whose fault kinds cover
// the plan, and the plan must be valid on H_d.
func Check(spec Spec) error {
	_, err := admit(spec)
	return err
}

// Run executes the spec and returns the result summary. For DES runs
// the returned Env exposes the topology, final board, and trace; for
// goroutine and network runs Env is nil (those engines run in real
// time and keep no virtual clock).
func Run(spec Spec) (metrics.Result, *strategy.Env, error) {
	return RunWith(spec, strategy.Fresh{})
}

// RunWith is Run with the DES execution environment drawn from src
// instead of freshly allocated: sweeps pass an envpool.Pool so runs of
// the same dimension reuse one environment. The returned Env is still
// owned by src — the caller must hand it back with src.Release once
// done reading results and traces, and must not touch it afterwards.
// Non-DES engines ignore src and behave exactly like Run.
func RunWith(spec Spec, src strategy.Source) (metrics.Result, *strategy.Env, error) {
	r, err := admit(spec)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	switch {
	case r.des != nil:
		opts := strategy.Options{Record: spec.Record, Stream: spec.Stream}
		if spec.CheckEveryMove {
			opts.Contiguity = strategy.CheckEveryMove
		}
		if spec.Faults != nil {
			opts.Faults = faults.NewInjector(spec.Faults)
		}
		env := src.Acquire(spec.Dim, opts)
		if spec.AdversarialLatency > 0 && !r.unit {
			env.Adversary(spec.Seed, spec.AdversarialLatency)
		}
		return r.des(env, spec), env, nil
	case r.goroutines != nil:
		rep, err := r.goroutines(spec.Dim, runtime.Config{
			Seed:       spec.Seed,
			MaxLatency: time.Duration(spec.AdversarialLatency) * time.Microsecond,
		})
		return rep.Result, nil, err
	default:
		return r.network(netsim.NewFabric(spec.Dim), netConfig(spec)).Result, nil, nil
	}
}

// RunNetwork runs spec on the network engine, on a fabric from a, and
// returns the wire accounting with the result. It checks spec as Check
// does but leaves the plan's fit to H_d to netsim, which checks it once
// per run and panics on a misfit: call Check first to get an error. A
// panicking run skips the Release, so a drops the poisoned fabric.
func RunNetwork(spec Spec, a *netarena.Arena) (netsim.Stats, error) {
	r, err := lookup(spec)
	if err == nil && r.network == nil {
		err = fmt.Errorf("core: RunNetwork runs the %s engine, not %s", EngineNetwork, r.engine)
	}
	if err != nil {
		return netsim.Stats{}, err
	}
	f := a.Acquire(spec.Dim)
	st := r.network(f, netConfig(spec))
	a.Release(f)
	return st, nil
}

func netConfig(spec Spec) netsim.Config {
	return netsim.Config{
		Seed:       spec.Seed,
		MaxLatency: time.Duration(spec.AdversarialLatency) * time.Microsecond,
		Faults:     spec.Faults,
	}
}

// CheckClosedForms reports whether res, the result of running spec,
// meets every closed form of the paper that holds for spec's row: the
// team size, the agent or total moves, and, under unit latency without
// faults, the makespan. The naive baselines have none.
func CheckClosedForms(spec Spec, res metrics.Result) error {
	r, err := lookup(spec)
	if err != nil {
		return err
	}
	ideal := (spec.AdversarialLatency == 0 || r.unit) && spec.Faults == nil
	for _, f := range r.forms {
		if f.ideal && !ideal {
			continue
		}
		if got, want := f.got(res), f.want(spec.Dim); got != want {
			return fmt.Errorf("core: %s on the %s engine at d=%d: %s %d, closed form %d", r.strategy, r.engine, spec.Dim, f.metric, got, want)
		}
	}
	return nil
}
