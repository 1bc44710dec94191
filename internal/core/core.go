// Package core is the public face of the library: a single-call API
// over the paper's strategies (and the baselines), the two execution
// engines (deterministic discrete-event simulation and real goroutine
// concurrency), and the cost/correctness summary they produce.
//
// Typical use:
//
//	res, env, err := core.Run(core.Spec{Strategy: core.Visibility, Dim: 8, Record: true})
//	fmt.Println(res)                 // agents, moves, time, invariants
//	fmt.Print(viz.CleanOrder(env.H, env.B, true)) // needs Record: true
package core

import (
	"fmt"
	"slices"
	"time"

	"hypersearch/internal/bits"
	"hypersearch/internal/faults"
	"hypersearch/internal/metrics"
	"hypersearch/internal/netsim"
	"hypersearch/internal/runtime"
	"hypersearch/internal/strategy"
	"hypersearch/internal/strategy/cloning"
	"hypersearch/internal/strategy/coordinated"
	"hypersearch/internal/strategy/naive"
	"hypersearch/internal/strategy/synchronous"
	"hypersearch/internal/strategy/visibility"
	"hypersearch/internal/trace"
)

// Strategy names accepted by Spec.Strategy.
const (
	Clean       = coordinated.Name // Algorithm 1: synchronizer-coordinated
	Visibility  = visibility.Name  // Algorithm 2: local rule with neighbour visibility
	Cloning     = cloning.Name     // Section 5 cloning variant
	Synchronous = synchronous.Name // Section 5 synchronous variant
	NaiveDFS    = naive.DFSName    // oblivious single-agent sweep (baseline)
	NaiveConvoy = naive.ConvoyName // oblivious convoy sweep (baseline)
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
	Engine   string // EngineDES (default) or EngineGoroutines

	// Asynchrony: 0 runs the DES with unit latency (ideal time). A
	// positive value runs the asynchronous adversary — per-move
	// latencies uniform in [1, AdversarialLatency] on the DES, or
	// random sleeps up to that many microseconds on goroutines.
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

	// Faults optionally injects a deterministic fault plan. On the DES
	// engine the plan's delay faults (stall, latency-spike,
	// lock-starve, lost-wakeup, kernel-lag) compile to an injector;
	// crash faults need the crash-tolerant goroutine runtime and link
	// faults need the network engine, so plans carrying either are
	// rejected rather than silently not firing. On the network engine
	// the plan's link faults drive the wire layer (netsim validates
	// them against the topology at config time). Determinism is
	// preserved: the same (Spec, Faults) pair always produces the same
	// Result, which is what lets the campaign service cache runs by
	// (d, protocol, seed, Faults.CanonicalHash()).
	Faults *faults.Plan
}

// strategyNames is the registry checkSpec consults; Strategies hands
// out copies.
var strategyNames = []string{Clean, Visibility, Cloning, Synchronous, NaiveDFS, NaiveConvoy}

// Strategies lists the registered strategy names.
func Strategies() []string { return slices.Clone(strategyNames) }

// maxNetworkDim is the largest dimension the network engine accepts:
// it starts one host goroutine per node, 2^24 of them at the limit.
const maxNetworkDim = 24

// checkSpec rejects, before any engine builds an environment, an
// unknown strategy and a dimension outside the engine's range:
// [0, bits.MaxDim] everywhere, and at most maxNetworkDim on the network
// engine.
func checkSpec(spec Spec) error {
	if !slices.Contains(strategyNames, spec.Strategy) {
		return fmt.Errorf("core: unknown strategy %q", spec.Strategy)
	}
	if spec.Dim < 0 || spec.Dim > bits.MaxDim {
		return fmt.Errorf("core: dimension %d out of range [0,%d]", spec.Dim, bits.MaxDim)
	}
	if spec.Engine == EngineNetwork && spec.Dim > maxNetworkDim {
		return fmt.Errorf("core: dimension %d exceeds the network engine's limit of %d (one host goroutine per node)", spec.Dim, maxNetworkDim)
	}
	return nil
}

// Run executes the spec and returns the result summary. For DES runs
// the returned Env exposes the topology, final board, and trace; for
// goroutine runs Env is nil (the engine is real-time and keeps no
// virtual clock).
func Run(spec Spec) (metrics.Result, *strategy.Env, error) {
	if err := checkSpec(spec); err != nil {
		return metrics.Result{}, nil, err
	}
	switch spec.Engine {
	case "", EngineDES:
		return runDES(spec, strategy.Fresh{})
	case EngineGoroutines:
		return runGoroutines(spec)
	case EngineNetwork:
		if spec.Faults != nil {
			if err := spec.Faults.ValidateForHosts(1 << spec.Dim); err != nil {
				return metrics.Result{}, nil, err
			}
			if spec.Strategy == Clean && spec.Faults.HasHostCrashFaults() {
				return metrics.Result{}, nil, fmt.Errorf("core: plan %q carries host-crash/cascade faults, which the clean network engine rejects", spec.Faults.Name)
			}
		}
		cfg := netsim.Config{
			Seed:       spec.Seed,
			MaxLatency: time.Duration(spec.AdversarialLatency) * time.Microsecond,
			Faults:     spec.Faults,
		}
		switch spec.Strategy {
		case Visibility:
			return netsim.Run(spec.Dim, cfg).Result, nil, nil
		case Clean:
			return netsim.RunClean(spec.Dim, cfg).Result, nil, nil
		case Cloning:
			return netsim.RunCloning(spec.Dim, cfg).Result, nil, nil
		default:
			return metrics.Result{}, nil, fmt.Errorf("core: strategy %q has no network engine", spec.Strategy)
		}
	default:
		return metrics.Result{}, nil, fmt.Errorf("core: unknown engine %q", spec.Engine)
	}
}

// RunWith is Run with the DES execution environment drawn from src
// instead of freshly allocated: sweeps pass an envpool.Pool so runs of
// the same dimension reuse one environment. The returned Env is still
// owned by src — the caller must hand it back with src.Release once
// done reading results and traces, and must not touch it afterwards.
// Non-DES engines ignore src and behave exactly like Run.
func RunWith(spec Spec, src strategy.Source) (metrics.Result, *strategy.Env, error) {
	if spec.Engine != "" && spec.Engine != EngineDES {
		return Run(spec)
	}
	if err := checkSpec(spec); err != nil {
		return metrics.Result{}, nil, err
	}
	return runDES(spec, src)
}

func runDES(spec Spec, src strategy.Source) (metrics.Result, *strategy.Env, error) {
	opts := strategy.Options{Record: spec.Record, Stream: spec.Stream}
	if spec.CheckEveryMove {
		opts.Contiguity = strategy.CheckEveryMove
	}
	if spec.Faults != nil {
		if err := spec.Faults.Validate(); err != nil {
			return metrics.Result{}, nil, err
		}
		if spec.Faults.RequiresRecovery() {
			return metrics.Result{}, nil, fmt.Errorf("core: plan %q carries crash faults, which need the goroutine runtime's crash recovery (runtime.RunClean with Config.Faults)", spec.Faults.Name)
		}
		if spec.Faults.HasLinkFaults() {
			return metrics.Result{}, nil, fmt.Errorf("core: plan %q carries link faults, which need the network engine", spec.Faults.Name)
		}
		opts.Faults = faults.NewInjector(spec.Faults)
	}
	if spec.AdversarialLatency > 0 {
		opts.Latency = strategy.NewAdversarial(spec.Seed, spec.AdversarialLatency)
	}
	if spec.Strategy == Synchronous {
		// The synchronous variant is only defined for unit latency.
		opts.Latency = strategy.Unit{}
	}
	var res metrics.Result
	env := src.Acquire(spec.Dim, opts)
	switch spec.Strategy {
	case Clean:
		res = coordinated.RunEnv(env)
	case Visibility:
		res = visibility.RunEnv(env)
	case Cloning:
		res = cloning.RunEnv(env)
	case Synchronous:
		res = synchronous.RunEnv(env)
	case NaiveDFS:
		res = naive.RunDFSEnv(env)
	case NaiveConvoy:
		team := spec.ConvoyTeam
		if team < 1 {
			team = 1
		}
		res = naive.RunConvoyEnv(env, team)
	default:
		panic(fmt.Sprintf("core: strategy %q passed checkSpec but has no DES dispatch", spec.Strategy))
	}
	return res, env, nil
}

func runGoroutines(spec Spec) (metrics.Result, *strategy.Env, error) {
	if spec.Faults != nil {
		return metrics.Result{}, nil, fmt.Errorf("core: fault plans on the goroutine engine go through runtime.Config.Faults, not Spec.Faults")
	}
	cfg := runtime.Config{
		Seed:       spec.Seed,
		MaxLatency: time.Duration(spec.AdversarialLatency) * time.Microsecond,
	}
	var rep runtime.Report
	var err error
	switch spec.Strategy {
	case Clean:
		rep, err = runtime.RunClean(spec.Dim, cfg)
	case Visibility:
		rep, err = runtime.RunVisibility(spec.Dim, cfg)
	default:
		return metrics.Result{}, nil, fmt.Errorf("core: strategy %q has no goroutine engine", spec.Strategy)
	}
	return rep.Result, nil, err
}
