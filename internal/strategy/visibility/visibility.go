// Package visibility implements Algorithm CLEAN WITH VISIBILITY
// (Section 4 of the paper): agents can see the state of neighbouring
// nodes and act on a purely local rule, with no coordinator.
//
// Rule for the agents on node x of type T(k):
//
//   - While fewer than 2^(k-1) agents are on x (1 for k <= 1), wait.
//   - Once the complement is present and every smaller neighbour of x
//     is clean or guarded: send one agent to the bigger neighbour of
//     type T(0) and 2^(i-1) agents to the bigger neighbour of type
//     T(i) for 0 < i < k. Leaves terminate.
//
// The waiting condition is monotone (agent counts only grow until
// dispatch; smaller neighbours only progress toward clean/guarded), so
// the strategy is deadlock-free under arbitrary asynchrony; the
// robustness tests drive it with adversarial latencies.
//
// The package also runs the cloning variant (Section 5, "Observations
// on Cloning"): a single agent starts at the homebase and every node's
// complement is one agent. A ready node of type T(k) clones its agent
// k-1 times and sends one agent down each broadcast-tree edge, so each
// edge is traversed once, for n-1 moves by n/2 agents in all. Leaves
// terminate.
//
// It runs the synchronous variant (Section 5, "Observations on
// Synchronicity") too: agents move in lockstep rounds and start
// simultaneously, so no visibility is needed. The agents on node x
// move exactly at global time t = m(x) (the position of x's most
// significant bit); at that time all smaller neighbours of x are
// implicitly known to be clean or guarded. The team, the dispatch plan
// and the costs are visibility's. The run asserts, rather than
// assumes, the implicit-safety claim: at dispatch time the node must
// hold its full complement, and the run must finish with zero
// recontaminations — so every passing run is a constructive check of
// the Section 5 observation.
package visibility

import (
	"hypersearch/internal/combin"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// Name, CloningName and SynchronousName identify the strategy and its
// two variants in results and registries.
const (
	Name            = "visibility"
	CloningName     = "cloning"
	SynchronousName = "synchronous"
)

// Run executes the visibility strategy on H_d with the Theorem-5 team
// of n/2 agents and returns the run summary and environment.
func Run(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return RunEnv(env), env
}

// RunEnv executes the visibility strategy on an existing (fresh or
// reset) environment; pooled sweeps use it to reuse environments. It
// runs the event-driven engine (inline.go): no per-node polling,
// O(moves) work, bounded memory — the path that takes the algorithm to
// d=20 megannode boards.
func RunEnv(env *strategy.Env) metrics.Result { return run(env, kindVisibility) }

// RunCloningEnv executes the cloning variant on the same engine.
func RunCloningEnv(env *strategy.Env) metrics.Result { return run(env, kindCloning) }

// RunSynchronousEnv executes the synchronous variant on the same
// engine, whose round clock fires each node x at t = m(x). The variant
// is defined only for synchronous systems, so env's options must give
// unit latency; core's table row forces it.
func RunSynchronousEnv(env *strategy.Env) metrics.Result { return run(env, kindSynchronous) }

// run places the root's complement — the whole team, or the one agent
// a cloning run starts from — and runs the engine to completion: from
// the root's readiness, or from the round clock in a synchronous run.
func run(env *strategy.Env, k kind) metrics.Result {
	d := env.H.Dim()
	env.B.Reserve(int(combin.VisibilityAgents(d)))
	eng := engineFor(env, k)
	for i := eng.complement(d); i > 0; i-- {
		eng.stacks.Push(0, env.Place(strategy.RoleCleaner))
	}
	switch {
	case d == 0: // the root is the only node; nothing fires
	case k == kindSynchronous:
		env.Sim.SpawnInline(&eng.clock)
	default:
		eng.ready(env.Sim, 0)
	}
	env.Sim.Run()
	return env.Result(names[k])
}
