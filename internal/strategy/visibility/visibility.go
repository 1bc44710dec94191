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
package visibility

import (
	"hypersearch/internal/combin"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// Name and CloningName identify the strategy and its cloning variant
// in results and registries.
const (
	Name        = "visibility"
	CloningName = "cloning"
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
func RunEnv(env *strategy.Env) metrics.Result { return run(env, false) }

// RunCloningEnv executes the cloning variant on the same engine.
func RunCloningEnv(env *strategy.Env) metrics.Result { return run(env, true) }

// run places the root's complement — the whole team, or the one agent
// a cloning run starts from — and runs the engine to completion.
func run(env *strategy.Env, clone bool) metrics.Result {
	d := env.H.Dim()
	env.B.Reserve(int(combin.VisibilityAgents(d)))
	eng := engineFor(env, clone)
	for i := eng.complement(d); i > 0; i-- {
		eng.stacks.Push(0, env.Place(strategy.RoleCleaner))
	}
	if d > 0 {
		eng.ready(env.Sim, 0)
	}
	env.Sim.Run()
	if clone {
		return env.Result(CloningName)
	}
	return env.Result(Name)
}
