// Package synchronous implements the synchronous variant of Section 5
// ("Observations on Synchronicity"): agents move in lockstep rounds
// and start simultaneously, so no visibility is needed. The agents on
// node x move exactly at global time t = m(x) (the position of x's
// most significant bit); at that time all smaller neighbours of x are
// implicitly known to be clean or guarded.
//
// The implementation asserts, rather than assumes, the implicit-safety
// claim: at dispatch time the node must hold its full complement, and
// the run must finish with zero recontaminations — so every passing
// run is a constructive check of the Section 5 observation.
package synchronous

import (
	"fmt"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/des"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// Name identifies the strategy in results and registries.
const Name = "synchronous"

// Run executes the synchronous variant on H_d. The latency model is
// forced to unit latency: the variant is only defined for synchronous
// systems.
func Run(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	opts.Latency = strategy.Unit{}
	env := strategy.NewEnv(d, opts)
	return RunEnv(env), env
}

// RunEnv executes the synchronous variant on an existing environment,
// whose options must already force unit latency (the variant is only
// defined for synchronous systems; Run and core.Run arrange this).
func RunEnv(env *strategy.Env) metrics.Result {
	team := int(combin.VisibilityAgents(env.H.Dim()))
	at := env.NodeLists()
	for i := 0; i < team; i++ {
		at[0] = append(at[0], env.Place(strategy.RoleCleaner))
	}

	if env.H.Dim() > 0 {
		landed := func(a, v int) { at[v] = append(at[v], a) }
		nodes := make([]node, env.H.Order())
		for v := range nodes {
			nodes[v] = node{env: env, at: at, landed: landed, v: v}
			nodes[v].Step = nodes[v].step
			env.Sim.SpawnInline(&nodes[v].Inline)
		}
	}
	env.Sim.Run()
	return env.Result(Name)
}

// node is the schedule of node v: an actor that sleeps until round
// m(x), dispatches its complement, and is done.
type node struct {
	des.Inline
	env    *strategy.Env
	at     [][]int // node -> agent ids standing there
	landed func(a, v int)
	v      int
	steps  int
}

func (n *node) step(s *des.Simulator) {
	env, at, v := n.env, n.at, n.v
	d, m := env.H.Dim(), bits.Msb(bits.Node(v))
	switch n.steps++; n.steps {
	case 1:
		s.AfterInline(int64(m), &n.Inline) // t = m(x)
		return
	case 2:
		// Step once more so that arrivals scheduled for this same
		// round (from t = m(x)-1) apply first: in continuous time an
		// arrival "at t" precedes the dispatch "at t".
		s.AfterInline(0, &n.Inline)
		return
	}
	// No visibility read: the schedule itself must guarantee the
	// complement has arrived. Assert it.
	if required := int(heapqueue.AgentsRequired(d - m)); len(at[v]) != required {
		panic(fmt.Sprintf("synchronous: node %d holds %d agents at t=%d, want %d",
			v, len(at[v]), s.Now(), required))
	}
	if m == d {
		env.Terminate(at[v][0])
		at[v] = at[v][:0]
		return
	}
	// 2^(i-1) agents to the T(i) child and one to the T(0) child, in
	// child order (heapqueue.DispatchPlan).
	for i := m; i < d; i++ {
		for j := heapqueue.AgentsRequired(d - i - 1); j > 0; j-- {
			a := at[v][len(at[v])-1]
			at[v] = at[v][:len(at[v])-1]
			env.Walk(a, v|1<<i, strategy.RoleCleaner, n.landed)
		}
	}
}
