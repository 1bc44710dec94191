// Package cloning implements the cloning variant of the visibility
// strategy (Section 5, "Observations on Cloning"): a single agent
// starts at the homebase, and agents clone themselves on demand, so
// nobody ever travels up from the root pool. Each broadcast-tree edge
// is traversed exactly once downward, for n-1 total moves, by a total
// of n/2 agents (one per broadcast-tree leaf).
//
// Local rule at node x of type T(k), on arrival of the single incoming
// agent and once every smaller neighbour is clean or guarded: clone
// k-1 times and send one agent down each broadcast-tree edge. Leaves
// terminate.
package cloning

import (
	"hypersearch/internal/bits"
	"hypersearch/internal/board"
	"hypersearch/internal/des"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// Name identifies the strategy in results and registries.
const Name = "cloning"

// Run executes the cloning variant on H_d.
func Run(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return RunEnv(env), env
}

// RunEnv executes the cloning variant on an existing (fresh or reset)
// environment; pooled sweeps use it to reuse environments.
func RunEnv(env *strategy.Env) metrics.Result {
	r := &shared{env: env, at: env.NodeLists()}
	r.landed = func(a, v int) { r.at[v] = append(r.at[v], a) }
	r.at[0] = append(r.at[0], env.Place(strategy.RoleCleaner))

	if env.H.Dim() > 0 {
		nodes := make([]node, env.H.Order())
		for v := range nodes {
			nodes[v] = node{r: r, v: v}
			nodes[v].Step = nodes[v].step
			env.Sim.SpawnInline(&nodes[v].Inline)
		}
	}
	env.Sim.Run()
	return env.Result(Name)
}

// shared is the state the node actors share.
type shared struct {
	env    *strategy.Env
	at     [][]int // node -> the (single) agent standing there
	movers []int   // dispatch scratch
	landed func(a, v int)
}

// node is the local rule of node v: an actor that waits with ParkNode
// until an agent stands on v and no smaller neighbour (label <= m(v))
// is contaminated, then clones and dispatches.
type node struct {
	des.Inline
	r *shared
	v int
}

func (n *node) step(*des.Simulator) {
	r, v := n.r, n.v
	env := r.env
	d, m := env.H.Dim(), bits.Msb(bits.Node(v))
	ready := len(r.at[v]) > 0
	for i := 0; ready && i < m; i++ {
		ready = env.B.StateOf(v^1<<i) != board.Contaminated
	}
	if !ready {
		env.ParkNode(&n.Inline, v)
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
