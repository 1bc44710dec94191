// Package synchronous implements the synchronous variant of Section 5
// ("Observations on Synchronicity"): agents move in lockstep rounds
// and start simultaneously, so no visibility is needed. The agents on
// node x move exactly at global time t = m(x) (the position of x's
// most significant bit); at that time all smaller neighbours of x are
// implicitly known to be clean or guarded. One actor, a global round
// clock, drives the schedule.
//
// The implementation asserts, rather than assumes, the implicit-safety
// claim: at dispatch time the node must hold its full complement, and
// the run must finish with zero recontaminations — so every passing
// run is a constructive check of the Section 5 observation.
package synchronous

import (
	"fmt"

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
	c := &clock{env: env, at: env.Stacks(team)}
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
	return env.Result(Name)
}

// clock is the global round clock: an actor that, at each time t = m,
// dispatches the complements of the nodes x with m(x) = m, then
// schedules itself one round later, until round d.
type clock struct {
	des.Inline
	env    *strategy.Env
	at     strategy.Stacks // the agents standing on each node
	landed func(a, v int)
	m      int  // the round
	waited bool // stepped once at t = m already, behind the round's arrivals
}

func (c *clock) step(s *des.Simulator) {
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
				env.Walk(c.at.Pop(v), v|1<<i, strategy.RoleCleaner, c.landed)
			}
		}
	}
	if m < d {
		c.m++
		s.AfterInline(1, &c.Inline)
	}
}
