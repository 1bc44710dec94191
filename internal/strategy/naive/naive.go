// Package naive implements contamination-oblivious sweep baselines:
// traversals that visit every node but do not guard the frontier. They
// motivate the paper's problem — against an arbitrarily fast intruder,
// covering the graph is not capturing (experiment X4).
package naive

import (
	"hypersearch/internal/des"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// DFSName and ConvoyName identify the baselines in results.
const (
	DFSName    = "naive-dfs"
	ConvoyName = "naive-convoy"
)

// RunDFS sweeps H_d with a single agent walking a depth-first
// traversal (each tree retreat walks back along tree edges). It visits
// every node, but the contamination closure reclaims territory behind
// it; the result records how badly.
func RunDFS(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return RunDFSEnv(env), env
}

// RunDFSEnv executes the DFS baseline on an existing environment: the
// convoy of one.
func RunDFSEnv(env *strategy.Env) metrics.Result {
	runConvoy(env, 1)
	return env.Result(DFSName)
}

// RunConvoy sweeps with `team` agents marching in single file along the
// same DFS route, one step apart: more bodies, same obliviousness. It
// shows that throwing agents at an unguarded sweep does not help until
// the team is large enough to behave like a frontier.
func RunConvoy(d, team int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return RunConvoyEnv(env, team), env
}

// RunConvoyEnv executes the convoy baseline on an existing environment.
func RunConvoyEnv(env *strategy.Env, team int) metrics.Result {
	if team < 1 {
		team = 1
	}
	runConvoy(env, team)
	return env.Result(ConvoyName)
}

// runConvoy places the team and marches it along the DFS walk;
// Env.Result retires it in place.
func runConvoy(env *strategy.Env, team int) {
	c := &convoy{env: env, agents: make([]int, team)}
	for i := range c.agents {
		c.agents[i] = env.Place(strategy.RoleCleaner)
	}
	if env.H.Dim() > 0 {
		c.walk = expandWalk(env)
		c.Step = c.step
		env.Sim.SpawnInline(&c.Inline)
	}
	env.Sim.Run()
}

// convoy is the marching team as one actor: at each walk position the
// agents move one after another, agent i trailing agent i-1 by one
// position, so the team guards a moving window of `team` nodes behind
// the leader. Its cursor is (pos, i): agent i's next move is to
// walk[pos-i].
type convoy struct {
	des.Inline
	env    *strategy.Env
	agents []int
	walk   []int
	pos, i int
	moving bool // a move of agents[i] to walk[pos-i] is in flight
}

func (c *convoy) step(s *des.Simulator) {
	env := c.env
	if c.moving {
		env.ApplyMove(c.agents[c.i], c.walk[c.pos-c.i], strategy.RoleCleaner)
		c.i++
	}
	for ; c.pos < len(c.walk)+len(c.agents)-1; c.pos, c.i = c.pos+1, 0 {
		for ; c.i < len(c.agents); c.i++ {
			if idx := c.pos - c.i; idx >= 0 && idx < len(c.walk) {
				a := c.agents[c.i]
				from, _ := env.B.Position(a)
				c.moving = true
				s.AfterInline(env.MoveLatency(a, from, c.walk[idx], strategy.RoleCleaner), &c.Inline)
				return
			}
		}
	}
	c.moving = false
}

// expandWalk turns the DFS of the hypercube into a legal edge walk
// starting at the homebase (with backtrack steps), excluding the start
// node itself: every tree edge down and back, 2(n-1) hops.
func expandWalk(env *strategy.Env) []int {
	seen := make([]bool, env.H.Order())
	walk := make([]int, 0, 2*(env.H.Order()-1))
	var rec func(v int)
	rec = func(v int) {
		seen[v] = true
		env.H.VisitNeighbours(v, func(w int) bool {
			if !seen[w] {
				walk = append(walk, w)
				rec(w)
				walk = append(walk, v)
			}
			return true
		})
	}
	rec(0)
	return walk
}
