// Package coordinated implements Algorithm CLEAN (Section 3 of the
// paper): the synchronizer-led, level-by-level cleaning of the
// hypercube on its broadcast tree.
//
// One agent — the synchronizer — sequences the entire search:
//
//	Phase 0:   it escorts one agent from the root to each of the root's
//	           d broadcast-tree children, returning to the root each
//	           time.
//	Phase l:   (cleaning level l to l+1, for l = 1..d-1)
//	  step 2.1 back at the root, it has the pool send k-1 extra agents
//	           to every level-l node of type T(k), k >= 2 (couriers
//	           travel concurrently down the all-clean broadcast tree);
//	  step 2.2 it walks level l in increasing lexicographic order; at
//	           each node it waits for the node's full complement (its
//	           couriers wake it as they land), then escorts one agent
//	           down each broadcast-tree edge, returning between escorts;
//	  step 2.3 when it passes a leaf (type T(0)), the leaf's agent
//	           walks back to the root pool and becomes available again.
//
// Safety (Lemmas 1-2): when the last agent leaves a level-l node x,
// every level-(l+1) neighbour of x is already guarded, because its
// broadcast-tree parent is lexicographically smaller than x and was
// processed earlier in the walk. All navigation uses clear-bits-first
// shortest paths, which stay inside the already-clean lower levels, so
// a correct run has zero recontaminations.
package coordinated

import (
	"fmt"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/des"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// Name identifies the strategy in results and registries.
const Name = "clean"

// Run executes Algorithm CLEAN on H_d and returns the run summary and
// the environment (for trace/figure extraction). The team size is the
// exact Theorem-2 requirement; the run fails loudly if the pool ever
// proves insufficient, so a passing run is a constructive validation
// of the bound.
func Run(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return RunEnv(env), env
}

// RunEnv executes Algorithm CLEAN on an existing (fresh or reset)
// environment; pooled sweeps use it to reuse environments across runs.
func RunEnv(env *strategy.Env) metrics.Result {
	d := env.H.Dim()
	team := int(combin.CleanTeamSize(d))
	c := &cleaner{
		env:      env,
		d:        d,
		n:        env.H.Order(),
		at:       env.Stacks(team),
		hop:      -1,
		escortee: -1,
	}
	c.Step = c.step
	c.landCourier = c.courierLanded
	c.returnHome = c.returnerHome

	// The synchronizer is elected first (whiteboard access order); the
	// rest of the team forms the available pool at the root.
	env.B.Reserve(team)
	c.sync = env.Place(strategy.RoleSynchronizer)
	for i := 1; i < team; i++ {
		c.at.Push(0, env.Place(strategy.RoleCleaner))
	}

	if d > 0 {
		env.Sim.SpawnInline(&c.Inline)
	}
	env.Sim.Run()
	return env.Result(Name)
}

// The synchronizer's program counter. Between its values the
// synchronizer walks hop by hop to its target node; each value is what
// it does on reaching it.
const (
	pcEscort   = iota // on x: escort one agent down each tree edge in turn, returning between escorts
	pcDispatch        // on the root: step 2.1, send the couriers of the level-l cursor node
	pcArrive          // on the level-l cursor node, or back on the root past the level's end
	pcAwait           // on x: wait for its full complement
	pcDone
)

// cleaner is the synchronizer actor — its program counter runs over
// phase, level node and tree edge — plus the agent stacks it shares
// with the couriers and returners, which are Env.Walk actors.
type cleaner struct {
	des.Inline
	env  *strategy.Env
	d, n int
	sync int

	// at holds the cleaners gathered on each node. Node 0's stack is
	// the root pool: escorts and couriers land below the root, so
	// only the team's initial agents and returners are ever pushed
	// there.
	at strategy.Stacks
	// wake fires when a returner reaches the root or a courier lands on
	// x; the synchronizer waits on it for either and re-checks when woken.
	wake des.Signal

	pc       int
	l        int // phase: 0 escorts the root's children; l >= 1 cleans level l
	x        int // node worked on: 0 in phase 0, else the level-l cursor (bits.NextAtLevel order; >= n past its end)
	edge     int // next tree edge of x: the child is x | 1<<edge
	extras   int // couriers x still needs in step 2.1
	here     int // the synchronizer's node
	target   int // the node it is walking to
	hop      int // the node its hop in flight lands on, -1 when none
	escortee int // the cleaner crossing with that hop, -1 when none

	// Walk arrival callbacks, bound once per run.
	landCourier func(a, x int)
	returnHome  func(a, x int)
}

// step lands the synchronizer's hop in flight, if any, and runs its
// program to the next waiting point: a hop, the pool, or a node.
func (c *cleaner) step(s *des.Simulator) {
	env := c.env
	if c.hop >= 0 {
		// An escorted pair crosses as one action: one draw, two moves.
		env.ApplyMove(c.sync, c.hop, strategy.RoleSynchronizer)
		if c.escortee >= 0 {
			env.ApplyMove(c.escortee, c.hop, strategy.RoleCleaner)
			c.at.Push(c.hop, c.escortee)
			c.escortee = -1
		}
		c.here, c.hop = c.hop, -1
	}
	for {
		if c.here != c.target {
			c.hop = env.H.NextHopToward(c.here, c.target)
			s.AfterInline(env.MoveLatency(c.sync, c.here, c.hop, strategy.RoleSynchronizer), &c.Inline)
			return
		}
		switch c.pc {
		case pcEscort:
			switch {
			case c.here != c.x: // the escort landed on the child
				c.target = c.x
				c.edge++
			case c.edge < c.d:
				// Escort an agent off x's stack: in phase 0 x is the
				// root, whose stack is the pool (the team leaves it
				// at least d agents, and no returner is out yet to
				// wait for); later, the agents gathered on x.
				c.escortee, c.target = c.pop(c.x), c.x|1<<c.edge
			case c.l == 0:
				c.beginPhase(1)
			default:
				c.nextNode()
			}
		case pcDispatch:
			// Step 2.1: k-1 couriers to each type-T(k) node of level l,
			// k >= 2, drawn from the pool — waiting for returners when
			// it runs dry (they are always inbound, so this cannot
			// deadlock).
			if c.extras <= 0 {
				if c.x = int(bits.NextAtLevel(bits.Node(c.x))); c.x < c.n {
					c.extras = env.BT.Type(c.x) - 1
				} else {
					c.x = 1<<c.l - 1
					c.pc, c.target = pcArrive, c.x
				}
				continue
			}
			a := c.at.Pop(0)
			if a < 0 {
				s.Park(&c.wake, &c.Inline)
				return
			}
			env.Walk(a, c.x, c.landCourier)
			c.extras--
		case pcArrive:
			switch {
			case c.x >= c.n:
				c.beginPhase(c.l + 1)
			case env.BT.Type(c.x) == 0:
				// Step 2.3: the leaf agent returns to the pool.
				env.Walk(c.pop(c.x), 0, c.returnHome)
				c.nextNode()
			default:
				c.pc = pcAwait
			}
		case pcAwait:
			// Step 2.2: wait for the full complement of k agents
			// (extras may still be in flight), then escort one down
			// each tree edge.
			k, got := env.BT.Type(c.x), c.at.Count(c.x)
			if got < k {
				s.Park(&c.wake, &c.Inline)
				return
			}
			if got != k {
				panic(fmt.Sprintf("coordinated: node %d holds %d agents, want %d", c.x, got, k))
			}
			c.pc, c.edge = pcEscort, bits.Msb(bits.Node(c.x))
		case pcDone:
			return
		}
	}
}

// beginPhase starts phase l on the root (phases run for l = 1..d-1).
func (c *cleaner) beginPhase(l int) {
	c.l = l
	if l > c.d-1 {
		c.pc = pcDone
		return
	}
	c.x = 1<<l - 1
	c.pc, c.extras = pcDispatch, c.env.BT.Type(c.x)-1
}

// nextNode moves the level walk on to the next level-l node, or back
// to the root past the level's end.
func (c *cleaner) nextNode() {
	c.x = int(bits.NextAtLevel(bits.Node(c.x)))
	c.pc, c.target = pcArrive, 0
	if c.x < c.n {
		c.target = c.x
	}
}

// courierLanded registers a courier on its destination x and, if x is
// the node the synchronizer works on, wakes it: it may be waiting there
// for the node's complement.
func (c *cleaner) courierLanded(a, x int) {
	c.at.Push(x, a)
	if x == c.x {
		c.env.Sim.Fire(&c.wake)
	}
}

// returnerHome puts a returner back in the root pool and wakes the
// synchronizer if it is waiting for one.
func (c *cleaner) returnerHome(a, _ int) {
	c.at.Push(0, a)
	c.env.Sim.Fire(&c.wake)
}

// pop takes the last-arrived agent off node x's stack.
func (c *cleaner) pop(x int) int {
	a := c.at.Pop(x)
	if a < 0 {
		panic(fmt.Sprintf("coordinated: no agent to take at node %d", x))
	}
	return a
}
