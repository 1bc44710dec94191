package netsim

import (
	"fmt"
	"sync"
	"testing"

	"hypersearch/internal/board"
	"hypersearch/internal/hypercube"
)

// lockedValidator is the single-mutex reference validator: every event
// applies to one shared board immediately, under one lock, so an
// invariant violation panics at the offending event. The engines run
// the striped validator; this one is the oracle dualValidator checks
// it against.
type lockedValidator struct {
	mu      sync.Mutex
	b       *board.Board
	pending map[int]int // agent -> source host while migrating
}

func newLockedValidator(h *hypercube.Hypercube) *lockedValidator {
	return &lockedValidator{b: board.New(h, 0)}
}

func (v *lockedValidator) place() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.b.Place(0)
}

func (v *lockedValidator) clone(at int) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.b.Clone(at, 0)
}

func (v *lockedValidator) depart(agent, from int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.pending == nil {
		v.pending = make(map[int]int)
	}
	v.pending[agent] = from
}

func (v *lockedValidator) arrive(agent, from, to int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if src, ok := v.pending[agent]; ok {
		delete(v.pending, agent)
		if src != from {
			panic(fmt.Sprintf("netsim: agent %d departed %d but arrived from %d", agent, src, from))
		}
		v.b.Move(agent, to, 0)
		return
	}
	// Boot-time arrival at the homebase: the agent is already there.
	if to != v.b.Home() {
		panic(fmt.Sprintf("netsim: arrival of non-migrating agent %d at %d", agent, to))
	}
}

func (v *lockedValidator) terminate(agent, _ int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.b.Terminate(agent, 0)
}

func (v *lockedValidator) stats(agentMsgs, beaconMsgs int64) Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return buildStats(v.b, agentMsgs, beaconMsgs)
}

// dualValidator feeds every event to both validator implementations
// under one outer mutex, so both observe the identical event order.
// Agent ids must agree call-for-call: both implementations assign them
// sequentially from zero.
type dualValidator struct {
	mu      sync.Mutex
	locked  *lockedValidator
	striped *stripedValidator
	t       *testing.T
}

func newDualValidator(t *testing.T, h *hypercube.Hypercube) *dualValidator {
	return &dualValidator{
		locked:  newLockedValidator(h),
		striped: newStripedValidator(h),
		t:       t,
	}
}

func (v *dualValidator) place() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	a, b := v.locked.place(), v.striped.place()
	if a != b {
		v.t.Errorf("place: locked id %d, striped id %d", a, b)
	}
	return a
}

func (v *dualValidator) clone(at int) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	a, b := v.locked.clone(at), v.striped.clone(at)
	if a != b {
		v.t.Errorf("clone at %d: locked id %d, striped id %d", at, a, b)
	}
	return a
}

func (v *dualValidator) depart(agent, from int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.locked.depart(agent, from)
	v.striped.depart(agent, from)
}

func (v *dualValidator) arrive(agent, from, to int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.locked.arrive(agent, from, to)
	v.striped.arrive(agent, from, to)
}

func (v *dualValidator) terminate(agent, at int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.locked.terminate(agent, at)
	v.striped.terminate(agent, at)
}

func (v *dualValidator) stats(agentMsgs, beaconMsgs int64) Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	a := v.locked.stats(agentMsgs, beaconMsgs)
	b := v.striped.stats(agentMsgs, beaconMsgs)
	if a != b {
		v.t.Errorf("stats diverge:\n  locked:  %+v\n  striped: %+v", a, b)
	}
	return a
}

// TestStripedMatchesLockedStats runs every protocol with both
// validators observing the identical event order and requires
// field-identical Stats at d <= 8.
func TestStripedMatchesLockedStats(t *testing.T) {
	protocols := []struct {
		name string
		run  func(d int, cfg Config) Stats
	}{
		{"visibility", Run},
		{"clean", RunClean},
		{"cloning", RunCloning},
	}
	for _, p := range protocols {
		for d := 0; d <= 8; d++ {
			if testing.Short() && d > 5 {
				continue
			}
			var dual *dualValidator
			cfg := Config{
				Seed: int64(7*d + 1),
				newValidator: func(h *hypercube.Hypercube) validator {
					dual = newDualValidator(t, h)
					return dual
				},
			}
			got := p.run(d, cfg)
			if dual == nil {
				t.Fatalf("%s d=%d: validator hook never invoked", p.name, d)
			}
			if !got.Captured || !got.MonotoneOK || !got.ContiguousOK {
				t.Errorf("%s d=%d: bad run %+v", p.name, d, got.Result)
			}
		}
	}
}

// TestStripedValidatorD12 is the scalability acceptance check: the
// visibility protocol must complete a d=12 run (4096 hosts) with the
// striped validator, including under the race detector, where the
// single-mutex validator used to serialize every host.
func TestStripedValidatorD12(t *testing.T) {
	if testing.Short() {
		t.Skip("d=12 network run is long in -short mode")
	}
	s := Run(12, Config{})
	if !s.Captured || !s.MonotoneOK || !s.ContiguousOK {
		t.Fatalf("d=12 striped run invalid: %+v", s.Result)
	}
	if s.TeamSize == 0 || s.AgentMoves == 0 {
		t.Fatalf("d=12 run produced empty stats: %+v", s.Result)
	}
}
