package visibility_test

import (
	"testing"

	"hypersearch/internal/combin"
	"hypersearch/internal/core"
	"hypersearch/internal/faults"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
	"hypersearch/internal/strategy/visibility"
	"hypersearch/internal/trace"
)

// runSynchronous executes the synchronous variant on a fresh H_d
// environment.
func runSynchronous(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return visibility.RunSynchronousEnv(env), env
}

func TestSynchronousSmallDimensionsFullChecks(t *testing.T) {
	for d := 0; d <= 8; d++ {
		r, _ := runSynchronous(d, strategy.Options{Contiguity: strategy.CheckEveryMove})
		if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
			t.Errorf("d=%d: %s", d, r.String())
		}
		// A passing run certifies the Section 5 claim: dispatching at
		// t = m(x) with no visibility never recontaminates.
		if r.Recontaminations != 0 {
			t.Errorf("d=%d: %d recontaminations", d, r.Recontaminations)
		}
	}
}

func TestSynchronousMatchesVisibilityCosts(t *testing.T) {
	// Same agents (n/2), same time (d), same moves as the visibility
	// strategy — only the model differs.
	for d := 1; d <= 9; d++ {
		r, _ := runSynchronous(d, strategy.Options{})
		if int64(r.TeamSize) != combin.VisibilityAgents(d) {
			t.Errorf("d=%d: team %d", d, r.TeamSize)
		}
		if r.Makespan != combin.VisibilityTime(d) {
			t.Errorf("d=%d: makespan %d", d, r.Makespan)
		}
		if r.TotalMoves != combin.VisibilityMoves(d) {
			t.Errorf("d=%d: moves %d", d, r.TotalMoves)
		}
	}
}

func TestSynchronousForcesUnitLatency(t *testing.T) {
	// The variant is undefined for asynchronous systems; core's table
	// row overrides the latency model rather than miscount rounds.
	r, _, err := core.Run(core.Spec{Strategy: core.Synchronous, Dim: 5, AdversarialLatency: 9, Seed: 3})
	if err != nil || !r.Ok() || r.Makespan != 5 {
		t.Errorf("latency override failed: %s (err %v)", r.String(), err)
	}
}

// TestSynchronousKernelLagPausesClock: a kernel-lag window [from, to)
// defers every event due inside it to its end, the round clock's and
// the landings' alike, so the whole schedule pauses with the kernel:
// the run succeeds, and its trace is the fault-free one with every
// event from time from on, bar the placements, delayed by to-from.
func TestSynchronousKernelLagPausesClock(t *testing.T) {
	for d := 1; d <= 6; d++ {
		_, env := runSynchronous(d, strategy.Options{Record: true})
		want := env.Log().Events()
		for from := int64(0); from <= int64(d); from++ {
			for to := from + 1; to <= from+3; to++ {
				plan := &faults.Plan{Name: "lag", Faults: []faults.Fault{{Kind: faults.KernelLag, From: from, To: to}}}
				r, env := runSynchronous(d, strategy.Options{Record: true, Faults: faults.NewInjector(plan)})
				if !r.Ok() || r.Makespan != int64(d)+to-from {
					t.Fatalf("d=%d lag [%d,%d): %s, want a clean run of makespan %d", d, from, to, r.String(), int64(d)+to-from)
				}
				got := env.Log().Events()
				if len(got) != len(want) {
					t.Fatalf("d=%d lag [%d,%d): %d events, want %d", d, from, to, len(got), len(want))
				}
				for i, ev := range want {
					if ev.Kind != trace.Place && ev.Time >= from {
						ev.Time += to - from
					}
					if got[i] != ev {
						t.Fatalf("d=%d lag [%d,%d): event %d is %+v, want %+v", d, from, to, i, got[i], ev)
					}
				}
			}
		}
	}
}
