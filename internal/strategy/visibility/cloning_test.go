package visibility

import (
	"testing"

	"hypersearch/internal/combin"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// runCloning executes the cloning variant on a fresh H_d environment.
func runCloning(d int, opts strategy.Options) (metrics.Result, *strategy.Env) {
	env := strategy.NewEnv(d, opts)
	return RunCloningEnv(env), env
}

func TestCloningSmallDimensionsFullChecks(t *testing.T) {
	for d := 0; d <= 8; d++ {
		r, _ := runCloning(d, strategy.Options{Contiguity: strategy.CheckEveryMove})
		if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
			t.Errorf("d=%d: %s", d, r.String())
		}
		if r.Recontaminations != 0 {
			t.Errorf("d=%d: %d recontaminations", d, r.Recontaminations)
		}
	}
}

func TestCloningMovesAreNMinus1(t *testing.T) {
	// Section 5: each broadcast-tree edge is traversed exactly once
	// downward: n-1 moves.
	for d := 1; d <= 10; d++ {
		r, _ := runCloning(d, strategy.Options{})
		if r.TotalMoves != combin.CloningMoves(d) {
			t.Errorf("d=%d: moves %d, want %d", d, r.TotalMoves, combin.CloningMoves(d))
		}
	}
}

func TestCloningAgentsAreNOver2(t *testing.T) {
	// One trajectory per broadcast-tree leaf: n/2 agents in total.
	for d := 1; d <= 10; d++ {
		r, _ := runCloning(d, strategy.Options{})
		if int64(r.TeamSize) != combin.VisibilityAgents(d) {
			t.Errorf("d=%d: agents %d, want %d", d, r.TeamSize, combin.VisibilityAgents(d))
		}
	}
}

func TestCloningTimeIsD(t *testing.T) {
	for d := 1; d <= 9; d++ {
		r, _ := runCloning(d, strategy.Options{})
		if r.Makespan != int64(d) {
			t.Errorf("d=%d: makespan %d", d, r.Makespan)
		}
	}
}

func TestCloningUnderAdversarialAsynchrony(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r, _ := runCloning(5, strategy.Options{
			Latency:    strategy.NewAdversarial(seed, 7),
			Contiguity: strategy.CheckEveryMove,
		})
		if !r.Ok() || r.TotalMoves != combin.CloningMoves(5) {
			t.Errorf("seed %d: %s", seed, r.String())
		}
	}
}

func TestCloningTraceReplays(t *testing.T) {
	r, env := runCloning(5, strategy.Options{Record: true})
	b, err := env.Log().Replay(env.H, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.AllClean() || b.Moves() != r.TotalMoves || b.Agents() != r.TeamSize {
		t.Error("replay disagrees with live run")
	}
}
