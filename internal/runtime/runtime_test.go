package runtime

import (
	"fmt"
	"testing"
	"time"

	"hypersearch/internal/combin"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
	"hypersearch/internal/strategy/coordinated"
	"hypersearch/internal/strategy/visibility"
)

// resultOf unwraps a run's report, failing the test on a run error:
// resultOf(t)(RunClean(d, cfg)).
func resultOf(t *testing.T) func(Report, error) metrics.Result {
	return func(rep Report, err error) metrics.Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Result
	}
}

func TestRunVisibilityCorrectUnderConcurrency(t *testing.T) {
	for d := 0; d <= 7; d++ {
		r := resultOf(t)(RunVisibility(d, Config{Seed: int64(d), MaxLatency: 50 * time.Microsecond}))
		if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
			t.Errorf("d=%d: %s", d, r.String())
		}
		if r.Recontaminations != 0 {
			t.Errorf("d=%d: %d recontaminations", d, r.Recontaminations)
		}
		if int64(r.TeamSize) != combin.VisibilityAgents(d) {
			t.Errorf("d=%d: team %d", d, r.TeamSize)
		}
		if d > 0 && r.TotalMoves != combin.VisibilityMoves(d) {
			t.Errorf("d=%d: moves %d, want %d", d, r.TotalMoves, combin.VisibilityMoves(d))
		}
	}
}

func TestRunVisibilityManySeeds(t *testing.T) {
	// The schedule changes with the seed; the outcome must not.
	for seed := int64(0); seed < 20; seed++ {
		r := resultOf(t)(RunVisibility(5, Config{Seed: seed, MaxLatency: 20 * time.Microsecond}))
		if !r.Ok() || r.TotalMoves != combin.VisibilityMoves(5) {
			t.Errorf("seed %d: %s", seed, r.String())
		}
	}
}

func TestRunVisibilityZeroLatency(t *testing.T) {
	// MaxLatency 0 disables sleeping entirely: maximum contention.
	r := resultOf(t)(RunVisibility(6, Config{}))
	if !r.Ok() {
		t.Errorf("%s", r.String())
	}
}

func TestRunCleanCorrectUnderConcurrency(t *testing.T) {
	for d := 0; d <= 6; d++ {
		r := resultOf(t)(RunClean(d, Config{Seed: 100 + int64(d), MaxLatency: 50 * time.Microsecond}))
		if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
			t.Errorf("d=%d: %s", d, r.String())
		}
		if r.Recontaminations != 0 {
			t.Errorf("d=%d: %d recontaminations", d, r.Recontaminations)
		}
		if int64(r.TeamSize) != combin.CleanTeamSize(d) {
			t.Errorf("d=%d: team %d", d, r.TeamSize)
		}
	}
}

func TestRunCleanManySeeds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := resultOf(t)(RunClean(4, Config{Seed: seed, MaxLatency: 30 * time.Microsecond}))
		if !r.Ok() {
			t.Errorf("seed %d: %s", seed, r.String())
		}
		// Agent moves are schedule-independent (minus the unreturned
		// final leaf agent, as in the DES implementation).
		want := combin.CleanAgentMoves(4) - 4
		if r.AgentMoves != want {
			t.Errorf("seed %d: agent moves %d, want %d", seed, r.AgentMoves, want)
		}
	}
}

// TestRuntimeMatchesDESCosts: a fault-free run of either strategy
// realizes exactly the discrete-event reference's costs at every
// dimension — team size, cleaner moves, synchronizer moves (escort
// round trips included) and total moves. The schedules differ in time
// only.
func TestRuntimeMatchesDESCosts(t *testing.T) {
	engines := []struct {
		name string
		goro func(d int, cfg Config) (Report, error)
		des  func(d int, opts strategy.Options) (metrics.Result, *strategy.Env)
	}{
		{"clean", RunClean, coordinated.Run},
		{"visibility", RunVisibility, visibility.Run},
	}
	for _, e := range engines {
		for d := 0; d <= 7; d++ {
			t.Run(fmt.Sprintf("%s/d=%d", e.name, d), func(t *testing.T) {
				want, _ := e.des(d, strategy.Options{})
				got := resultOf(t)(e.goro(d, Config{Seed: int64(9 + d), MaxLatency: 10 * time.Microsecond}))
				if !got.Ok() {
					t.Fatalf("run failed invariants: %s", got.String())
				}
				if got.TeamSize != want.TeamSize || got.AgentMoves != want.AgentMoves ||
					got.SyncMoves != want.SyncMoves || got.TotalMoves != want.TotalMoves {
					t.Errorf("goroutines {team=%d agent=%d sync=%d total=%d}, DES {%d %d %d %d}",
						got.TeamSize, got.AgentMoves, got.SyncMoves, got.TotalMoves,
						want.TeamSize, want.AgentMoves, want.SyncMoves, want.TotalMoves)
				}
			})
		}
	}
}

// A fault-free run starts no watchdog, so even a lease TTL no
// heartbeat could ever meet fences nobody: the run completes without a
// single reelection or reassignment and without drafting a spare.
func TestNilPlanNeverFences(t *testing.T) {
	for d := 2; d <= 4; d++ {
		rep, err := RunClean(d, Config{Seed: int64(d), MaxLatency: 50 * time.Microsecond, LeaseTTL: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Ok() {
			t.Fatalf("d=%d: run failed invariants: %s", d, rep.Result.String())
		}
		if rep.Reelections != 0 || rep.Reassigned != 0 || rep.SparesUsed != 0 {
			t.Errorf("d=%d: fault-free run fenced agents: %+v", d, rep)
		}
	}
}

// BenchmarkGoroutineEngine regenerates the concurrent half of X3: the
// real-goroutine runtime under scheduler preemption. Its allocations
// vary from run to run with the schedule, so no exact allocs gate can
// hold it.
func BenchmarkGoroutineEngine(b *testing.B) {
	for _, bc := range []struct {
		name string
		run  func(int, Config) (Report, error)
	}{
		{coordinated.Name, RunClean},
		{visibility.Name, RunVisibility},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := bc.run(6, Config{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Result.Ok() {
					b.Fatalf("invariants violated: %s", rep.Result)
				}
			}
		})
	}
}
