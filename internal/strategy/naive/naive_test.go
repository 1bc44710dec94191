package naive

import (
	"fmt"
	"testing"

	"hypersearch/internal/envpool"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

func TestDFSVisitsEverythingButFailsCapture(t *testing.T) {
	for d := 2; d <= 6; d++ {
		r, env := RunDFS(d, strategy.Options{})
		// Every node is visited: the DFS walk covers the graph.
		if r.TotalMoves < int64(env.H.Order()-1) {
			t.Errorf("d=%d: only %d moves", d, r.TotalMoves)
		}
		// Against the arbitrarily fast intruder, covering is not
		// capturing: contamination reclaims territory behind the agent.
		if r.Captured {
			t.Errorf("d=%d: a single oblivious DFS cannot capture", d)
		}
		if r.Recontaminations == 0 {
			t.Errorf("d=%d: expected recontaminations", d)
		}
	}
}

func TestDFSOnTrivialCubes(t *testing.T) {
	// H_0 is captured trivially; H_1 is a single edge: a sweep works.
	r, _ := RunDFS(0, strategy.Options{})
	if !r.Captured {
		t.Error("H_0 should be trivially captured")
	}
	r, _ = RunDFS(1, strategy.Options{})
	if !r.Captured {
		t.Error("H_1 is a path; even DFS captures it")
	}
}

func TestConvoyImprovesButSmallTeamsStillFail(t *testing.T) {
	const d = 4
	prev := int64(-1)
	for _, team := range []int{1, 2, 4} {
		r, _ := RunConvoy(d, team, strategy.Options{})
		if r.Captured {
			t.Errorf("team %d: oblivious convoy should not capture H_%d", team, d)
		}
		if prev >= 0 && r.Recontaminations > prev*2 {
			t.Errorf("team %d: recontaminations %d grew vs %d", team, r.Recontaminations, prev)
		}
		prev = r.Recontaminations
	}
}

func TestConvoyTeamFloor(t *testing.T) {
	r, _ := RunConvoy(2, 0, strategy.Options{})
	if r.TeamSize != 1 {
		t.Errorf("team floor = %d", r.TeamSize)
	}
}

func TestConvoyLargeTeamOnTinyCube(t *testing.T) {
	// With a window as large as the walk itself the convoy does
	// capture small cubes (it degenerates into a guarded sweep).
	r, _ := RunConvoy(2, 8, strategy.Options{})
	if !r.Captured {
		t.Errorf("full-window convoy on H_2 failed: %s", r.String())
	}
}

// BenchmarkNaiveBaseline regenerates experiment X4's cost side: what
// the oblivious sweep spends while failing. Runs reuse one pooled
// environment per dimension, as the sweeps do.
func BenchmarkNaiveBaseline(b *testing.B) {
	pool := envpool.New()
	for _, d := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("dfs/d=%d", d), func(b *testing.B) {
			var last metrics.Result
			for i := 0; i < b.N; i++ {
				env := pool.Acquire(d, strategy.Options{})
				last = RunDFSEnv(env)
				pool.Release(env)
			}
			b.ReportMetric(float64(last.Recontaminations), "recontaminations")
		})
	}
}
