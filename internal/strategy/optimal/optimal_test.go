package optimal

import (
	"fmt"
	"testing"

	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
)

func pathGraph(n int) graph.Graph {
	g := graph.NewAdjacency(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycleGraph(n int) graph.Graph {
	g := graph.NewAdjacency(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestPathNeedsOneAgent(t *testing.T) {
	a := MinimalTeam(pathGraph(6), 0, 3, Limits{})
	if !a.Feasible || a.Team != 1 {
		t.Fatalf("answer = %+v", a)
	}
	if a.Moves != 5 {
		t.Errorf("minimal moves = %d, want 5", a.Moves)
	}
}

func TestPathFromMiddle(t *testing.T) {
	// Starting mid-path, one agent cannot hold both directions; two
	// can (one sweeps each side... actually one guards while the other
	// sweeps, then they swap roles through clean territory).
	a := MinimalTeam(pathGraph(5), 2, 3, Limits{})
	if !a.Feasible || a.Team != 2 {
		t.Fatalf("answer = %+v", a)
	}
}

func TestCycleNeedsTwoAgents(t *testing.T) {
	a := MinimalTeam(cycleGraph(6), 0, 3, Limits{})
	if !a.Feasible || a.Team != 2 {
		t.Fatalf("answer = %+v", a)
	}
}

func TestInfeasibleTeamReported(t *testing.T) {
	a := Search(cycleGraph(6), 0, 1, Limits{})
	if a.Feasible || a.Aborted {
		t.Fatalf("one agent on a cycle must be cleanly infeasible: %+v", a)
	}
}

func TestSingleNodeGraph(t *testing.T) {
	a := Search(graph.NewAdjacency(1), 0, 1, Limits{})
	if !a.Feasible || a.Moves != 0 {
		t.Fatalf("answer = %+v", a)
	}
}

func TestHypercubeH1H2H3(t *testing.T) {
	// Exact contiguous monotone search numbers of small hypercubes.
	// H_3 = 4 is a finding of this reproduction: the visibility
	// strategy's n/2 = 4 is optimal there, while CLEAN uses 5.
	cases := []struct {
		d    int
		want int
	}{
		{1, 1}, {2, 2}, {3, 4},
	}
	for _, c := range cases {
		h := hypercube.New(c.d)
		a := MinimalTeam(h, 0, 8, Limits{})
		if !a.Feasible {
			t.Fatalf("H_%d: %+v", c.d, a)
		}
		if a.Team != c.want {
			t.Errorf("H_%d minimal team = %d, want %d", c.d, a.Team, c.want)
		}
	}
}

func TestHypercubeH4ExactMinimum(t *testing.T) {
	// A finding of this reproduction, bearing on the paper's open
	// problem: the contiguous monotone search number of H_4 is exactly
	// 7 (19 moves suffice). CLEAN provisions 8 and the visibility
	// strategy n/2 = 8, so both are one agent above optimal at d = 4.
	h := hypercube.New(4)
	infeasible := Search(h, 0, 6, Limits{})
	if infeasible.Feasible || infeasible.Aborted {
		t.Fatalf("6 agents should be cleanly infeasible: %+v", infeasible)
	}
	a := Search(h, 0, 7, Limits{})
	if !a.Feasible || a.Aborted {
		t.Fatalf("7 agents should suffice: %+v", a)
	}
	if a.Moves != 19 {
		t.Errorf("minimal moves with 7 agents = %d, want 19", a.Moves)
	}
}

func TestParetoFrontier(t *testing.T) {
	h := hypercube.New(3)
	front := Pareto(h, 0, 6, Limits{})
	if len(front) != 6 {
		t.Fatalf("%d rows", len(front))
	}
	// Infeasible up to team 3, feasible from 4 on, with non-increasing
	// minimal moves as the team grows.
	for i, a := range front {
		team := i + 1
		if a.Team != team {
			t.Fatalf("row %d has team %d", i, a.Team)
		}
		if team < 4 && a.Feasible {
			t.Errorf("team %d should be infeasible", team)
		}
		if team >= 4 && !a.Feasible {
			t.Errorf("team %d should be feasible", team)
		}
	}
	for i := 4; i < len(front); i++ {
		if front[i].Moves > front[i-1].Moves {
			t.Errorf("minimal moves increased: team %d needs %d, team %d needed %d",
				i+1, front[i].Moves, i, front[i-1].Moves)
		}
	}
}

func TestStateCapAborts(t *testing.T) {
	h := hypercube.New(3)
	a := Search(h, 0, 3, Limits{MaxStates: 10})
	if !a.Aborted {
		t.Errorf("tiny cap did not abort: %+v", a)
	}
}

func TestRejectsOversizedGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized graph accepted")
		}
	}()
	Search(graph.NewAdjacency(27), 0, 1, Limits{})
}

func TestRejectsZeroTeam(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero team accepted")
		}
	}()
	Search(pathGraph(3), 0, 0, Limits{})
}

func TestMonotonePruningKeepsContiguity(t *testing.T) {
	// Every explored state's decontaminated set stays connected by
	// construction (growth is always adjacent to an agent). Verify on
	// a run by re-deriving: minimal solutions on a star.
	g := graph.NewAdjacency(5)
	for v := 1; v <= 4; v++ {
		g.AddEdge(0, v)
	}
	a := MinimalTeam(g, 0, 4, Limits{})
	if !a.Feasible || a.Team != 2 {
		t.Fatalf("star answer = %+v", a)
	}
}

// BenchmarkOptimalSearch regenerates experiment X2: exhaustive minimal
// teams on small hypercubes.
func BenchmarkOptimalSearch(b *testing.B) {
	for d := 2; d <= 4; d++ {
		b.Run(fmt.Sprintf("H_%d", d), func(b *testing.B) {
			h := hypercube.New(d)
			var team float64
			for i := 0; i < b.N; i++ {
				a := MinimalTeam(h, 0, 10, Limits{})
				if !a.Feasible {
					b.Fatal("no feasible team found")
				}
				team = float64(a.Team)
			}
			b.ReportMetric(team, "agents")
		})
	}
}
