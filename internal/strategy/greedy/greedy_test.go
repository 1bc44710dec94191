package greedy

import (
	"fmt"
	"testing"

	"hypersearch/internal/combin"
	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/strategy/optimal"
	"hypersearch/internal/topologies"
)

func assertOK(t *testing.T, name string, g graph.Graph, home int) int {
	t.Helper()
	r, _, log := Run(g, home)
	if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
		t.Errorf("%s: %s", name, r.String())
	}
	if r.Recontaminations != 0 {
		t.Errorf("%s: %d recontaminations", name, r.Recontaminations)
	}
	rb, err := log.Replay(g, home)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rb.AllClean() || rb.MonotoneViolations() != 0 {
		t.Errorf("%s: replay differs", name)
	}
	return r.TeamSize
}

func TestGreedyAcrossTopologies(t *testing.T) {
	cases := map[string]graph.Graph{
		"path-9":    topologies.Path(9),
		"ring-8":    topologies.Ring(8),
		"mesh-4x5":  topologies.Mesh(4, 5),
		"torus-3x4": topologies.Torus(3, 4),
		"K6":        topologies.Complete(6),
		"star-5":    topologies.Star(5),
		"H4":        hypercube.New(4),
		"H5":        hypercube.New(5),
		"CCC3":      topologies.CubeConnectedCycles(3),
		"BF3":       topologies.Butterfly(3),
	}
	for name, g := range cases {
		assertOK(t, name, g, 0)
	}
}

func TestGreedyConstantDegreeNetworksNeedFewAgents(t *testing.T) {
	// CCC is 3-regular: its frontier never needs to be wide. The
	// greedy team should stay far below the hypercube's at comparable
	// sizes — the degree, not the node count, drives the team.
	cccTeam := Team(topologies.CubeConnectedCycles(4), 0) // 64 nodes
	cubeTeam := Team(hypercube.New(6), 0)                 // 64 nodes
	if cccTeam >= cubeTeam {
		t.Errorf("CCC(4) team %d not below H_6 team %d", cccTeam, cubeTeam)
	}
}

func TestGreedyEasyOptima(t *testing.T) {
	// On a path the heuristic should find the 1-agent sweep; on a ring
	// the 2-agent pincer.
	if team := assertOK(t, "path", topologies.Path(10), 0); team != 1 {
		t.Errorf("path team = %d, want 1", team)
	}
	if team := assertOK(t, "ring", topologies.Ring(9), 0); team != 2 {
		t.Errorf("ring team = %d, want 2", team)
	}
}

func TestGreedyWithinFactorOfOptimal(t *testing.T) {
	// On small graphs, compare with the exact optimum.
	cases := map[string]graph.Graph{
		"H_3":      hypercube.New(3),
		"H_4":      hypercube.New(4),
		"mesh-3x4": topologies.Mesh(3, 4),
		"K_5":      topologies.Complete(5),
	}
	for name, g := range cases {
		team := assertOK(t, name, g, 0)
		opt := optimal.MinimalTeam(g, 0, 12, optimal.Limits{})
		if !opt.Feasible {
			t.Fatalf("%s: optimum not found", name)
		}
		if team < opt.Team {
			t.Fatalf("%s: greedy %d beats the proven optimum %d", name, team, opt.Team)
		}
		if team > 2*opt.Team {
			t.Errorf("%s: greedy %d more than 2x optimum %d", name, team, opt.Team)
		}
	}
}

func TestGreedyOnHypercubeVersusClean(t *testing.T) {
	// The structure-oblivious heuristic should land in the same
	// ballpark as CLEAN on mid-size cubes (it rediscovers a
	// frontier-shaped sweep), without ever beating the isoperimetric
	// lower bound.
	for d := 3; d <= 6; d++ {
		team := int64(Team(hypercube.New(d), 0))
		if team < combin.Binomial(d, d/2) {
			t.Errorf("d=%d: greedy team %d below the isoperimetric bound %d",
				d, team, combin.Binomial(d, d/2))
		}
		if team > 3*combin.CleanTeamSize(d) {
			t.Errorf("d=%d: greedy team %d more than 3x CLEAN %d", d, team, combin.CleanTeamSize(d))
		}
	}
}

func TestGreedyRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := topologies.RandomConnected(5+int(seed)%20, int(seed)%8, seed)
		assertOK(t, "random", g, 0)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	g := topologies.RandomConnected(15, 6, 3)
	r1, _, _ := Run(g, 0)
	r2, _, _ := Run(g, 0)
	if r1.TeamSize != r2.TeamSize || r1.TotalMoves != r2.TotalMoves {
		t.Error("greedy is not deterministic")
	}
}

func TestGreedyTrivial(t *testing.T) {
	g := graph.NewAdjacency(1)
	r, _, _ := Run(g, 0)
	if !r.Captured || r.TeamSize != 1 || r.TotalMoves != 0 {
		t.Errorf("trivial graph: %s", r.String())
	}
}

// BenchmarkGenericStrategies regenerates the greedy half of experiment
// X8: the structure-generic strategy on the hypercube.
func BenchmarkGenericStrategies(b *testing.B) {
	for _, d := range []int{4, 6, 8} {
		h := hypercube.New(d)
		b.Run(fmt.Sprintf("greedy/d=%d", d), func(b *testing.B) {
			var team float64
			for i := 0; i < b.N; i++ {
				r, _, _ := Run(h, 0)
				if !r.Captured || !r.MonotoneOK {
					b.Fatal("greedy failed")
				}
				team = float64(r.TeamSize)
			}
			b.ReportMetric(team, "agents")
		})
	}
}
