package levelsweep

import (
	"fmt"
	"testing"

	"hypersearch/internal/combin"
	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/topologies"
)

func assertOK(t *testing.T, name string, g graph.Graph, home int) {
	t.Helper()
	r, b, log := Run(g, home)
	if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
		t.Errorf("%s: %s", name, r.String())
	}
	if r.Recontaminations != 0 {
		t.Errorf("%s: %d recontaminations", name, r.Recontaminations)
	}
	if r.TeamSize != Team(g, home) {
		t.Errorf("%s: team %d, Team() %d", name, r.TeamSize, Team(g, home))
	}
	if b.Moves() != r.TotalMoves {
		t.Errorf("%s: move accounting mismatch", name)
	}
	// Replay must agree.
	rb, err := log.Replay(g, home)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rb.AllClean() || rb.MonotoneViolations() != 0 {
		t.Errorf("%s: replay differs", name)
	}
}

func TestSweepAcrossTopologies(t *testing.T) {
	cases := map[string]graph.Graph{
		"path-9":    topologies.Path(9),
		"ring-8":    topologies.Ring(8),
		"mesh-4x5":  topologies.Mesh(4, 5),
		"torus-3x4": topologies.Torus(3, 4),
		"K6":        topologies.Complete(6),
		"star-5":    topologies.Star(5),
		"H4":        hypercube.New(4),
		"H6":        hypercube.New(6),
		"CCC3":      topologies.CubeConnectedCycles(3),
		"CCC4":      topologies.CubeConnectedCycles(4),
		"BF3":       topologies.Butterfly(3),
	}
	for name, g := range cases {
		assertOK(t, name, g, 0)
	}
}

func TestSweepRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := topologies.RandomConnected(4+int(seed), int(seed)%7, seed)
		assertOK(t, "random", g, 0)
	}
}

func TestTeamFormula(t *testing.T) {
	// Path: levels are singletons -> team 3 (two levels + courier).
	if got := Team(topologies.Path(9), 0); got != 3 {
		t.Errorf("path team = %d", got)
	}
	// Ring of 8 from 0: levels 1,2,2,2,1 -> max pair 4 -> team 5.
	if got := Team(topologies.Ring(8), 0); got != 5 {
		t.Errorf("ring team = %d", got)
	}
	// Hypercube: max consecutive binomials + 1.
	for d := 2; d <= 8; d++ {
		want := int64(0)
		for l := 0; l < d; l++ {
			if s := combin.Binomial(d, l) + combin.Binomial(d, l+1); s > want {
				want = s
			}
		}
		if got := Team(hypercube.New(d), 0); int64(got) != want+1 {
			t.Errorf("H_%d team = %d, want %d", d, got, want+1)
		}
	}
}

func TestSweepCostVersusClean(t *testing.T) {
	// The generic sweep must stay within a small factor of the
	// hypercube-tuned CLEAN team (it guards two full levels instead of
	// one level plus tree-local extras).
	for d := 3; d <= 8; d++ {
		sweep := int64(Team(hypercube.New(d), 0))
		clean := combin.CleanTeamSize(d)
		if sweep < clean {
			t.Errorf("d=%d: generic sweep %d beats CLEAN %d — CLEAN analysis is wrong", d, sweep, clean)
		}
		if sweep > 3*clean {
			t.Errorf("d=%d: generic sweep %d more than 3x CLEAN %d", d, sweep, clean)
		}
	}
}

func TestSweepDisconnectedPanics(t *testing.T) {
	g := graph.NewAdjacency(4)
	g.AddEdge(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("disconnected graph accepted")
		}
	}()
	Run(g, 0)
}

func TestSweepNonZeroHome(t *testing.T) {
	assertOK(t, "mesh-center", topologies.Mesh(5, 5), 12)
}

// BenchmarkGenericStrategies regenerates the level-sweep half of
// experiment X8: the structure-generic strategy on the hypercube.
func BenchmarkGenericStrategies(b *testing.B) {
	for _, d := range []int{4, 6, 8} {
		h := hypercube.New(d)
		b.Run(fmt.Sprintf("level-sweep/d=%d", d), func(b *testing.B) {
			var team float64
			for i := 0; i < b.N; i++ {
				r, _, _ := Run(h, 0)
				if !r.Captured || !r.MonotoneOK {
					b.Fatal("level sweep failed")
				}
				team = float64(r.TeamSize)
			}
			b.ReportMetric(team, "agents")
		})
	}
}

// BenchmarkGenericTopologies measures the level sweep on the wider
// topology catalog.
func BenchmarkGenericTopologies(b *testing.B) {
	cases := map[string]graph.Graph{
		"mesh-16x16": topologies.Mesh(16, 16),
		"torus-8x8":  topologies.Torus(8, 8),
		"ring-256":   topologies.Ring(256),
	}
	for name, g := range cases {
		b.Run(name, func(b *testing.B) {
			var team float64
			for i := 0; i < b.N; i++ {
				r, _, _ := Run(g, 0)
				if !r.Captured {
					b.Fatal("sweep failed")
				}
				team = float64(r.TeamSize)
			}
			b.ReportMetric(team, "agents")
		})
	}
}
