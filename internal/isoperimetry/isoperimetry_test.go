package isoperimetry

import (
	"testing"

	"hypersearch/internal/combin"
	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/strategy/optimal"
)

func TestHypercubeLowerBoundIsCentralBinomial(t *testing.T) {
	for d := 1; d <= 20; d++ {
		want := combin.Binomial(d, d/2)
		if got := HypercubeLowerBound(d); got != want {
			t.Errorf("d=%d: bound %d, want C(d, d/2) = %d", d, got, want)
		}
	}
	if HypercubeLowerBound(0) != 1 {
		t.Error("degenerate bound wrong")
	}
}

func TestBoundBelowCleanTeamAndAboveNOverLogN(t *testing.T) {
	// The bound must sit below what Algorithm CLEAN uses (it is a
	// lower bound on every monotone strategy) and, from d = 7 on,
	// strictly above n/log n — refuting the availability of an
	// O(n/log n) monotone strategy.
	for d := 2; d <= 20; d++ {
		lb := HypercubeLowerBound(d)
		if lb > combin.CleanTeamSize(d) {
			t.Errorf("d=%d: bound %d exceeds CLEAN's team %d", d, lb, combin.CleanTeamSize(d))
		}
		if int64(1)<<d >= 128 && float64(lb) <= combin.NOverLogN(d) {
			t.Errorf("d=%d: bound %d not above n/log n = %.1f", d, lb, combin.NOverLogN(d))
		}
	}
}

func TestInnerBoundary(t *testing.T) {
	h := hypercube.New(3)
	// The ball of radius 1 around 000: {000, 001, 010, 100}.
	ball := uint32(1 | 1<<1 | 1<<2 | 1<<4)
	if got := InnerBoundary(h, ball); got != 3 {
		t.Errorf("ball boundary = %d, want 3", got)
	}
	// The whole cube has empty boundary.
	if got := InnerBoundary(h, 0xFF); got != 0 {
		t.Errorf("full-set boundary = %d", got)
	}
	// A single vertex is its own boundary.
	if got := InnerBoundary(h, 1); got != 1 {
		t.Errorf("singleton boundary = %d", got)
	}
}

func TestExactBoundSmallHypercubes(t *testing.T) {
	// A finding of this reproduction: the exact isoperimetric bound is
	// TIGHT on small hypercubes — it coincides with the true minimal
	// team from exhaustive strategy search (1, 2, 4, 7 for H_1..H_4).
	cases := []struct {
		d    int
		want int
	}{
		{1, 1}, {2, 2}, {3, 4}, {4, 7},
	}
	for _, c := range cases {
		h := hypercube.New(c.d)
		got := ExactMonotoneLowerBound(h)
		if got != c.want {
			t.Errorf("H_%d exact bound = %d, want %d", c.d, got, c.want)
		}
		// The closed-form Harper bound can never exceed the exact one.
		if hb := HypercubeLowerBound(c.d); int(hb) > got {
			t.Errorf("H_%d: Harper %d above exact %d", c.d, hb, got)
		}
	}
}

func TestExactBoundIsValidAgainstOptimalSearch(t *testing.T) {
	// The isoperimetric bound must never exceed the true minimal team
	// found by exhaustive strategy search.
	graphs := map[string]graph.Graph{
		"H_2": hypercube.New(2),
		"H_3": hypercube.New(3),
		"H_4": hypercube.New(4),
	}
	for name, g := range graphs {
		lb := ExactMonotoneLowerBound(g)
		opt := optimal.MinimalTeam(g, 0, 10, optimal.Limits{})
		if !opt.Feasible {
			t.Fatalf("%s: no feasible team", name)
		}
		if lb > opt.Team {
			t.Errorf("%s: bound %d exceeds optimum %d", name, lb, opt.Team)
		}
		// Observed (and asserted while it holds): the bound is tight on
		// these instances.
		if lb != opt.Team {
			t.Errorf("%s: bound %d no longer tight against optimum %d", name, lb, opt.Team)
		}
	}
}

func TestExactBoundPathAndCycle(t *testing.T) {
	path := graph.NewAdjacency(6)
	for i := 0; i < 5; i++ {
		path.AddEdge(i, i+1)
	}
	if got := ExactMonotoneLowerBound(path); got != 1 {
		t.Errorf("path bound = %d, want 1", got)
	}
	cycle := graph.NewAdjacency(6)
	for i := 0; i < 6; i++ {
		cycle.AddEdge(i, (i+1)%6)
	}
	if got := ExactMonotoneLowerBound(cycle); got != 2 {
		t.Errorf("cycle bound = %d, want 2", got)
	}
}

func TestExactBoundRejectsLargeGraphs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("order-25 graph accepted")
		}
	}()
	ExactMonotoneLowerBound(graph.NewAdjacency(25))
}

func TestHammingBallBoundaries(t *testing.T) {
	rows := HammingBallBoundaries(6)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	var volume int64
	for _, row := range rows {
		volume += row.Boundary // boundary of radius r equals C(d, r), the increment
		if row.Volume != volume {
			t.Errorf("r=%d: volume %d, want %d", row.Radius, row.Volume, volume)
		}
	}
	// The peak boundary is the central binomial.
	peak := int64(0)
	for _, row := range rows {
		if row.Boundary > peak {
			peak = row.Boundary
		}
	}
	if peak != combin.Binomial(6, 3) {
		t.Errorf("peak %d", peak)
	}
}

// BenchmarkIsoperimetricBound regenerates experiment X7: the Harper
// lower bound (closed form, arbitrary d) and the exact exhaustive
// bound (small d).
func BenchmarkIsoperimetricBound(b *testing.B) {
	b.Run("harper/d=20", func(b *testing.B) {
		var bound int64
		for i := 0; i < b.N; i++ {
			bound = HypercubeLowerBound(20)
		}
		b.ReportMetric(float64(bound), "agents")
	})
	b.Run("exact/H_4", func(b *testing.B) {
		h := hypercube.New(4)
		var bound int
		for i := 0; i < b.N; i++ {
			bound = ExactMonotoneLowerBound(h)
		}
		b.ReportMetric(float64(bound), "agents")
	})
}
