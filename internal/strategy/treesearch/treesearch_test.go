package treesearch

import (
	"fmt"
	"testing"

	"hypersearch/internal/graph"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/strategy/optimal"
)

func pathTree(n int) *graph.Tree {
	parent := make([]int, n)
	for i := 1; i < n; i++ {
		parent[i] = i - 1
	}
	return graph.MustTree(0, parent)
}

func starTree(leaves int) *graph.Tree {
	parent := make([]int, leaves+1)
	return graph.MustTree(0, parent)
}

// completeBinary returns a complete binary tree with `levels` levels.
func completeBinary(levels int) *graph.Tree {
	n := 1<<levels - 1
	parent := make([]int, n)
	for i := 1; i < n; i++ {
		parent[i] = (i - 1) / 2
	}
	return graph.MustTree(0, parent)
}

func TestCostPath(t *testing.T) {
	for n := 1; n <= 10; n++ {
		if got := Cost(pathTree(n)); got != 1 {
			t.Errorf("path of %d: cost %d", n, got)
		}
	}
}

func TestCostStar(t *testing.T) {
	if got := Cost(starTree(1)); got != 1 {
		t.Errorf("star-1 cost %d", got)
	}
	for leaves := 2; leaves <= 6; leaves++ {
		if got := Cost(starTree(leaves)); got != 2 {
			t.Errorf("star-%d cost %d, want 2", leaves, got)
		}
	}
}

func TestCostCompleteBinary(t *testing.T) {
	// Two equal children of cost c give cost c+1: height h tree costs h.
	for levels := 1; levels <= 6; levels++ {
		if got := Cost(completeBinary(levels)); got != levels {
			t.Errorf("binary %d levels: cost %d", levels, got)
		}
	}
}

func TestExecuteRealizesCostOnAssortedTrees(t *testing.T) {
	trees := map[string]*graph.Tree{
		"path":   pathTree(9),
		"star":   starTree(5),
		"binary": completeBinary(4),
		"bt-H5":  heapqueue.New(5).Graph(),
	}
	for name, tr := range trees {
		r, b, log := Execute(tr)
		if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
			t.Errorf("%s: %s", name, r.String())
		}
		if r.Recontaminations != 0 {
			t.Errorf("%s: %d recontaminations", name, r.Recontaminations)
		}
		if r.TeamSize != Cost(tr) {
			t.Errorf("%s: team %d, DP %d", name, r.TeamSize, Cost(tr))
		}
		if b.Moves() != r.TotalMoves {
			t.Errorf("%s: move accounting mismatch", name)
		}
		// The recorded schedule replays cleanly on the tree.
		rb, err := log.Replay(tr, tr.Root())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rb.AllClean() || rb.MonotoneViolations() != 0 {
			t.Errorf("%s: replay differs", name)
		}
	}
}

func TestDPMatchesBruteForceOnSmallTrees(t *testing.T) {
	trees := []*graph.Tree{
		pathTree(6), starTree(4), completeBinary(3), heapqueue.New(3).Graph(),
		heapqueue.New(4).Graph(),
	}
	for i, tr := range trees {
		want := optimal.MinimalTeam(tr, tr.Root(), 6, optimal.Limits{}).Team
		if got := Cost(tr); got != want {
			t.Errorf("tree %d: DP %d, brute force %d", i, got, want)
		}
	}
}

func TestBroadcastTreeCostsGrowSlowly(t *testing.T) {
	// The broadcast tree is searchable with O(d) agents — far fewer
	// than the hypercube's Theta(n/sqrt(log n)).
	prev := 0
	for d := 1; d <= 10; d++ {
		c := Cost(heapqueue.New(d).Graph())
		if c < prev {
			t.Errorf("d=%d: cost %d decreased", d, c)
		}
		if c > d {
			t.Errorf("d=%d: cost %d exceeds d", d, c)
		}
		prev = c
	}
}

// The X5 contrast: the tree schedule, replayed with the hypercube's
// chords present, breaks monotonicity — the chords are what the
// hypercube strategies must (and do) defend.
func TestTreeScheduleBreaksOnHypercube(t *testing.T) {
	const d = 4
	bt := heapqueue.New(d)
	_, _, log := Execute(bt.Graph())
	h := hypercube.New(d)
	b, err := log.Replay(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.MonotoneViolations() == 0 && b.AllClean() {
		t.Error("tree schedule unexpectedly survives the hypercube chords")
	}
}

// BenchmarkTreeSearch regenerates experiment X5: the tree-optimal
// comparator on broadcast trees.
func BenchmarkTreeSearch(b *testing.B) {
	for _, d := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("T(%d)", d), func(b *testing.B) {
			tr := heapqueue.New(d).Graph()
			var team float64
			for i := 0; i < b.N; i++ {
				r, _, _ := Execute(tr)
				if !r.Captured {
					b.Fatal("tree search failed")
				}
				team = float64(r.TeamSize)
			}
			b.ReportMetric(team, "agents")
		})
	}
}
