package hypercube

import (
	"testing"
	"testing/quick"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/graph"
)

func TestOrderAndSize(t *testing.T) {
	for d := 0; d <= 10; d++ {
		h := New(d)
		if h.Order() != 1<<d {
			t.Errorf("d=%d order = %d", d, h.Order())
		}
		wantEdges := 0
		if d > 0 {
			wantEdges = d << (d - 1)
		}
		if h.Size() != wantEdges {
			t.Errorf("d=%d size = %d, want %d", d, h.Size(), wantEdges)
		}
		if graph.Size(h) != wantEdges {
			t.Errorf("d=%d graph.Size disagrees", d)
		}
	}
}

func TestNeighbourStructure(t *testing.T) {
	const d = 6
	h := New(d)
	for v := 0; v < h.Order(); v++ {
		ns := h.Neighbours(v)
		if len(ns) != d {
			t.Fatalf("v=%d has %d neighbours", v, len(ns))
		}
		for i, w := range ns {
			if h.Label(v, w) != i+1 {
				t.Errorf("v=%d neighbour %d: label %d at slot %d", v, w, h.Label(v, w), i)
			}
			if h.Distance(v, w) != 1 {
				t.Errorf("v=%d neighbour %d at distance %d", v, w, h.Distance(v, w))
			}
		}
	}
}

func TestConnectedAndBipartiteLevels(t *testing.T) {
	h := New(7)
	if !graph.Connected(h) {
		t.Fatal("H_7 must be connected")
	}
	// Edges only join consecutive levels.
	for v := 0; v < h.Order(); v++ {
		for _, w := range h.Neighbours(v) {
			if diff := h.Level(v) - h.Level(w); diff != 1 && diff != -1 {
				t.Fatalf("edge (%d,%d) joins levels %d and %d", v, w, h.Level(v), h.Level(w))
			}
		}
	}
}

func TestBFSMatchesHamming(t *testing.T) {
	h := New(6)
	dist := graph.BFS(h, 0)
	for v := 0; v < h.Order(); v++ {
		if dist[v] != h.Level(v) {
			t.Errorf("BFS dist to %d = %d, level = %d", v, dist[v], h.Level(v))
		}
	}
}

func TestSmallerBiggerSplit(t *testing.T) {
	const d = 5
	h := New(d)
	for v := 0; v < h.Order(); v++ {
		s, b := h.SmallerNeighbours(v), h.BiggerNeighbours(v)
		if len(s)+len(b) != d {
			t.Fatalf("v=%d: split %d+%d", v, len(s), len(b))
		}
		for _, w := range b {
			if bits.Parent(bits.Node(w)) != bits.Node(v) {
				t.Errorf("bigger neighbour %d of %d is not a tree child", w, v)
			}
		}
	}
}

func TestNodesAtLevelAndClassPartition(t *testing.T) {
	const d = 7
	h := New(d)
	seen := make([]bool, h.Order())
	for l := 0; l <= d; l++ {
		nodes := h.NodesAtLevel(l)
		if int64(len(nodes)) != combin.NodesAtLevel(d, l) {
			t.Errorf("level %d has %d nodes", l, len(nodes))
		}
		for _, v := range nodes {
			if seen[v] {
				t.Fatalf("node %d in two levels", v)
			}
			seen[v] = true
		}
	}
	seenClass := make([]bool, h.Order())
	for i := 0; i <= d; i++ {
		nodes := h.NodesInClass(i)
		if int64(len(nodes)) != combin.ClassSize(d, i) {
			t.Errorf("class %d has %d nodes", i, len(nodes))
		}
		for _, v := range nodes {
			if h.Class(v) != i {
				t.Errorf("node %d in class list %d but Class=%d", v, i, h.Class(v))
			}
			if seenClass[v] {
				t.Fatalf("node %d in two classes", v)
			}
			seenClass[v] = true
		}
	}
}

func TestShortestPathProperties(t *testing.T) {
	const d = 6
	h := New(d)
	f := func(a, b uint16) bool {
		v, w := int(a)%h.Order(), int(b)%h.Order()
		p := h.ShortestPath(v, w)
		if p[0] != v || p[len(p)-1] != w || len(p) != h.Distance(v, w)+1 {
			return false
		}
		for i := 1; i < len(p); i++ {
			if h.Distance(p[i-1], p[i]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIndexNodeRoundTrip(t *testing.T) {
	h := New(5)
	for v := 0; v < h.Order(); v++ {
		if h.Index(h.Node(v)) != v {
			t.Fatalf("round trip broken at %d", v)
		}
	}
	if h.String(5) != "00101" {
		t.Errorf("String(5) = %q", h.String(5))
	}
}

func TestNewPanicsOnHugeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New(%d) did not panic", bits.MaxDim+1)
		}
	}()
	New(bits.MaxDim + 1)
}

func TestH0AndH1(t *testing.T) {
	h0 := New(0)
	if h0.Order() != 1 || len(h0.Neighbours(0)) != 0 {
		t.Error("H_0 wrong")
	}
	h1 := New(1)
	if h1.Order() != 2 || h1.Neighbours(0)[0] != 1 || h1.Label(0, 1) != 1 {
		t.Error("H_1 wrong")
	}
}
