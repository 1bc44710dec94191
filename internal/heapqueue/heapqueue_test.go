package heapqueue

import (
	"testing"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
)

func TestTreeIsSpanningTreeOfHypercube(t *testing.T) {
	const d = 7
	bt := New(d)
	h := hypercube.New(d)
	if !graph.IsTree(bt.Graph()) {
		t.Fatal("broadcast tree is not a tree")
	}
	if bt.Order() != h.Order() {
		t.Fatal("order mismatch")
	}
	// Every tree edge is a hypercube edge.
	for v := 1; v < bt.Order(); v++ {
		if h.Distance(v, bt.Parent(v)) != 1 {
			t.Errorf("tree edge (%d,%d) is not a hypercube edge", v, bt.Parent(v))
		}
	}
}

func TestBFSTreeProperty(t *testing.T) {
	// The broadcast tree is a breadth-first spanning tree: tree depth
	// equals hypercube distance from the root.
	const d = 8
	bt := New(d)
	h := hypercube.New(d)
	dist := graph.BFS(h, 0)
	gt := bt.Graph()
	for v := 0; v < bt.Order(); v++ {
		if bt.Depth(v) != dist[v] {
			t.Errorf("v=%d: tree depth %d, BFS dist %d", v, bt.Depth(v), dist[v])
		}
		if gt.Depth(v) != dist[v] {
			t.Errorf("v=%d: graph.Tree depth %d, BFS dist %d", v, gt.Depth(v), dist[v])
		}
	}
}

func TestHeapQueueRecursion(t *testing.T) {
	// Definition 1: a node of type T(k) has k children of types
	// T(k-1), ..., T(0) in that order (our children are label-ordered).
	const d = 7
	bt := New(d)
	for v := 0; v < bt.Order(); v++ {
		k := bt.Type(v)
		ch := bt.Children(v)
		if len(ch) != k {
			t.Fatalf("v=%d type T(%d) has %d children", v, k, len(ch))
		}
		for i, c := range ch {
			if bt.Type(c) != k-1-i {
				t.Errorf("v=%d child %d: type T(%d), want T(%d)", v, c, bt.Type(c), k-1-i)
			}
		}
		if bt.SubtreeSize(v) != 1<<k {
			t.Errorf("v=%d: |T(%d)| = %d, want %d", v, k, bt.SubtreeSize(v), 1<<k)
		}
	}
}

func TestProperty1TypeCounts(t *testing.T) {
	const d = 9
	bt := New(d)
	for l := 1; l <= d; l++ {
		for k := 0; k <= d-l; k++ {
			got := bt.CountType(l, k)
			want := combin.TreeNodesOfType(d, l, k)
			if int64(got) != want {
				t.Errorf("level %d type T(%d): counted %d, closed form %d", l, k, got, want)
			}
		}
	}
	if bt.CountType(0, d) != 1 {
		t.Error("root type count wrong")
	}
}

func TestProperty2And6Leaves(t *testing.T) {
	const d = 8
	bt := New(d)
	leaves := bt.Leaves()
	if int64(len(leaves)) != combin.Pow2(d-1) {
		t.Fatalf("%d leaves, want %d", len(leaves), combin.Pow2(d-1))
	}
	perLevel := make([]int64, d+1)
	for _, v := range leaves {
		perLevel[bt.Depth(v)]++
		// Property 6: all leaves are in class C_d.
		if bits.Class(bits.Node(v)) != d {
			t.Errorf("leaf %d not in C_%d", v, d)
		}
	}
	for l := 1; l <= d; l++ {
		if perLevel[l] != combin.TreeLeavesAtLevel(d, l) {
			t.Errorf("level %d: %d leaves, want %d", l, perLevel[l], combin.TreeLeavesAtLevel(d, l))
		}
	}
}

func TestProperty7NeighbourClasses(t *testing.T) {
	// For x in C_i (i > 0): exactly one smaller neighbour in some C_j
	// with j < i, the rest in C_i; all bigger neighbours in C_k, k > i.
	const d = 7
	h := hypercube.New(d)
	for v := 1; v < h.Order(); v++ {
		i := h.Class(v)
		below := 0
		for _, w := range h.SmallerNeighbours(v) {
			if c := h.Class(w); c < i {
				below++
			} else if c != i {
				t.Fatalf("v=%d: smaller neighbour %d in class %d > %d", v, w, c, i)
			}
		}
		if below != 1 {
			t.Errorf("v=%d: %d smaller neighbours below C_%d, want 1", v, below, i)
		}
		for _, w := range h.BiggerNeighbours(v) {
			if h.Class(w) <= i {
				t.Errorf("v=%d: bigger neighbour %d in class %d <= %d", v, w, h.Class(w), i)
			}
		}
	}
}

func TestProperty8Witness(t *testing.T) {
	// For x in C_i, i > 1: there is a smaller neighbour y in C_i that
	// itself has a smaller neighbour z in C_{i-1}.
	// Known paper slip: the property fails for exactly one node, x = 3
	// (binary ...011) in C_2 — the only case where bit i-1 is set and
	// no position j < i-1 exists, so neither proof case applies. The
	// exception is harmless to Theorem 7 (at the relevant time only the
	// source holds agents); we assert the property everywhere else and
	// assert the exception stays an exception.
	const d = 8
	h := hypercube.New(d)
	for i := 2; i <= d; i++ {
		for _, v := range h.NodesInClass(i) {
			if v == 3 {
				continue
			}
			found := false
			for _, y := range h.SmallerNeighbours(v) {
				if h.Class(y) != i {
					continue
				}
				for _, z := range h.SmallerNeighbours(y) {
					if h.Class(z) == i-1 {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("no Property-8 witness for node %d in C_%d", v, i)
			}
		}
	}
	// The documented exception: node 3 has no witness.
	found := false
	for _, y := range h.SmallerNeighbours(3) {
		if h.Class(y) != 2 {
			continue
		}
		for _, z := range h.SmallerNeighbours(y) {
			if h.Class(z) == 1 {
				found = true
			}
		}
	}
	if found {
		t.Error("node 3 unexpectedly has a Property-8 witness; update the paper-slip note")
	}
}

func TestAgentsRequiredAndDispatchPlan(t *testing.T) {
	if AgentsRequired(0) != 1 || AgentsRequired(1) != 1 || AgentsRequired(4) != 8 {
		t.Error("AgentsRequired wrong")
	}
	for k := 1; k <= 20; k++ {
		plan := DispatchPlan(k)
		if len(plan) != k {
			t.Fatalf("k=%d: plan length %d", k, len(plan))
		}
		var sum int64
		for _, p := range plan {
			sum += p
		}
		if sum != AgentsRequired(k) {
			t.Errorf("k=%d: plan sums to %d, want %d (all agents leave)", k, sum, AgentsRequired(k))
		}
		// The T(0) child (last slot) gets exactly one agent.
		if plan[k-1] != 1 {
			t.Errorf("k=%d: T(0) child gets %d agents", k, plan[k-1])
		}
	}
	if DispatchPlan(0) != nil {
		t.Error("leaf dispatch plan should be nil")
	}
}

func TestPathFromRoot(t *testing.T) {
	const d = 6
	bt := New(d)
	for v := 0; v < bt.Order(); v++ {
		p := bt.PathFromRoot(v)
		if p[0] != 0 || p[len(p)-1] != v || len(p) != bt.Depth(v)+1 {
			t.Fatalf("bad path to %d: %v", v, p)
		}
		for i := 1; i < len(p); i++ {
			if bt.Parent(p[i]) != p[i-1] {
				t.Fatalf("path to %d not a tree path: %v", v, p)
			}
		}
	}
}

func TestFigure1Structure(t *testing.T) {
	// Figure 1 of the paper: the broadcast tree T(6) of H_6. Check the
	// headline numbers visible in the figure: the root has 6 children
	// of types T(5)..T(0), and level 1 is exactly the root's children.
	bt := New(6)
	root := bt.Children(0)
	if len(root) != 6 {
		t.Fatalf("root has %d children", len(root))
	}
	for i, c := range root {
		if bt.Type(c) != 5-i {
			t.Errorf("root child %d has type T(%d)", c, bt.Type(c))
		}
		if bt.Depth(c) != 1 {
			t.Errorf("root child %d at depth %d", c, bt.Depth(c))
		}
	}
	// |T(6)| = 64 and leaves = 32.
	if bt.SubtreeSize(0) != 64 || len(bt.Leaves()) != 32 {
		t.Error("T(6) size/leaf counts wrong")
	}
}

// TestNextHopDownMatchesPathFromRoot: stepping NextHopDown from the
// root visits exactly the vertices PathFromRoot returns.
func TestNextHopDownMatchesPathFromRoot(t *testing.T) {
	for d := 0; d <= 6; d++ {
		bt := New(d)
		for x := 0; x < bt.Order(); x++ {
			want := bt.PathFromRoot(x)
			got := []int{0}
			for cur := 0; cur != x; {
				next := bt.NextHopDown(cur, x)
				if next == cur {
					t.Fatalf("d=%d: NextHopDown stalled at %d short of %d", d, cur, x)
				}
				if bt.Parent(next) != cur {
					t.Fatalf("d=%d: NextHopDown(%d,%d)=%d is not a tree child", d, cur, x, next)
				}
				got = append(got, next)
				cur = next
			}
			if len(got) != len(want) {
				t.Fatalf("d=%d root->%d: stepped %v, want %v", d, x, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d root->%d: stepped %v, want %v", d, x, got, want)
				}
			}
		}
	}
}

// TestNextHopDownRejectsNonDescendants: asking for a hop toward a node
// outside the subtree panics rather than fabricating a non-tree edge.
func TestNextHopDownRejectsNonDescendants(t *testing.T) {
	bt := New(3)
	for _, pair := range [][2]int{{4, 5}, {2, 1}, {6, 7}} {
		v, x := pair[0], pair[1]
		// Skip pairs that are genuine ancestor/descendant in this d.
		if func() (desc bool) {
			for c := x; ; c = bt.Parent(c) {
				if c == v {
					return true
				}
				if c == 0 {
					return false
				}
			}
		}() {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NextHopDown(%d,%d) should panic", v, x)
				}
			}()
			bt.NextHopDown(v, x)
		}()
	}
}
