package heapqueue

import (
	"reflect"
	"sort"
	"testing"

	"hypersearch/internal/graph"
)

// oracleTree builds T(d) by brute force, sharing no code with the
// package: the parent of v != 0 is v with its most significant bit
// cleared, assembled into a graph.Tree.
func oracleTree(d int) *graph.Tree {
	parent := make([]int, 1<<d)
	for v := 1; v < len(parent); v++ {
		top := 1
		for top*2 <= v {
			top *= 2
		}
		parent[v] = v - top
	}
	return graph.MustTree(0, parent)
}

// orEmpty maps a nil slice to an empty one, so DeepEqual compares
// contents only.
func orEmpty(s []int) []int {
	if s == nil {
		return []int{}
	}
	return s
}

// TestImplicitTreeMatchesMaterialized: every navigation query computed
// from the node's bits agrees with the brute-force tree, child order
// included (dispatch order is part of the paper's algorithm).
func TestImplicitTreeMatchesMaterialized(t *testing.T) {
	for d := 0; d <= 8; d++ {
		bt, o := New(d), oracleTree(d)
		if bt.Dim() != d || bt.Order() != o.Order() {
			t.Fatalf("d=%d: dim/order %d/%d", d, bt.Dim(), bt.Order())
		}
		g := bt.Graph()
		for v := 0; v < bt.Order(); v++ {
			want := orEmpty(o.Children(v))
			if bt.Parent(v) != o.Parent(v) || g.Parent(v) != o.Parent(v) {
				t.Fatalf("d=%d v=%d: Parent %d (graph %d), want %d", d, v, bt.Parent(v), g.Parent(v), o.Parent(v))
			}
			if got := orEmpty(bt.Children(v)); !reflect.DeepEqual(got, want) {
				t.Fatalf("d=%d v=%d: Children %v, want %v", d, v, got, want)
			}
			if got := orEmpty(g.Children(v)); !reflect.DeepEqual(got, want) {
				t.Fatalf("d=%d v=%d: Graph().Children %v, want %v", d, v, got, want)
			}
			visited := []int{}
			bt.VisitChildren(v, func(c int) bool { visited = append(visited, c); return true })
			if !reflect.DeepEqual(visited, want) {
				t.Fatalf("d=%d v=%d: VisitChildren %v, want %v", d, v, visited, want)
			}
			size := o.SubtreeSize(v)
			if bt.SubtreeSize(v) != size || 1<<bt.Type(v) != size ||
				bt.IsLeaf(v) != o.IsLeaf(v) || bt.Depth(v) != o.Depth(v) {
				t.Fatalf("d=%d v=%d: node attributes differ", d, v)
			}
			path := []int{v}
			for x := v; x != 0; x = o.Parent(x) {
				path = append([]int{o.Parent(x)}, path...)
			}
			if got := bt.PathFromRoot(v); !reflect.DeepEqual(got, path) {
				t.Fatalf("d=%d v=%d: PathFromRoot %v, want %v", d, v, got, path)
			}
			if v != 0 && bt.NextHopDown(0, v) != path[1] {
				t.Fatalf("d=%d v=%d: NextHopDown(0, v) = %d, want %d", d, v, bt.NextHopDown(0, v), path[1])
			}
		}
		leaves := append([]int(nil), o.Leaves()...)
		sort.Ints(leaves)
		if got := bt.Leaves(); !reflect.DeepEqual(got, leaves) {
			t.Fatalf("d=%d: Leaves %v, want %v in increasing order", d, got, leaves)
		}
	}
}
