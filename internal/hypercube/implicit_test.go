package hypercube

import (
	mathbits "math/bits"
	"reflect"
	"sort"
	"testing"
)

// oracleCube is H_d materialized by brute force, sharing no code with
// the package: neighbours are the vertices at Hamming distance one,
// sorted by label; the Definition-2 split cuts that row at label m(v);
// levels bucket the vertices by popcount in increasing order.
type oracleCube struct {
	neighbours, smaller, bigger, levels [][]int
}

func newOracleCube(d int) oracleCube {
	n := 1 << d
	o := oracleCube{
		neighbours: make([][]int, n),
		smaller:    make([][]int, n),
		bigger:     make([][]int, n),
		levels:     make([][]int, d+1),
	}
	label := func(v, w int) int { return mathbits.TrailingZeros(uint(v^w)) + 1 }
	for v := 0; v < n; v++ {
		row := []int{}
		for w := 0; w < n; w++ {
			if mathbits.OnesCount(uint(v^w)) == 1 {
				row = append(row, w)
			}
		}
		sort.Slice(row, func(i, j int) bool { return label(v, row[i]) < label(v, row[j]) })
		m := 0 // m(v): the position of v's highest set bit, 0 for the root
		for x := v; x != 0; x >>= 1 {
			m++
		}
		o.neighbours[v] = row
		o.smaller[v] = append([]int{}, row[:m]...)
		o.bigger[v] = append([]int{}, row[m:]...)
		l := mathbits.OnesCount(uint(v))
		o.levels[l] = append(o.levels[l], v)
	}
	return o
}

// collect gathers what a Visit* iterator yields, as a non-nil slice.
func collect(visit func(func(int) bool)) []int {
	out := []int{}
	visit(func(w int) bool { out = append(out, w); return true })
	return out
}

// TestImplicitMatchesMaterialized: every query computed from the
// node's bits agrees with a brute-force materialized H_d, in the exact
// same order — determinism of every engine rides on the iteration
// order.
func TestImplicitMatchesMaterialized(t *testing.T) {
	for d := 0; d <= 8; d++ {
		h, o := New(d), newOracleCube(d)
		if h.Dim() != d || h.Order() != 1<<d || h.Size() != d*(1<<d)/2 {
			t.Fatalf("d=%d: dim/order/size %d/%d/%d", d, h.Dim(), h.Order(), h.Size())
		}
		for v := 0; v < h.Order(); v++ {
			for _, q := range []struct {
				name      string
				got, want []int
			}{
				{"Neighbours", h.Neighbours(v), o.neighbours[v]},
				{"VisitNeighbours", collect(func(y func(int) bool) { h.VisitNeighbours(v, y) }), o.neighbours[v]},
				{"SmallerNeighbours", h.SmallerNeighbours(v), o.smaller[v]},
				{"VisitSmallerNeighbours", collect(func(y func(int) bool) { h.VisitSmallerNeighbours(v, y) }), o.smaller[v]},
				{"BiggerNeighbours", h.BiggerNeighbours(v), o.bigger[v]},
				{"VisitBiggerNeighbours", collect(func(y func(int) bool) { h.VisitBiggerNeighbours(v, y) }), o.bigger[v]},
			} {
				if !reflect.DeepEqual(q.got, q.want) {
					t.Fatalf("d=%d v=%d: %s %v, want %v", d, v, q.name, q.got, q.want)
				}
			}
			for i, w := range o.neighbours[v] {
				if !h.HasEdge(v, w) || h.Label(v, w) != i+1 || h.Neighbour(v, i+1) != w {
					t.Fatalf("d=%d: edge (%d,%d) disagrees", d, v, w)
				}
			}
			if h.HasEdge(v, v) {
				t.Fatalf("d=%d: self-loop at %d", d, v)
			}
		}
		for l := 0; l <= d; l++ {
			if got := h.NodesAtLevel(l); !reflect.DeepEqual(got, o.levels[l]) {
				t.Fatalf("d=%d l=%d: NodesAtLevel %v, want %v", d, l, got, o.levels[l])
			}
			if got := collect(func(y func(int) bool) { h.VisitNodesAtLevel(l, y) }); !reflect.DeepEqual(got, o.levels[l]) {
				t.Fatalf("d=%d l=%d: VisitNodesAtLevel %v, want %v", d, l, got, o.levels[l])
			}
		}
	}
}

// TestSliceAccessorsAreOwned: the slice-returning accessors hand out
// fresh slices, so a caller that writes into one cannot corrupt the
// next answer.
func TestSliceAccessorsAreOwned(t *testing.T) {
	h := New(5)
	for _, get := range []func() []int{
		func() []int { return h.Neighbours(6) },
		func() []int { return h.SmallerNeighbours(6) },
		func() []int { return h.BiggerNeighbours(6) },
		func() []int { return h.NodesAtLevel(2) },
	} {
		want := append([]int(nil), get()...)
		scribble := get()
		for i := range scribble {
			scribble[i] = -1
		}
		if got := get(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after writing into a returned slice: %v, want %v", got, want)
		}
	}
}
