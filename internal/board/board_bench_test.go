package board

import (
	"testing"

	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
)

// BenchmarkMoveHotPath measures the incremental contamination
// bookkeeping: a two-agent leapfrog along a long path (every move
// triggers an exposure check, none floods).
func BenchmarkMoveHotPath(b *testing.B) {
	h := hypercube.New(10)
	bd := New(h, 0)
	a := bd.Place(0)
	cur := 0
	var t int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := h.Neighbours(cur)[i%10]
		t++
		bd.Move(a, next, t)
		cur = next
	}
}

// BenchmarkContiguityCheck times the final contiguity check every run
// pays: an all-clean H_16, on the hypercube word search and on the
// generic node BFS (the same cube behind plainGraph).
func BenchmarkContiguityCheck(b *testing.B) {
	h := hypercube.New(16)
	all := make([]bool, h.Order())
	for v := range all {
		all[v] = true
	}
	for _, bc := range []struct {
		name string
		g    graph.Graph
	}{
		{"hypercube", h},
		{"generic", plainGraph{h}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bd := New(bc.g, 0)
			setDecon(bd, all)
			for i := 0; i < b.N; i++ {
				if !bd.Contiguous() {
					b.Fatal("an all-clean board should be contiguous")
				}
			}
		})
	}
}
