package board

import (
	"testing"

	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
)

// BenchmarkMoveHotPath times the bookkeeping of one move between two
// guarded nodes of H_10: one agent shuttles between nodes 0 and 1 while
// another stays on each, so no move decontaminates, exposes or floods a
// node, and none allocates.
func BenchmarkMoveHotPath(b *testing.B) {
	bd := New(hypercube.New(10), 0)
	a := bd.Place(0)
	bd.Place(0)
	bd.Move(bd.Place(0), 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Move(a, (i+1)&1, int64(i+2))
	}
	b.StopTimer()
	if r := bd.Recontaminations(); r != 0 {
		b.Fatalf("%d recontaminations; the shuttle must not flood", r)
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
