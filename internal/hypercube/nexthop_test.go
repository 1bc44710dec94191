package hypercube

import (
	"testing"

	"hypersearch/internal/bits"
)

// TestNextHopTowardMatchesShortestPath: stepping NextHopToward from v
// visits exactly the vertices ShortestPath(v, w) returns, for every
// pair — the incremental router and the slice-returning one implement
// the same canonical path (clear low bits first, then set low bits
// first).
func TestNextHopTowardMatchesShortestPath(t *testing.T) {
	for d := 0; d <= 6; d++ {
		h := New(d)
		for v := 0; v < h.Order(); v++ {
			for w := 0; w < h.Order(); w++ {
				want := h.ShortestPath(v, w)
				got := []int{v}
				for cur := v; cur != w; {
					next := h.NextHopToward(cur, w)
					if next == cur {
						t.Fatalf("d=%d: NextHopToward(%d,%d) stalled before arrival", d, cur, w)
					}
					got = append(got, next)
					cur = next
					if len(got) > d+2 {
						t.Fatalf("d=%d: walk %d->%d did not terminate", d, v, w)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("d=%d %d->%d: stepped %v, want %v", d, v, w, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("d=%d %d->%d: stepped %v, want %v", d, v, w, got, want)
					}
				}
			}
		}
	}
}

// TestNextHopTowardAtDestination: the function is a fixed point at the
// destination.
func TestNextHopTowardAtDestination(t *testing.T) {
	h := New(4)
	for v := 0; v < h.Order(); v++ {
		if got := h.NextHopToward(v, v); got != v {
			t.Fatalf("NextHopToward(%d,%d) = %d, want fixed point", v, v, got)
		}
	}
}

// TestCachedNeighbourPartitions: the smaller/bigger lists match the
// bits-level definitions and partition the neighbour row.
func TestCachedNeighbourPartitions(t *testing.T) {
	for d := 0; d <= 6; d++ {
		h := New(d)
		for v := 0; v < h.Order(); v++ {
			s, b := h.SmallerNeighbours(v), h.BiggerNeighbours(v)
			ws := bits.SmallerNeighbours(bits.Node(v), d)
			wb := bits.BiggerNeighbours(bits.Node(v), d)
			if len(s) != len(ws) || len(b) != len(wb) {
				t.Fatalf("d=%d v=%d: partition sizes %d/%d, want %d/%d", d, v, len(s), len(b), len(ws), len(wb))
			}
			for i, x := range ws {
				if s[i] != int(x) {
					t.Fatalf("d=%d v=%d: smaller[%d]=%d, want %d", d, v, i, s[i], int(x))
				}
			}
			for i, x := range wb {
				if b[i] != int(x) {
					t.Fatalf("d=%d v=%d: bigger[%d]=%d, want %d", d, v, i, b[i], int(x))
				}
			}
			if len(s)+len(b) != d {
				t.Fatalf("d=%d v=%d: partition does not cover all %d neighbours", d, v, d)
			}
		}
	}
}

// TestNeighbourQueriesZeroAlloc: the iterator forms of the topology
// queries and the step-by-step router allocate nothing.
func TestNeighbourQueriesZeroAlloc(t *testing.T) {
	h := New(8)
	sum := 0
	yield := func(w int) bool { sum += w; return true }
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < h.Order(); v++ {
			h.VisitNeighbours(v, yield)
			h.VisitSmallerNeighbours(v, yield)
			h.VisitBiggerNeighbours(v, yield)
			sum += h.NextHopToward(v, h.Order()-1-v)
		}
		for l := 0; l <= h.Dim(); l++ {
			h.VisitNodesAtLevel(l, yield)
		}
	})
	if allocs != 0 {
		t.Fatalf("topology queries allocate %.0f per sweep, want 0", allocs)
	}
}
