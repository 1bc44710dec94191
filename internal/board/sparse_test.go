package board

import (
	"math/rand"
	"testing"

	"hypersearch/internal/hypercube"
)

// TestSparseCountMatchesMap drives the open-addressing count table
// through random inc/dec/reset traffic mirrored into a plain map,
// crossing several growth and deletion phases: backward-shift deletion
// is the classic place for a probe-chain bug to hide.
func TestSparseCountMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s sparseCount
		ref := map[int]int{}
		const nodes = 300
		for op := 0; op < 5000; op++ {
			v := rng.Intn(nodes)
			switch {
			case rng.Intn(20) == 0:
				s.reset()
				ref = map[int]int{}
			case ref[v] > 0 && rng.Intn(2) == 0:
				got := s.dec(v)
				ref[v]--
				if ref[v] == 0 {
					delete(ref, v)
				}
				if got != ref[v] {
					t.Fatalf("seed %d op %d: dec(%d) = %d, want %d", seed, op, v, got, ref[v])
				}
			default:
				got := s.inc(v)
				ref[v]++
				if got != ref[v] {
					t.Fatalf("seed %d op %d: inc(%d) = %d, want %d", seed, op, v, got, ref[v])
				}
			}
			// Spot-check random lookups, including absent keys.
			for i := 0; i < 3; i++ {
				w := rng.Intn(nodes)
				if s.get(w) != ref[w] {
					t.Fatalf("seed %d op %d: get(%d) = %d, want %d", seed, op, w, s.get(w), ref[w])
				}
			}
		}
	}
}

// TestSparseCountDecPanicsOnEmptyNode: decrementing a node with no
// recorded agents must panic loudly, not corrupt the table.
func TestSparseCountDecPanicsOnEmptyNode(t *testing.T) {
	var s sparseCount
	s.inc(3)
	defer func() {
		if recover() == nil {
			t.Error("dec on an empty node did not panic")
		}
	}()
	s.dec(4)
}

// TestBoardReserve: Board.Reserve pre-sizes the position slice without
// disturbing live agents, and 500 agents on the homebase count right
// across the byte plane's 255 and the overflow table.
func TestBoardReserve(t *testing.T) {
	b := New(hypercube.New(4), 0)
	a := b.Place(0)
	b.Reserve(500)
	if v, active := b.Position(a); !active || v != b.Home() {
		t.Fatalf("Reserve disturbed agent %d: node %d active=%v", a, v, active)
	}
	for i := 1; i < 500; i++ {
		b.Place(0)
	}
	if got := b.AgentsOn(b.Home()); got != 500 {
		t.Fatalf("homebase holds %d agents, want 500", got)
	}
}
