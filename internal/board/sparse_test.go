package board

import (
	"math/rand"
	"testing"

	"hypersearch/internal/hypercube"
)

// TestSparseCountMatchesMap drives the open-addressing count table
// through random add/sub/reset traffic of one to three agents at a
// time, mirrored into a plain map, crossing several growth and
// deletion phases: backward-shift deletion is the classic place for a
// probe-chain bug to hide.
func TestSparseCountMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s sparseCount
		ref := map[int]int{}
		const nodes = 300
		for op := 0; op < 5000; op++ {
			v, k := rng.Intn(nodes), 1+rng.Intn(3)
			switch {
			case rng.Intn(20) == 0:
				s.reset()
				ref = map[int]int{}
			case ref[v] > 0 && rng.Intn(2) == 0:
				k = min(k, ref[v])
				got := s.sub(v, k)
				ref[v] -= k
				if ref[v] == 0 {
					delete(ref, v)
				}
				if got != ref[v] {
					t.Fatalf("seed %d op %d: sub(%d, %d) = %d, want %d", seed, op, v, k, got, ref[v])
				}
			default:
				got := s.add(v, k)
				ref[v] += k
				if got != ref[v] {
					t.Fatalf("seed %d op %d: add(%d, %d) = %d, want %d", seed, op, v, k, got, ref[v])
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

// TestSparseCountDecPanicsOnEmptyNode: taking agents off a node with
// none recorded, or with fewer than are taken, must panic loudly, not
// corrupt the table.
func TestSparseCountDecPanicsOnEmptyNode(t *testing.T) {
	for name, sub := range map[string]func(*sparseCount){
		"empty node": func(s *sparseCount) { s.sub(4, 1) },
		"too many":   func(s *sparseCount) { s.sub(3, 3) },
	} {
		t.Run(name, func(t *testing.T) {
			var s sparseCount
			s.add(3, 2)
			defer func() {
				if recover() == nil {
					t.Error("sub did not panic")
				}
			}()
			sub(&s)
		})
	}
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
