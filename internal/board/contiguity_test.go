package board

import (
	"math/rand"
	"testing"

	"hypersearch/internal/hypercube"
)

// setDecon makes exactly the nodes of set decontaminated, for tests
// that only ask Contiguous about an arbitrary set.
func setDecon(b *Board, set []bool) {
	b.decon.clearAll()
	b.deconCount = 0
	for v, in := range set {
		if in {
			b.decon.set(v)
			b.deconCount++
		}
	}
}

// grow returns a random connected set of about size nodes of H_d: it
// starts from a random node and keeps adding a random neighbour of a
// random member.
func grow(rng *rand.Rand, d, size int) []bool {
	n := 1 << d
	set := make([]bool, n)
	members := []int{rng.Intn(n)}
	set[members[0]] = true
	for tries := 0; len(members) < size && d > 0 && tries < 8*size; tries++ {
		v := members[rng.Intn(len(members))] ^ 1<<rng.Intn(d)
		if !set[v] {
			set[v] = true
			members = append(members, v)
		}
	}
	return set
}

// isolate adds to set a node with no neighbour in it, which makes the
// set disconnected, and reports whether such a node exists.
func isolate(rng *rand.Rand, d int, set []bool) bool {
	n := len(set)
	for off := 0; off < n; off++ {
		v := (rng.Intn(n) + off) % n
		if set[v] {
			continue
		}
		alone := true
		for i := 0; i < d && alone; i++ {
			alone = !set[v^1<<i]
		}
		if alone {
			set[v] = true
			return true
		}
	}
	return false
}

// TestWordSearchMatchesNodeBFS checks the hypercube word search
// against the generic node BFS (the same cube behind plainGraph) on
// random decontaminated sets for d = 0..12: grown connected sets, the
// same sets with an isolated node added (disconnected from d = 2 on,
// where a node can miss a set's whole neighbourhood), and uniformly
// random sets of several densities. Both truth values must come up at
// every d >= 2, and the search must leave its pend plane empty.
func TestWordSearchMatchesNodeBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 0; d <= 12; d++ {
		h := hypercube.New(d)
		words, nodes := New(h, 0), New(plainGraph{h}, 0)
		if words.cube == nil || nodes.cube != nil {
			t.Fatal("the hypercube board must take the word search and the plainGraph board the node BFS")
		}
		n := 1 << d
		seen := map[bool]int{}
		// check compares the two searches on set and returns the verdict.
		check := func(kind string, set []bool) bool {
			t.Helper()
			setDecon(words, set)
			setDecon(nodes, set)
			got, ref := words.Contiguous(), nodes.Contiguous()
			if got != ref {
				t.Fatalf("d=%d %s set of %d nodes: word search says %v, node BFS %v", d, kind, words.deconCount, got, ref)
			}
			for i, x := range words.pend {
				if x != 0 {
					t.Fatalf("d=%d %s set: pend word %d left %#x", d, kind, i, x)
				}
			}
			seen[got]++
			return got
		}
		for trial := 0; trial < 40; trial++ {
			set := grow(rng, d, 1+rng.Intn(n))
			if !check("grown", set) {
				t.Fatalf("d=%d: a grown set is not contiguous", d)
			}
			if isolate(rng, d, set) && check("grown plus an isolated node", set) {
				t.Fatalf("d=%d: a set with an isolated node is contiguous", d)
			}
			p := []float64{0.05, 0.3, 0.5, 0.7, 0.95}[trial%5]
			random := make([]bool, n)
			for v := range random {
				random[v] = rng.Float64() < p
			}
			check("random", random)
		}
		full := make([]bool, n)
		for v := range full {
			full[v] = true
		}
		if !check("full", full) {
			t.Fatalf("d=%d: the whole cube is not contiguous", d)
		}
		if d >= 2 && (seen[true] == 0 || seen[false] == 0) {
			t.Fatalf("d=%d: %d connected and %d disconnected sets, want both", d, seen[true], seen[false])
		}
	}
}
