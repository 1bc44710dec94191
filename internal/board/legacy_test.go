package board

import (
	"math/rand"
	"testing"

	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
)

// legacyBoard is the pre-packing reference implementation: one byte or
// word per node per fact ([]bool planes, []int counts) and a full
// neighbourhood scan on every exposure. It exists only to pin the
// packed Board's semantics — every operation below mirrors the seed
// implementation line for line, so a divergence between the two under
// random operation sequences is a bug in the packed representation,
// not a modelling choice.
type legacyBoard struct {
	g    graph.Graph
	n    int
	home int
	pos  []int

	count     []int
	decon     []bool
	everClean []bool

	away     int
	peakAway int

	moves            int64
	recontaminations int64
	violations       int64

	cleanSeq    int
	cleanOrder  []int
	cleanTime   []int64
	currentTime int64
}

func newLegacy(g graph.Graph, home int) *legacyBoard {
	n := g.Order()
	b := &legacyBoard{
		g:          g,
		n:          n,
		home:       home,
		count:      make([]int, n),
		decon:      make([]bool, n),
		everClean:  make([]bool, n),
		cleanOrder: make([]int, n),
		cleanTime:  make([]int64, n),
	}
	for i := range b.cleanOrder {
		b.cleanOrder[i] = -1
		b.cleanTime[i] = -1
	}
	b.decon[home] = true
	return b
}

func (b *legacyBoard) place(at int64) int {
	b.currentTime = at
	id := len(b.pos)
	b.pos = append(b.pos, b.home)
	b.count[b.home]++
	return id
}

func (b *legacyBoard) clone(v int, at int64) int {
	b.currentTime = at
	id := len(b.pos)
	b.pos = append(b.pos, v)
	b.count[v]++
	if v != b.home {
		b.away++
		if b.away > b.peakAway {
			b.peakAway = b.away
		}
	}
	return id
}

func (b *legacyBoard) move(id, to int, at int64) {
	b.currentTime = at
	from := b.pos[id]
	b.pos[id] = to
	b.count[from]--
	b.count[to]++
	b.moves++
	if from != b.home {
		b.away--
	}
	if to != b.home {
		b.away++
		if b.away > b.peakAway {
			b.peakAway = b.away
		}
	}
	b.decon[to] = true
	if b.count[from] == 0 {
		b.expose(from)
	}
}

func (b *legacyBoard) terminate(id int, at int64) {
	b.currentTime = at
	v := b.pos[id]
	b.pos[id] = -1 - v
	b.settle(v)
}

func (b *legacyBoard) expose(u int) {
	if !b.decon[u] {
		return
	}
	spread := false
	for _, w := range b.g.Neighbours(u) {
		if !b.decon[w] {
			spread = true
			break
		}
	}
	if !spread {
		b.settle(u)
		return
	}
	queue := []int{u}
	b.recontaminate(u)
	for head := 0; head < len(queue); head++ {
		for _, w := range b.g.Neighbours(queue[head]) {
			if b.decon[w] && b.count[w] == 0 {
				b.recontaminate(w)
				queue = append(queue, w)
			}
		}
	}
}

func (b *legacyBoard) recontaminate(v int) {
	b.decon[v] = false
	b.recontaminations++
	if b.everClean[v] {
		b.violations++
	}
	b.everClean[v] = false
	b.cleanOrder[v] = -1
	b.cleanTime[v] = -1
}

func (b *legacyBoard) settle(v int) {
	if b.cleanOrder[v] >= 0 {
		return
	}
	if b.count[v] == 0 {
		b.everClean[v] = true
	}
	b.cleanOrder[v] = b.cleanSeq
	b.cleanTime[v] = b.currentTime
	b.cleanSeq++
}

func (b *legacyBoard) stateOf(v int) State {
	switch {
	case b.count[v] > 0:
		return Guarded
	case b.decon[v]:
		return Clean
	default:
		return Contaminated
	}
}

func (b *legacyBoard) contiguous() bool {
	start := -1
	total := 0
	for v := 0; v < b.n; v++ {
		if b.decon[v] {
			total++
			if start < 0 {
				start = v
			}
		}
	}
	if total == 0 {
		return true
	}
	seen := make([]bool, b.n)
	seen[start] = true
	reached := 1
	queue := []int{start}
	for head := 0; head < len(queue); head++ {
		for _, w := range b.g.Neighbours(queue[head]) {
			if b.decon[w] && !seen[w] {
				seen[w] = true
				reached++
				queue = append(queue, w)
			}
		}
	}
	return reached == total
}

// plainGraph strips a graph of its NeighbourVisitor/EdgeChecker
// extensions so the packed board's slice-fallback paths run too.
type plainGraph struct{ g graph.Graph }

func (p plainGraph) Order() int             { return p.g.Order() }
func (p plainGraph) Neighbours(v int) []int { return p.g.Neighbours(v) }

// starGraph has a hub of degree n-1: with n > 256 the hub overflows
// the byte-wide contaminated-neighbour counters, forcing the packed
// board onto its expose-time scan fallback.
type starGraph struct{ n int }

func (s starGraph) Order() int { return s.n }
func (s starGraph) Neighbours(v int) []int {
	if v == 0 {
		out := make([]int, s.n-1)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	return []int{0}
}

// compareBoards asserts full observable equality between the packed
// board and the legacy reference.
func compareBoards(t *testing.T, step int, b *Board, l *legacyBoard) {
	t.Helper()
	if b.Moves() != l.moves || b.Recontaminations() != l.recontaminations ||
		b.MonotoneViolations() != l.violations || b.PeakAway() != l.peakAway {
		t.Fatalf("step %d: counters diverged: packed (m=%d r=%d v=%d p=%d) legacy (m=%d r=%d v=%d p=%d)",
			step, b.Moves(), b.Recontaminations(), b.MonotoneViolations(), b.PeakAway(),
			l.moves, l.recontaminations, l.violations, l.peakAway)
	}
	if b.AllClean() != (l.n-deconCountOf(l) == 0) || b.ContaminatedCount() != l.n-deconCountOf(l) {
		t.Fatalf("step %d: contamination totals diverged", step)
	}
	for v := 0; v < l.n; v++ {
		if b.StateOf(v) != l.stateOf(v) {
			t.Fatalf("step %d: node %d state %v, legacy %v", step, v, b.StateOf(v), l.stateOf(v))
		}
		if b.AgentsOn(v) != l.count[v] {
			t.Fatalf("step %d: node %d count %d, legacy %d", step, v, b.AgentsOn(v), l.count[v])
		}
		if b.CleanOrder(v) != l.cleanOrder[v] || b.CleanTime(v) != l.cleanTime[v] {
			t.Fatalf("step %d: node %d clean record (%d,%d), legacy (%d,%d)",
				step, v, b.CleanOrder(v), b.CleanTime(v), l.cleanOrder[v], l.cleanTime[v])
		}
	}
	if b.Contiguous() != l.contiguous() {
		t.Fatalf("step %d: contiguity diverged", step)
	}
}

func deconCountOf(l *legacyBoard) int {
	n := 0
	for _, d := range l.decon {
		if d {
			n++
		}
	}
	return n
}

// runRandomOps drives both boards through the same random operation
// sequence, comparing after every step, and returns the op trace so a
// Reset board can replay it.
func runRandomOps(t *testing.T, rng *rand.Rand, g graph.Graph, b *Board, l *legacyBoard, steps int) {
	at := int64(0)
	b.Place(at)
	l.place(at)
	active := []int{0}
	for step := 0; step < steps; step++ {
		at += int64(rng.Intn(2))
		switch op := rng.Intn(10); {
		case op == 0: // place another agent at home
			b.Place(at)
			l.place(at)
			active = append(active, len(l.pos)-1)
		case op == 1 && len(active) > 1: // terminate a random agent
			i := rng.Intn(len(active))
			id := active[i]
			b.Terminate(id, at)
			l.terminate(id, at)
			active = append(active[:i], active[i+1:]...)
		case op == 2: // clone on a random occupied node
			id := active[rng.Intn(len(active))]
			v, _ := b.Position(id)
			b.Clone(v, at)
			l.clone(v, at)
			active = append(active, len(l.pos)-1)
		default: // move a random agent to a random neighbour
			id := active[rng.Intn(len(active))]
			v, _ := b.Position(id)
			nbrs := g.Neighbours(v)
			if len(nbrs) == 0 {
				continue
			}
			to := nbrs[rng.Intn(len(nbrs))]
			b.Move(id, to, at)
			l.move(id, to, at)
		}
		compareBoards(t, step, b, l)
	}
}

// TestPackedMatchesLegacyReference is the packed representation's
// ground truth: on random operation sequences over several topologies
// — including a visitor-less wrapper (slice fallback) and a
// hub-degree-256 star (contamNbrs overflow, scan fallback) — every
// observable of the packed board must equal the legacy byte-per-fact
// implementation after every single operation. Run it under -race to
// double as a memory-safety check on the bit planes.
func TestPackedMatchesLegacyReference(t *testing.T) {
	cases := []struct {
		name  string
		g     graph.Graph
		steps int
	}{
		{"hypercube/d=3", hypercube.New(3), 400},
		{"hypercube/d=5", hypercube.New(5), 600},
		{"plain/d=4", plainGraph{hypercube.New(4)}, 500},
		{"star/n=257", starGraph{257}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				b := New(tc.g, 0)
				b.RecordClean(true)
				if _, isStar := tc.g.(starGraph); isStar && b.contamNbrs != nil {
					t.Fatal("star hub should overflow the contamNbrs counters")
				}
				l := newLegacy(tc.g, 0)
				runRandomOps(t, rand.New(rand.NewSource(seed)), tc.g, b, l, tc.steps)
			}
		})
	}
}

// TestResetEqualsFresh: a Reset packed board must be observably
// identical to a newly constructed one — same random run, same
// outcome — since pooled environments rely on Reset alone.
func TestResetEqualsFresh(t *testing.T) {
	g := hypercube.New(4)
	b := New(g, 0)
	b.RecordClean(true)
	runRandomOps(t, rand.New(rand.NewSource(7)), g, b, newLegacy(g, 0), 500)

	b.Reset()
	fresh := New(g, 0)
	fresh.RecordClean(true)
	for v := 0; v < g.Order(); v++ {
		if b.StateOf(v) != fresh.StateOf(v) || b.AgentsOn(v) != fresh.AgentsOn(v) ||
			b.CleanOrder(v) != fresh.CleanOrder(v) {
			t.Fatalf("Reset board differs from fresh at node %d", v)
		}
	}
	if b.Moves() != 0 || b.PeakAway() != 0 || b.Now() != 0 {
		t.Fatal("Reset board kept counters")
	}

	// Replaying the same sequence on the reset board must reproduce the
	// fresh board's run exactly.
	runRandomOps(t, rand.New(rand.NewSource(11)), g, b, newLegacy(g, 0), 500)
	runRandomOps(t, rand.New(rand.NewSource(11)), g, fresh, newLegacy(g, 0), 500)
	for v := 0; v < g.Order(); v++ {
		if b.StateOf(v) != fresh.StateOf(v) || b.CleanOrder(v) != fresh.CleanOrder(v) {
			t.Fatalf("replay diverged at node %d", v)
		}
	}
	if b.Moves() != fresh.Moves() || b.Recontaminations() != fresh.Recontaminations() {
		t.Fatal("replay counters diverged")
	}
}
