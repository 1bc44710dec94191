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
	b.decon[b.home] = true // a placement is an arrival
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

// chooser is where runRandomOps draws its choices from: a seeded
// random source (seeded), or a fuzzer's bytes (byteChooser), which run
// out.
type chooser interface {
	Intn(n int) int
	// done reports that no choice is left to draw.
	done() bool
}

// seeded draws choices from a *rand.Rand, which never runs out.
type seeded struct{ *rand.Rand }

func (seeded) done() bool { return false }

// byteChooser reads choices from a byte string, two bytes a choice,
// and chooses 0 once the bytes run out.
type byteChooser struct{ data []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.data) < 2 {
		return 0
	}
	v := int(c.data[0])<<8 | int(c.data[1])
	c.data = c.data[2:]
	return v % n
}

func (c *byteChooser) done() bool { return len(c.data) < 2 }

// runStats counts what the run ops of runRandomOps reached: runs that
// took a node's count above 255 (up) or from above 255 to below it
// (down), and runs whose source, left empty, flooded.
type runStats struct{ runs, up, down, floods int }

// runRandomOps places team agents on both boards, then drives them
// through the same random operation sequence of at most steps
// operations, ending early when rng is done, comparing after every
// step. A run op moves a random number of one node's agents, in a
// random order, to a random neighbour: one MoveRun on the packed board,
// one move per agent on the legacy board.
func runRandomOps(t *testing.T, rng chooser, g graph.Graph, b *Board, l *legacyBoard, team, steps int) (st runStats) {
	at := int64(0)
	var active []int
	for i := 0; i < team; i++ {
		active = append(active, b.Place(at))
		l.place(at)
	}
	compareBoards(t, -1, b, l)
	for step := 0; step < steps && !rng.done(); step++ {
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
		case op == 3: // move a run of one node's agents to a random neighbour
			v, _ := b.Position(active[rng.Intn(len(active))])
			var here []int32
			for _, id := range active {
				if p, _ := b.Position(id); p == v {
					here = append(here, int32(id))
				}
			}
			run := here[:1+rng.Intn(len(here))]
			for i := range run {
				j := i + rng.Intn(len(here)-i)
				here[i], here[j] = here[j], here[i]
			}
			nbrs := g.Neighbours(v)
			if len(nbrs) == 0 {
				continue
			}
			to := nbrs[rng.Intn(len(nbrs))]
			onFrom, onTo, recont := b.AgentsOn(v), b.AgentsOn(to), b.Recontaminations()
			if from := b.MoveRun(run, to, at); from != v {
				t.Fatalf("step %d: MoveRun from node %d returned %d", step, v, from)
			}
			for _, id := range run {
				l.move(int(id), to, at)
			}
			st.runs++
			if onTo <= 255 && b.AgentsOn(to) > 255 {
				st.up++
			}
			if onFrom > 255 && b.AgentsOn(v) < 255 {
				st.down++
			}
			if b.Recontaminations() > recont {
				st.floods++
			}
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
	return st
}

// TestPackedMatchesLegacyReference is the packed representation's
// ground truth: on random operation sequences over several topologies
// — including a visitor-less wrapper (slice fallback) and a
// hub-degree-256 star (contamNbrs overflow, scan fallback) — every
// observable of the packed board must equal the legacy byte-per-fact
// implementation after every single operation, runs of moves
// included. The d=8 case spans four words, so its contiguity checks
// cross the labels from 6 up that the word search maps between words.
// The crowded case starts 300 agents on the homebase, so its count
// crosses the byte plane's 255 upwards into the overflow table and
// back down as the team disperses, and runs take other nodes across
// 255 both ways in one operation. On every topology some runs empty
// their source next to a contaminated node, which floods it. Run it
// under -race to double as a memory-safety check on the bit planes.
func TestPackedMatchesLegacyReference(t *testing.T) {
	cases := []struct {
		name  string
		g     graph.Graph
		team  int
		steps int
	}{
		{"hypercube/d=3", hypercube.New(3), 1, 400},
		{"hypercube/d=5", hypercube.New(5), 1, 600},
		{"hypercube/d=8", hypercube.New(8), 3, 1500},
		{"plain/d=4", plainGraph{hypercube.New(4)}, 1, 500},
		{"star/n=257", starGraph{257}, 1, 400},
		{"crowded/d=3", hypercube.New(3), 300, 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var total runStats
			for seed := int64(1); seed <= 5; seed++ {
				b := New(tc.g, 0)
				b.RecordClean(true)
				if _, isStar := tc.g.(starGraph); isStar && b.contamNbrs != nil {
					t.Fatal("star hub should overflow the contamNbrs counters")
				}
				l := newLegacy(tc.g, 0)
				st := runRandomOps(t, seeded{rand.New(rand.NewSource(seed))}, tc.g, b, l, tc.team, tc.steps)
				if tc.team > 255 && b.AgentsOn(0) >= 255 {
					t.Fatalf("seed %d: the homebase still holds %d agents; the team never dispersed below the byte plane's 255", seed, b.AgentsOn(0))
				}
				total.runs += st.runs
				total.up += st.up
				total.down += st.down
				total.floods += st.floods
			}
			if total.floods == 0 {
				t.Errorf("none of %d runs flooded its source", total.runs)
			}
			if tc.team > 255 && (total.up == 0 || total.down == 0) {
				t.Errorf("runs crossed 255 %d times upwards and %d downwards, want both", total.up, total.down)
			}
			t.Logf("%d runs: %d crossed 255 upwards, %d downwards, %d flooded", total.runs, total.up, total.down, total.floods)
		})
	}
}

// FuzzPackedMatchesLegacy drives the packed and the legacy board
// through an operation sequence decoded from the fuzzer's bytes
// (runRandomOps with a byteChooser, until the bytes run out: an
// operation takes two choices, four bytes, and moves, runs,
// terminations and clones take more) and compares them after every
// operation. The graph is H_1 to H_5, with or without its visitor and
// edge-checker extensions, and the team starts with 1 to 400 agents on
// the homebase, so a sequence can take counts across 255 and runs into
// the overflow table.
func FuzzPackedMatchesLegacy(f *testing.F) {
	f.Add(uint8(2), false, uint16(0), []byte("\x00\x03\x00\x00\x01\x00\x00\x03\x00\x07"))
	f.Add(uint8(3), true, uint16(3), []byte("\x00\x03\x00\x01\x00\x02\x00\x00\x00\x09\x00\x00\x00\x01"))
	f.Add(uint8(2), false, uint16(299), []byte("\x00\x03\x00\x00\x01\x10\x00\x01\x00\x03\x00\x00\x00\xff\x00\x00"))
	// One run of 280 of the homebase's 300 agents: both counts cross 255.
	f.Add(uint8(2), false, uint16(299), []byte("\x00\x00\x00\x03\x00\x00\x01\x17"))
	// A move, then a run that empties the homebase next to a
	// contaminated node, which floods it.
	f.Add(uint8(2), false, uint16(1), []byte("\x00\x00\x00\x04\x00\x00\x00\x00\x00\x01\x00\x03\x00\x01\x00\x00\x00\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, d uint8, plain bool, team uint16, ops []byte) {
		var g graph.Graph = hypercube.New(1 + int(d%5))
		if plain {
			g = plainGraph{g}
		}
		b := New(g, 0)
		b.RecordClean(true)
		runRandomOps(t, &byteChooser{ops}, g, b, newLegacy(g, 0), 1+int(team%400), len(ops))
	})
}

// TestResetEqualsFresh: a Reset packed board must be observably
// identical to a newly constructed one — same random run, same
// outcome — since pooled environments rely on Reset alone.
func TestResetEqualsFresh(t *testing.T) {
	g := hypercube.New(4)
	b := New(g, 0)
	b.RecordClean(true)
	runRandomOps(t, seeded{rand.New(rand.NewSource(7))}, g, b, newLegacy(g, 0), 1, 500)

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
	runRandomOps(t, seeded{rand.New(rand.NewSource(11))}, g, b, newLegacy(g, 0), 1, 500)
	runRandomOps(t, seeded{rand.New(rand.NewSource(11))}, g, fresh, newLegacy(g, 0), 1, 500)
	for v := 0; v < g.Order(); v++ {
		if b.StateOf(v) != fresh.StateOf(v) || b.CleanOrder(v) != fresh.CleanOrder(v) {
			t.Fatalf("replay diverged at node %d", v)
		}
	}
	if b.Moves() != fresh.Moves() || b.Recontaminations() != fresh.Recontaminations() {
		t.Fatal("replay counters diverged")
	}
}
