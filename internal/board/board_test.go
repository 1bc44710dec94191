package board

import (
	"testing"

	"hypersearch/internal/graph"
	"hypersearch/internal/hypercube"
)

// pathGraph returns the path 0-1-2-...-n-1.
func pathGraph(n int) graph.Graph {
	g := graph.NewAdjacency(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestInitialState(t *testing.T) {
	b := New(pathGraph(4), 0)
	if b.StateOf(0) != Clean {
		t.Errorf("home state = %v", b.StateOf(0))
	}
	for v := 1; v < 4; v++ {
		if b.StateOf(v) != Contaminated {
			t.Errorf("node %d state = %v", v, b.StateOf(v))
		}
	}
	if b.AllClean() || b.ContaminatedCount() != 3 {
		t.Error("initial contamination wrong")
	}
	if b.Home() != 0 || b.Graph().Order() != 4 {
		t.Error("accessors wrong")
	}
}

func TestNewRejectsBadHome(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad homebase accepted")
		}
	}()
	New(pathGraph(3), 3)
}

func TestPlaceAndGuard(t *testing.T) {
	b := New(pathGraph(3), 0)
	a := b.Place(0)
	if a != 0 || b.Agents() != 1 {
		t.Error("agent id/count wrong")
	}
	if b.StateOf(0) != Guarded || b.AgentsOn(0) != 1 {
		t.Error("home not guarded after place")
	}
	if p, active := b.Position(a); p != 0 || !active {
		t.Error("position wrong")
	}
}

// Sweeping a path with one agent is a valid monotone contiguous search.
func TestPathSweepIsMonotone(t *testing.T) {
	const n = 6
	b := New(pathGraph(n), 0)
	b.RecordClean(true)
	a := b.Place(0)
	for v := 1; v < n; v++ {
		if from := b.Move(a, v, int64(v)); from != v-1 {
			t.Fatalf("Move to %d returned %d, want the node it left, %d", v, from, v-1)
		}
		if !b.Contiguous() {
			t.Fatalf("contiguity broken at step %d", v)
		}
	}
	if !b.AllClean() {
		t.Error("path not fully cleaned")
	}
	if b.MonotoneViolations() != 0 || b.Recontaminations() != 0 {
		t.Error("sweep should not recontaminate")
	}
	if b.Moves() != n-1 {
		t.Errorf("moves = %d", b.Moves())
	}
	// Every node but the last settled in sweep order.
	for v := 0; v < n-1; v++ {
		if b.CleanOrder(v) != v {
			t.Errorf("clean order of %d = %d", v, b.CleanOrder(v))
		}
	}
	// The final node is guarded, not yet settled.
	if b.CleanOrder(n-1) != -1 {
		t.Error("guarded terminal node should not be settled yet")
	}
	if v := b.Terminate(a, int64(n)); v != n-1 {
		t.Errorf("Terminate returned %d, want the node it settled on, %d", v, n-1)
	}
	if b.CleanOrder(n-1) < 0 {
		t.Error("terminate should settle the final node")
	}
	if _, active := b.Position(a); active {
		t.Error("terminated agent still active")
	}
}

// A single agent on a cycle cannot clean monotonically: walking away
// from the frontier exposes the node behind.
func TestCycleRecontaminates(t *testing.T) {
	g := graph.NewAdjacency(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	b := New(g, 0)
	a := b.Place(0)
	b.Move(a, 1, 1) // leaving 0 exposes it to neighbour 3
	if b.StateOf(0) != Contaminated {
		t.Errorf("node 0 state = %v, want recontaminated", b.StateOf(0))
	}
	if b.Recontaminations() != 1 {
		t.Errorf("recontaminations = %d", b.Recontaminations())
	}
	// Node 0 was never stably clean, so no monotonicity violation yet.
	if b.MonotoneViolations() != 0 {
		t.Errorf("violations = %d, want 0", b.MonotoneViolations())
	}
}

// A multiply-guarded node is not exposed until its last agent leaves,
// and walking back through clean territory causes no violations.
func TestMultiGuardAndBacktrack(t *testing.T) {
	b := New(pathGraph(4), 0)
	b.RecordClean(true)
	a1 := b.Place(0)
	a2 := b.Place(0)
	b.Move(a1, 1, 1)
	// 0 still holds a2: guarded, not settled.
	if b.StateOf(0) != Guarded || b.CleanOrder(0) != -1 {
		t.Fatal("home should remain guarded while the rear guard stays")
	}
	b.Move(a2, 1, 2)
	// Now 0 is exposed; its only neighbour is guarded -> stably clean.
	if b.StateOf(0) != Clean || b.CleanOrder(0) != 0 {
		t.Fatal("home should settle once the last agent leaves")
	}
	// Sweep to the end with a1, a2 trailing one behind.
	b.Move(a1, 2, 3)
	b.Move(a2, 2, 4)
	b.Move(a1, 3, 5)
	if !b.AllClean() {
		t.Fatal("everything should be decontaminated")
	}
	// Backtrack a1 through clean territory: no recontamination.
	b.Move(a1, 2, 6)
	b.Move(a2, 1, 7)
	b.Move(a1, 1, 8)
	b.Move(a1, 0, 9)
	if b.MonotoneViolations() != 0 || b.Recontaminations() != 0 {
		t.Fatalf("backtracking through clean territory recontaminated: %d/%d",
			b.MonotoneViolations(), b.Recontaminations())
	}
	if !b.AllClean() {
		t.Fatal("everything should still be clean")
	}
}

func TestFloodSwallowsCleanRegion(t *testing.T) {
	// Star: center 0, leaves 1..4. Clean leaf 1, then abandon center
	// while other leaves are contaminated: the flood must take 0 and
	// count a violation for stably-clean leaf 1 when it reaches it.
	g := graph.NewAdjacency(5)
	for v := 1; v <= 4; v++ {
		g.AddEdge(0, v)
	}
	b := New(g, 0)
	b.RecordClean(true)
	a := b.Place(0)
	guard := b.Place(0) // rear guard holds the center
	b.Move(a, 1, 1)
	b.Move(a, 0, 2) // leaf 1 exposed; only neighbour 0 guarded -> stably clean
	if b.StateOf(1) != Clean || b.CleanOrder(1) < 0 {
		t.Fatal("leaf 1 should be stably clean")
	}
	b.Move(a, 2, 3) // center still guarded by the rear guard
	if b.StateOf(0) != Guarded {
		t.Fatal("center should be guarded")
	}
	b.Move(guard, 2, 4) // center exposed to contaminated leaves 3, 4
	if b.StateOf(0) != Contaminated {
		t.Fatal("center should be recontaminated")
	}
	// The flood must have swallowed the stably clean, unguarded leaf 1.
	if b.StateOf(1) != Contaminated {
		t.Fatal("leaf 1 should flood")
	}
	if b.MonotoneViolations() != 1 {
		t.Fatalf("violations = %d, want 1 (leaf 1)", b.MonotoneViolations())
	}
	if b.CleanOrder(1) != -1 || b.CleanTime(1) != -1 {
		t.Error("flooded node should lose its settled status")
	}
	// Leaf 2 is guarded by both agents, so the flood stopped there.
	if b.StateOf(2) != Guarded {
		t.Fatal("leaf 2 should be guarded")
	}
}

func TestMoveValidation(t *testing.T) {
	cases := []struct {
		name string
		bad  func(b *Board, a int)
	}{
		{"non-edge", func(b *Board, a int) { b.Move(a, 2, 1) }},
		{"unknown agent", func(b *Board, a int) { b.Move(7, 1, 1) }},
		{"negative agent", func(b *Board, a int) { b.Move(-1, 1, 1) }},
		{"time backwards", func(b *Board, a int) {
			b.Move(a, 1, 5)
			b.Move(a, 0, 4)
		}},
		{"position of unknown agent", func(b *Board, a int) { b.Position(9) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := New(pathGraph(3), 0)
			a := b.Place(0)
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", c.name)
				}
			}()
			c.bad(b, a)
		})
	}
}

// TestMoveRunValidation: MoveRun panics on a run that is not one of
// agents standing on its source, or on a non-edge, and every agent
// stays where it stood, with every count unchanged. On H_2 the team
// is agents 0, 1 and 3 on the homebase, agent 2 terminated there and
// agent 4 on node 1.
func TestMoveRunValidation(t *testing.T) {
	cases := []struct {
		name string
		ids  []int32
		to   int
	}{
		{"non-edge", []int32{0, 1}, 3},
		{"node outside the cube", []int32{0}, 4},
		{"agent on another node", []int32{0, 1, 4}, 2},
		{"repeated agent", []int32{0, 1, 0}, 2},
		{"terminated agent", []int32{0, 2}, 2},
		{"terminated first agent", []int32{2, 0}, 2},
		{"unknown agent", []int32{0, 9}, 2},
		{"negative agent", []int32{0, -1}, 2},
		{"empty run", nil, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := New(hypercube.New(2), 0)
			for i := 0; i < 5; i++ {
				b.Place(0)
			}
			b.Terminate(2, 0)
			b.Move(4, 1, 0)
			before := make([]int, b.Agents())
			for id := range before {
				before[id], _ = b.Position(id)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("MoveRun(%v, %d) accepted", c.ids, c.to)
				}
				for id, v := range before {
					if got, _ := b.Position(id); got != v {
						t.Errorf("agent %d stands on node %d after the panic, was on %d", id, got, v)
					}
				}
				if b.AgentsOn(0) != 4 || b.AgentsOn(1) != 1 || b.AgentsOn(2) != 0 || b.Moves() != 1 {
					t.Errorf("counts changed: %d, %d, %d agents on nodes 0-2, %d moves", b.AgentsOn(0), b.AgentsOn(1), b.AgentsOn(2), b.Moves())
				}
			}()
			b.MoveRun(c.ids, c.to, 1)
		})
	}
}

func TestTerminatedAgentCannotMove(t *testing.T) {
	b := New(pathGraph(3), 0)
	a := b.Place(0)
	b.Terminate(a, 1)
	defer func() {
		if recover() == nil {
			t.Error("terminated agent moved")
		}
	}()
	b.Move(a, 1, 2)
}

func TestCloneRules(t *testing.T) {
	b := New(pathGraph(3), 0)
	a := b.Place(0)
	c := b.Clone(0, 1)
	if b.AgentsOn(0) != 2 || c != 1 {
		t.Error("clone accounting wrong")
	}
	b.Move(a, 1, 2)
	c2 := b.Clone(1, 3)
	if b.AgentsOn(1) != 2 {
		t.Error("clone on remote node wrong")
	}
	_ = c2
	defer func() {
		if recover() == nil {
			t.Error("clone on unguarded node accepted")
		}
	}()
	b.Clone(2, 4)
}

func TestPeakAwayTracking(t *testing.T) {
	h := hypercube.New(3)
	b := New(h, 0)
	a1 := b.Place(0)
	a2 := b.Place(0)
	if b.PeakAway() != 0 {
		t.Error("peak away should start 0")
	}
	b.Move(a1, 1, 1)
	b.Move(a2, 2, 2)
	if b.PeakAway() != 2 {
		t.Errorf("peak away = %d", b.PeakAway())
	}
	b.Move(a1, 0, 3)
	if b.PeakAway() != 2 {
		t.Error("peak away must not decrease")
	}
}

func TestSnapshotAndNow(t *testing.T) {
	b := New(pathGraph(3), 0)
	b.RecordClean(true)
	a := b.Place(0)
	b.Move(a, 1, 7)
	snap := b.Snapshot()
	if snap[0] != Clean || snap[1] != Guarded || snap[2] != Contaminated {
		t.Errorf("snapshot = %v", snap)
	}
	if b.Now() != 7 {
		t.Errorf("Now = %d", b.Now())
	}
	if b.CleanTime(0) != 7 {
		t.Errorf("CleanTime(0) = %d", b.CleanTime(0))
	}
}

func TestStateString(t *testing.T) {
	if Contaminated.String() != "contaminated" || Guarded.String() != "guarded" || Clean.String() != "clean" {
		t.Error("State strings wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state string empty")
	}
}

// Fixpoint property: after any move sequence, an unguarded clean node
// never has a contaminated neighbour (the paper's recursive clean
// definition holds by construction).
func TestCleanFixpointInvariant(t *testing.T) {
	h := hypercube.New(4)
	b := New(h, 0)
	a := b.Place(0)
	// A wandering agent: deterministic pseudo-walk.
	cur := 0
	step := int64(1)
	for i := 0; i < 500; i++ {
		ns := h.Neighbours(cur)
		cur = ns[(i*7+i/3)%len(ns)]
		b.Move(a, cur, step)
		step++
		for v := 0; v < h.Order(); v++ {
			if b.StateOf(v) != Clean {
				continue
			}
			for _, w := range h.Neighbours(v) {
				if b.StateOf(w) == Contaminated {
					t.Fatalf("clean node %d adjacent to contaminated %d after move %d", v, w, i)
				}
			}
		}
	}
}
