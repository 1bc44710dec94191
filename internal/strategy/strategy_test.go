package strategy

import (
	"testing"
	"unsafe"

	"hypersearch/internal/des"
	"hypersearch/internal/trace"
)

// Env must stay a multiple of the 64-byte cache line: pooled
// environments that run at once on different cores are neighbours in
// the heap, and at any other size one's move counter shares a cache
// line with the next one's hot fields.
func TestEnvSizeIsCacheLineMultiple(t *testing.T) {
	if n := unsafe.Sizeof(Env{}); n%64 != 0 {
		t.Errorf("Env is %d bytes; resize its trailing padding to reach a multiple of 64", n)
	}
}

func TestUnitLatency(t *testing.T) {
	if (Unit{}).Draw(0, 1) != 1 {
		t.Error("unit latency wrong")
	}
}

func TestAdversarialLatencyRangeAndDeterminism(t *testing.T) {
	a := NewAdversarial(5, 10)
	b := NewAdversarial(5, 10)
	for i := 0; i < 1000; i++ {
		x := a.Draw(0, 1)
		if x < 1 || x > 10 {
			t.Fatalf("draw %d out of range", x)
		}
		if x != b.Draw(0, 1) {
			t.Fatal("same seed diverged")
		}
	}
}

// TestEnvAdversaryReseeds: the environment's adversary draws exactly
// the sequence of NewAdversarial with the same seed and bound, on its
// first run and after a reseed that follows draws of another seed, and
// a Reset reinstalls the options' latency.
func TestEnvAdversaryReseeds(t *testing.T) {
	e := NewEnv(2, Options{})
	for _, c := range []struct{ seed, max int64 }{{5, 10}, {9, 3}, {5, 10}} {
		e.Reset(Options{})
		e.Adversary(c.seed, c.max)
		want := NewAdversarial(c.seed, c.max)
		for i := 0; i < 1000; i++ {
			if got, w := e.MoveLatency(0, 0, 1, RoleCleaner), want.Draw(0, 1); got != w {
				t.Fatalf("seed %d bound %d draw %d: %d, NewAdversarial drew %d", c.seed, c.max, i, got, w)
			}
		}
	}
	e.Reset(Options{})
	for i := 0; i < 10; i++ {
		if got := e.MoveLatency(0, 0, 1, RoleCleaner); got != 1 {
			t.Fatalf("after Reset the latency drew %d, want unit latency", got)
		}
	}
}

func TestAdversarialRejectsBadMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("max < 1 accepted")
		}
	}()
	NewAdversarial(1, 0)
}

func TestEnvPlaceMoveWalk(t *testing.T) {
	e := NewEnv(3, Options{Record: true, Contiguity: CheckEveryMove})
	a := e.Place(RoleCleaner)
	var landed []int
	e.Walk(a, 7, func(agent, dst int) { landed = append(landed, agent, dst, int(e.Sim.Now())) })
	e.Sim.Run()
	if got, _ := e.B.Position(a); got != 7 {
		t.Errorf("agent at %d", got)
	}
	if len(landed) != 3 || landed[0] != a || landed[1] != 7 || landed[2] != 3 {
		t.Errorf("arrival callback saw %v, want [agent 7 3]", landed)
	}
	if e.Log().Len() != 4 { // 1 place + 3 moves
		t.Errorf("log len = %d", e.Log().Len())
	}
	if e.B.Now() != 3 {
		t.Errorf("makespan = %d", e.B.Now())
	}
	// The walk follows the canonical shortest path.
	path := e.H.ShortestPath(0, 7)
	for i, ev := range e.Log().Events()[1:] {
		if ev.From != path[i] || ev.To != path[i+1] {
			t.Fatalf("hop %d went %d->%d, want %d->%d", i, ev.From, ev.To, path[i], path[i+1])
		}
	}
	if r := e.Result("walk"); r.AgentMoves != 3 || r.SyncMoves != 0 {
		t.Errorf("role split = %d agent + %d sync moves, want 3 + 0", r.AgentMoves, r.SyncMoves)
	}
}

// TestEnvWalkValidatesStart: a walk must start from the agent's node on
// the board; an agent that was retired cannot walk.
func TestEnvWalkValidatesStart(t *testing.T) {
	e := NewEnv(2, Options{})
	a := e.Place(RoleCleaner)
	e.Terminate(a)
	defer func() {
		if recover() == nil {
			t.Error("walk of a retired agent accepted")
		}
	}()
	e.Walk(a, 3, nil)
}

// escort is the synchronizer carrying a cleaner across one edge: one
// latency draw, then both moves applied at the same instant.
type escort struct {
	des.Inline
	e       *Env
	sync, a int
	to      int
	started bool
}

func (x *escort) step(s *des.Simulator) {
	if !x.started {
		x.started = true
		from, _ := x.e.B.Position(x.sync)
		s.AfterInline(x.e.MoveLatency(x.sync, from, x.to, RoleSynchronizer), &x.Inline)
		return
	}
	x.e.ApplyMove(x.sync, x.to, RoleSynchronizer)
	x.e.ApplyMove(x.a, x.to, RoleCleaner)
}

func TestMoveTogetherSimultaneous(t *testing.T) {
	e := NewEnv(2, Options{Record: true})
	a := e.Place(RoleSynchronizer)
	b := e.Place(RoleCleaner)
	x := &escort{e: e, sync: a, a: b, to: 1}
	x.Step = x.step
	e.Sim.SpawnInline(&x.Inline)
	e.Sim.Run()
	events := e.Log().Events()
	last := events[len(events)-1]
	prev := events[len(events)-2]
	if last.Time != prev.Time {
		t.Error("escorted moves not simultaneous")
	}
	if r := e.Result("escort"); r.SyncMoves != 1 || r.AgentMoves != 1 {
		t.Errorf("role split = %d agent + %d sync moves, want 1 + 1", r.AgentMoves, r.SyncMoves)
	}
}

func TestResultAssembly(t *testing.T) {
	e := NewEnv(1, Options{Record: true})
	a := e.Place(RoleCleaner)
	e.Walk(a, 1, nil)
	e.Sim.Run()
	e.Terminate(a)
	r := e.Result("test")
	if !r.Captured || !r.MonotoneOK || !r.ContiguousOK {
		t.Errorf("result = %+v", r)
	}
	if r.TeamSize != 1 || r.TotalMoves != 1 || r.Makespan != 1 || r.Dim != 1 || r.Nodes != 2 {
		t.Errorf("result = %+v", r)
	}
	if r.SyncMoves != 0 || r.AgentMoves != 1 {
		t.Errorf("role split = %+v", r)
	}
}

func TestContiguityViolationDetected(t *testing.T) {
	// Two agents on H_3: one stays home, the other walks 0->1->3. When
	// it leaves node 1, node 1 floods (neighbour 5 is contaminated),
	// leaving the decontaminated set {0 guarded, 3 guarded}, and 0-3 is
	// not an edge: the every-move contiguity check must trip.
	e := NewEnv(3, Options{Contiguity: CheckEveryMove})
	e.Place(RoleCleaner) // rear guard stays home
	a := e.Place(RoleCleaner)
	e.Walk(a, 3, nil)
	e.Sim.Run()
	r := e.Result("bad")
	if r.ContiguousOK {
		t.Error("disconnected clean set not detected")
	}
	if r.Captured {
		t.Error("this walk cannot capture")
	}
}

// TestWalkersArePooled: walks started after earlier ones finished
// reuse their actors, so a steady stream of walks allocates nothing.
func TestWalkersArePooled(t *testing.T) {
	e := NewEnv(4, Options{})
	a := e.Place(RoleCleaner)
	dst := 15
	arrived := func(agent, at int) {
		if at == 15 {
			dst = 0
		} else {
			dst = 15
		}
	}
	walk := func() {
		e.Walk(a, dst, arrived)
		e.Sim.Run()
	}
	walk() // warm the walker pool and the event heap
	if allocs := testing.AllocsPerRun(50, walk); allocs != 0 {
		t.Errorf("a pooled walk allocates %.1f, want 0", allocs)
	}
}

// A Record:false -> true flip must hand back the trace retired by the
// last recorded run, pre-sized, instead of regrowing a fresh log
// (ROADMAP: trace-capacity reuse across option flips).
func TestResetReusesTraceCapacityAcrossRecordFlips(t *testing.T) {
	env := NewEnv(3, Options{Record: true})
	for i := 0; i < 512; i++ {
		env.Log().Append(trace.Event{Kind: trace.Move, Agent: 1, From: 0, To: 1})
	}
	warmed := env.Log().Cap()
	if warmed < 512 {
		t.Fatalf("log capacity %d after 512 appends", warmed)
	}

	env.Reset(Options{Record: false})
	if env.Log() != nil {
		t.Fatal("Record:false must expose no log")
	}

	env.Reset(Options{Record: true})
	if env.Log() == nil {
		t.Fatal("Record:true must expose a log again")
	}
	if got := env.Log().Cap(); got < warmed {
		t.Errorf("flip regrew the trace: capacity %d, want the warmed %d", got, warmed)
	}
	if env.Log().Len() != 0 {
		t.Errorf("reused log must start empty, has %d events", env.Log().Len())
	}

	// A straight Record:true -> Record:true reset also keeps capacity.
	env.Reset(Options{Record: true})
	if got := env.Log().Cap(); got < warmed {
		t.Errorf("plain reset regrew the trace: capacity %d, want %d", got, warmed)
	}
}

// TestStacks: a node's stack hands out its last-pushed agent first and
// reports -1 when empty; Env.Stacks empties every node and grows the
// agent links when a run needs more agent ids.
func TestStacks(t *testing.T) {
	e := NewEnv(2, Options{})
	s := e.Stacks(3)
	s.Push(1, 0)
	s.Push(1, 2)
	s.Push(3, 1)
	if s.Count(1) != 2 || s.Count(3) != 1 || s.Count(0) != 0 {
		t.Errorf("counts %d, %d, %d, want 2, 1, 0", s.Count(1), s.Count(3), s.Count(0))
	}
	if s.Top(1) != 2 || s.Next(2) != 0 || s.Next(0) != -1 || s.Top(0) != -1 {
		t.Errorf("chain of node 1 reads %d -> %d -> %d, want 2 -> 0 -> -1", s.Top(1), s.Next(2), s.Next(0))
	}
	if a, b, c := s.Pop(1), s.Pop(1), s.Pop(1); a != 2 || b != 0 || c != -1 {
		t.Errorf("pops of node 1 gave %d, %d, %d, want 2, 0, -1", a, b, c)
	}
	s = e.Stacks(5)
	if s.Top(3) != -1 {
		t.Errorf("Stacks left agent %d on node 3", s.Top(3))
	}
	s.Push(2, 4)
	if s.Pop(2) != 4 || s.Top(2) != -1 {
		t.Error("grown stacks lost agent 4")
	}
}
