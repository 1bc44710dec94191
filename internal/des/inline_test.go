package des

import (
	"slices"
	"testing"
	"unsafe"
)

// recorder is a minimal inline process: each step appends its tag to a
// shared journal and optionally reschedules itself.
type recorder struct {
	Inline
	journal *[]string
	tag     string
	hops    int   // remaining self-reschedules
	stride  int64 // delay between self-reschedules
}

// rec builds a recorder and wires its header, the construction pattern
// every inline actor follows.
func rec(journal *[]string, tag string, hops int, stride int64) *recorder {
	r := &recorder{journal: journal, tag: tag, hops: hops, stride: stride}
	r.Step = r.step
	return r
}

func (r *recorder) step(s *Simulator) {
	*r.journal = append(*r.journal, r.tag)
	if r.hops > 0 {
		r.hops--
		s.AfterInline(r.stride, &r.Inline)
	}
}

// TestInlineOrderingWithCallbacksAndProcesses: inline steps share the
// queue's (time, sequence) order with plain callbacks and goroutine
// processes — the determinism contract that lets the three styles
// compose.
func TestInlineOrderingWithCallbacksAndProcesses(t *testing.T) {
	s := New()
	var journal []string
	log := func(tag string) func() { return func() { journal = append(journal, tag) } }

	s.Schedule(1, log("cb@1"))
	s.ScheduleInline(1, &rec(&journal, "inl@1", 0, 0).Inline)
	s.Spawn("p", func(p *Process) {
		p.Delay(1)
		journal = append(journal, "proc@1")
		p.Delay(1)
		journal = append(journal, "proc@2")
	})
	s.ScheduleInline(2, &rec(&journal, "inl@2", 0, 0).Inline)
	s.Schedule(2, log("cb@2"))

	if got := s.Run(); got != 2 {
		t.Fatalf("final time %d, want 2", got)
	}
	want := []string{"cb@1", "inl@1", "proc@1", "inl@2", "cb@2", "proc@2"}
	if len(journal) != len(want) {
		t.Fatalf("journal %v, want %v", journal, want)
	}
	for i := range want {
		if journal[i] != want[i] {
			t.Fatalf("journal %v, want %v", journal, want)
		}
	}
}

// TestSpawnInlineRunsAfterPendingSameTimeEvents: SpawnInline appends
// with the next sequence number, exactly where Spawn would start a
// goroutine process.
func TestSpawnInlineRunsAfterPendingSameTimeEvents(t *testing.T) {
	s := New()
	var journal []string
	s.Schedule(0, func() {
		journal = append(journal, "first")
		s.SpawnInline(&rec(&journal, "spawned", 0, 0).Inline)
		s.Schedule(0, func() { journal = append(journal, "second") })
	})
	s.Schedule(0, func() { journal = append(journal, "pending") })
	s.Run()
	want := []string{"first", "pending", "spawned", "second"}
	for i := range want {
		if i >= len(journal) || journal[i] != want[i] {
			t.Fatalf("journal %v, want %v", journal, want)
		}
	}
}

// TestInlineSelfReschedule: an inline actor advances by rescheduling
// itself — the waiting pattern that replaces Delay.
func TestInlineSelfReschedule(t *testing.T) {
	s := New()
	var journal []string
	s.ScheduleInline(0, &rec(&journal, "tick", 5, 3).Inline)
	if got := s.Run(); got != 15 {
		t.Fatalf("final time %d, want 15", got)
	}
	if len(journal) != 6 {
		t.Fatalf("%d steps, want 6", len(journal))
	}
}

// TestInterceptorDefersInlineSteps: kernel-lag interceptors see inline
// steps like any other event and deferrals keep their relative order.
func TestInterceptorDefersInlineSteps(t *testing.T) {
	s := New()
	var journal []string
	s.Intercept(func(at, seq int64) int64 {
		if at < 10 {
			return 10 - at
		}
		return 0
	})
	s.ScheduleInline(2, &rec(&journal, "a", 0, 0).Inline)
	s.ScheduleInline(2, &rec(&journal, "b", 0, 0).Inline)
	s.Schedule(3, func() { journal = append(journal, "cb") })
	if got := s.Run(); got != 10 {
		t.Fatalf("final time %d, want 10", got)
	}
	want := []string{"a", "b", "cb"}
	for i := range want {
		if i >= len(journal) || journal[i] != want[i] {
			t.Fatalf("journal %v, want %v", journal, want)
		}
	}
}

// TestInlineZeroAllocs: scheduling and dispatching inline steps
// allocates nothing once the queue is warm — the event carries the
// header pointer, no closure.
func TestInlineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	s := New()
	var journal []string
	r := rec(&journal, "t", 1024, 1)
	s.ScheduleInline(0, &r.Inline)
	s.Run() // warm the queue and the journal's backing array
	allocs := testing.AllocsPerRun(100, func() {
		journal = journal[:0]
		r.hops = 64
		s.ScheduleInline(s.Now(), &r.Inline)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("inline stepping allocates %.1f per batch, want 0", allocs)
	}
}

// TestInlinePastSchedulingPanics mirrors the Schedule contract.
func TestInlinePastSchedulingPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling an inline step into the past did not panic")
			}
		}()
		s.ScheduleInline(1, &rec(&[]string{}, "past", 0, 0).Inline)
	})
	s.Run()
}

// TestEventSize: an event is 32 bytes (at, seq, header, payload), the
// width the event comment requires.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Errorf("event is %d bytes, want 32", n)
	}
}

// TestArgThroughEveryQueuePath: each event's step reads its own
// payload as Arg whichever way the event went through the queue —
// straight through the ring, into the overflow heap and back by
// migration or by the empty ring's jump, deferred by the interceptor
// inside the ring's window or past it — and a Reset drops pending
// events and callbacks, so none of them fires in the next run.
func TestArgThroughEveryQueuePath(t *testing.T) {
	type fired struct {
		at  int64
		arg uint64
	}
	var log []fired
	var h Inline
	h.Step = func(s *Simulator) { log = append(log, fired{s.Now(), s.Arg()}) }
	check := func(name string, want []fired) {
		t.Helper()
		if !slices.Equal(log, want) {
			t.Errorf("%s: fired %v, want %v", name, log, want)
		}
		log = log[:0]
	}
	s := New()

	// Delays up to 63 stay in the ring; 64 and more go to the overflow
	// heap and migrate as the clock advances, and 1<<16 waits there
	// until the empty ring jumps to it.
	for i, d := range []int64{1 << 16, 200, 65, 64, 63, 1, 0} {
		s.AfterWith(d, &h, uint64(100+i))
	}
	s.Run()
	check("ring and overflow", []fired{{0, 106}, {1, 105}, {63, 104}, {64, 103}, {65, 102}, {200, 101}, {1 << 16, 100}})

	// [10, 20) defers to 20, inside the window, after the event due at
	// 20 itself; 30 defers by 100, past it.
	s.Reset()
	s.Intercept(func(at, _ int64) int64 {
		switch {
		case at >= 10 && at < 20:
			return 20 - at
		case at == 30:
			return 100
		}
		return 0
	})
	for i, d := range []int64{30, 12, 20, 5} {
		s.AfterWith(d, &h, uint64(200+i))
	}
	s.Run()
	check("deferral", []fired{{5, 203}, {20, 202}, {20, 201}, {130, 200}})

	// A run abandoned at t=1 leaves events in the ring and the overflow
	// heap and a callback pending; after the Reset only the new run's
	// events and callback fire.
	s.Reset()
	var abort Inline
	abort.Step = func(*Simulator) { panic(abortRun{}) }
	s.AfterWith(1, &abort, 0)
	s.AfterWith(2, &h, 300)
	s.AfterWith(100, &h, 301)
	s.After(3, func() { t.Error("a callback pending at Reset ran after it") })
	func() {
		defer func() {
			if _, ok := recover().(abortRun); !ok {
				t.Fatal("the run was not abandoned")
			}
		}()
		s.Run()
	}()
	s.Reset()
	ran := false
	s.After(3, func() { ran = true })
	s.AfterWith(100, &h, 400)
	s.AfterWith(2, &h, 401)
	s.Run()
	check("after Reset", []fired{{2, 401}, {100, 400}})
	if !ran {
		t.Error("a callback scheduled after Reset did not run")
	}
	idleCallbacks(t, s)
}
