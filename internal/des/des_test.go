package des

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(5, func() { order = append(order, 5) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(3, func() { order = append(order, 3) })
	end := s.Run()
	if end != 5 {
		t.Errorf("end time = %d", end)
	}
	want := []int{1, 3, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(7, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	s := New()
	var sawn int64
	s.Schedule(10, func() {
		s.After(5, func() { sawn = s.Now() })
	})
	s.Run()
	if sawn != 15 {
		t.Errorf("nested After fired at %d", sawn)
	}
}

// TestPastSchedulingPanics: Schedule panics on a time in the past
// before it takes a callback header, so the recovered panic leaves the
// one header the run used idle and holding nothing.
func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		s.Schedule(5, func() {})
	})
	s.Run()
	if n := idleCallbacks(t, s); n != 1 {
		t.Errorf("%d idle callback header(s) after the run, want 1", n)
	}
}

// idleCallbacks counts s's idle callback headers, failing t if one
// still holds a callback.
func idleCallbacks(t *testing.T, s *Simulator) int {
	t.Helper()
	n := 0
	for c := s.idle; c != nil; c = c.next {
		if c.fn != nil {
			t.Error("an idle callback header holds a callback")
		}
		n++
	}
	return n
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	s.After(-1, func() {})
}

// TestDelayOverflowPanics: a delay or deferral carrying the clock past
// math.MaxInt64 panics naming the overflow, rather than wrapping into
// a time in the past.
func TestDelayOverflowPanics(t *testing.T) {
	for name, run := range map[string]func(s *Simulator){
		"After": func(s *Simulator) {
			s.Schedule(math.MaxInt64, func() { s.After(1, func() {}) })
			s.Run()
		},
		"AfterInline": func(s *Simulator) {
			s.Schedule(math.MaxInt64, func() { s.AfterInline(1, &Inline{Step: func(*Simulator) {}}) })
			s.Run()
		},
		"deferral": func(s *Simulator) {
			s.Intercept(func(at, _ int64) int64 { return 5 })
			s.Schedule(math.MaxInt64-1, func() {})
			s.Run()
		},
	} {
		var got any
		func() {
			defer func() { got = recover() }()
			run(New())
		}()
		if msg, _ := got.(string); !strings.Contains(msg, "overflows the clock") {
			t.Errorf("%s: panic %v, want one naming the clock overflow", name, got)
		}
	}
}

func TestProcessDelay(t *testing.T) {
	s := New()
	var marks []int64
	s.Spawn("walker", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Delay(4)
			marks = append(marks, p.Now())
		}
	})
	end := s.Run()
	if end != 12 || len(marks) != 3 || marks[0] != 4 || marks[2] != 12 {
		t.Errorf("marks = %v end = %d", marks, end)
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		s.Spawn("a", func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Delay(2)
				log = append(log, "a")
			}
		})
		s.Spawn("b", func(p *Process) {
			for i := 0; i < 2; i++ {
				p.Delay(3)
				log = append(log, "b")
			}
		})
		s.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// a fires at 2,4,6; b at 3,6; at t=6 a was scheduled... both at 6:
	// a's third delay scheduled at t=4, b's second at t=3, so b first.
	want := []string{"a", "b", "a", "b", "a"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
}

// condWaiter is the inline form of a condition wait: its step checks
// cond and parks on sig while it fails, then runs done once.
type condWaiter struct {
	Inline
	sig  *Signal
	cond func() bool
	done func(s *Simulator)
}

func awaitCond(sig *Signal, cond func() bool, done func(s *Simulator)) *condWaiter {
	w := &condWaiter{sig: sig, cond: cond, done: done}
	w.Step = w.step
	return w
}

func (w *condWaiter) step(s *Simulator) {
	if !w.cond() {
		s.Park(w.sig, &w.Inline)
		return
	}
	w.done(s)
}

func TestSignalAwaitFire(t *testing.T) {
	s := New()
	var sig Signal
	var got int64 = -1
	parked := false
	s.SpawnInline(&awaitCond(&sig, func() bool {
		first := !parked
		parked = true
		return !first // park on the first step, finish when fired
	}, func(s *Simulator) { got = s.Now() }).Inline)
	s.Schedule(9, func() { s.Fire(&sig) })
	s.Run()
	if got != 9 {
		t.Errorf("waiter woke at %d", got)
	}
}

// ticker fires sig every stride units, bumping *counter first, until
// it has fired n times.
type ticker struct {
	Inline
	sig     *Signal
	counter *int
	n       int
	stride  int64
	started bool
}

func newTicker(sig *Signal, counter *int, n int, stride int64) *ticker {
	tk := &ticker{sig: sig, counter: counter, n: n, stride: stride}
	tk.Step = tk.step
	return tk
}

func (tk *ticker) step(s *Simulator) {
	if tk.started {
		*tk.counter++
		s.Fire(tk.sig)
		tk.n--
	}
	tk.started = true
	if tk.n > 0 {
		s.AfterInline(tk.stride, &tk.Inline)
	}
}

func TestAwaitCond(t *testing.T) {
	s := New()
	var sig Signal
	counter := 0
	var done int64 = -1
	s.SpawnInline(&awaitCond(&sig, func() bool { return counter >= 3 },
		func(s *Simulator) { done = s.Now() }).Inline)
	s.SpawnInline(&newTicker(&sig, &counter, 3, 5).Inline)
	s.Run()
	if done != 15 {
		t.Errorf("consumer finished at %d", done)
	}
}

func TestAwaitCondImmediate(t *testing.T) {
	s := New()
	var sig Signal
	ran := false
	s.SpawnInline(&awaitCond(&sig, func() bool { return true }, func(*Simulator) { ran = true }).Inline)
	s.Run()
	if !ran {
		t.Error("immediate condition did not pass through")
	}
	if len(sig.waiters) != 0 {
		t.Error("a satisfied condition must not park")
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	var sig Signal
	s.SpawnInline(&awaitCond(&sig, func() bool { return false }, nil).Inline) // nobody fires
	defer func() {
		if recover() == nil {
			t.Error("deadlock not detected")
		}
	}()
	s.Run()
}

// barrierWorker arrives after a staggered delay, then waits for
// everyone at the barrier.
type barrierWorker struct {
	Inline
	i       int
	arrived bool
	b       *barrier
}

type barrier struct {
	n, count, finished int
	arrive, release    Signal
}

func (w *barrierWorker) step(s *Simulator) {
	b := w.b
	if !w.arrived {
		if d := int64(w.i % 7); s.Now() < d {
			s.AfterInline(d, &w.Inline) // staggered arrivals
			return
		}
		w.arrived = true
		b.count++
		s.Fire(&b.arrive)
	}
	if b.count != b.n {
		s.Park(&b.release, &w.Inline)
		return
	}
	b.finished++
}

func TestManyProcessesBarrier(t *testing.T) {
	// N workers wait on a barrier signal; a releaser fires it once all
	// have arrived (counted), modelling the whiteboard-complement wait
	// of the visibility strategy.
	const n = 100
	s := New()
	b := &barrier{n: n}
	for i := 0; i < n; i++ {
		w := &barrierWorker{i: i, b: b}
		w.Step = w.step
		s.SpawnInline(&w.Inline)
	}
	s.SpawnInline(&awaitCond(&b.arrive, func() bool { return b.count == n },
		func(s *Simulator) { s.Fire(&b.release) }).Inline)
	s.Run()
	if b.finished != n {
		t.Errorf("finished = %d, want %d", b.finished, n)
	}
}

func TestProcessName(t *testing.T) {
	s := New()
	s.Spawn("alice", func(p *Process) {
		if p.Name() != "alice" {
			t.Errorf("name = %q", p.Name())
		}
	})
	s.Run()
}

func TestNegativeProcessDelayPanics(t *testing.T) {
	s := New()
	s.Spawn("bad", func(p *Process) {
		defer func() {
			if recover() == nil {
				t.Error("negative Delay did not panic")
			}
			// Swallow so the goroutine exits cleanly.
		}()
		p.Delay(-2)
	})
	s.Run()
}

// TestProcessPanicReachesRun: a panic in a process program is re-raised
// on the dispatch loop, where Run's caller can recover it.
func TestProcessPanicReachesRun(t *testing.T) {
	s := New()
	s.Spawn("boom", func(p *Process) {
		p.Delay(2)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the process panic", r)
		}
	}()
	s.Run()
}

// TestRunRetiresWorkersByDefault: a process goroutine exits with its
// program, so a drained Run leaves no goroutines behind.
func TestRunRetiresWorkersByDefault(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		s := New()
		for j := 0; j < 32; j++ {
			s.Spawn("w", func(p *Process) { p.Delay(1) })
		}
		s.Run()
	}
	runtime.GC() // give exited goroutines a chance to be reaped
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew %d -> %d; process goroutines outlived Run", before, after)
	}
}

// TestResetReplaysIdentically: a Reset simulator reruns the same
// program with the same timing and ordering as a fresh one.
func TestResetReplaysIdentically(t *testing.T) {
	program := func(s *Simulator) []int64 {
		var times []int64
		var sig Signal
		fired := false
		s.Schedule(3, func() {
			times = append(times, s.Now())
			fired = true
			s.Fire(&sig)
		})
		s.SpawnInline(&awaitCond(&sig, func() bool { return fired }, func(s *Simulator) {
			s.After(2, func() { times = append(times, s.Now()) })
		}).Inline)
		s.Run()
		return times
	}
	fresh := New()
	want := program(fresh)

	s := New()
	program(s)
	s.Reset()
	if s.Now() != 0 {
		t.Fatalf("Now after Reset = %d, want 0", s.Now())
	}
	got := program(s)
	if len(got) != len(want) || len(want) != 2 {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay times %v, want %v", got, want)
		}
	}
}

// TestResetPanicsWithParkedProcesses: a simulator abandoned with an
// actor still parked on a signal cannot be reused.
func TestResetPanicsWithParkedProcesses(t *testing.T) {
	s := New()
	var sig Signal
	s.SpawnInline(&awaitCond(&sig, func() bool { return false }, nil).Inline)
	func() {
		defer func() { recover() }() // swallow the deadlock panic
		s.Run()
	}()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a parked actor should panic")
		}
	}()
	s.Reset()
}
