// Package des is a deterministic discrete-event simulation kernel for
// asynchronous agent systems. Virtual time is an int64; events at equal
// times fire in scheduling order, so runs are fully reproducible.
//
// Two programming styles share one event queue:
//
//   - Plain events: Schedule/After run a callback at a virtual time.
//   - Inline actors: SpawnInline (and ScheduleInline/AfterInline) run
//     an actor's step function inside the event dispatch itself — no
//     goroutine, no channel hand-off, no per-event closure allocation.
//     Actors embed an Inline header and point its Step at themselves
//     once, at construction. An actor cannot block; it advances by
//     rescheduling itself (or other actors) for a later step, or by
//     parking on a Signal until another event fires it. A sequential
//     agent program becomes an actor whose fields are its program
//     counter: every blocking point of the sequential code is one event
//     at the same (time, sequence) position.
//
// Run is a single dispatch loop on the caller's goroutine, so a panic
// in any step or callback unwinds to Run's caller, where it can be
// recovered. Process (Spawn/Delay) survives only as a goroutine-backed
// compatibility shim: an inline actor whose step resumes the process
// goroutine and waits for it to delay or return.
//
// The kernel is not safe for concurrent external use; all interaction
// must happen from event callbacks, actor steps, or process programs.
package des

import (
	"fmt"
)

// Simulator is a discrete-event simulator. Construct with New.
type Simulator struct {
	now    int64
	seq    int64
	queue  eventHeap
	parked int // inline actors parked on signals
	icept  Interceptor
}

// Interceptor inspects every event as it reaches the head of the queue
// and may defer it by returning a positive delay; the event is pushed
// back at its time plus that delay (with a fresh sequence number, so
// deferred events fire after same-time events that were not deferred).
// Fault-injection harnesses use this to impose latency windows on the
// whole kernel without the strategies' cooperation. An interceptor
// must eventually stop deferring an event or Run never terminates.
type Interceptor func(at, seq int64) (delay int64)

// event is one pending dispatch. Exactly one of fn and inl is set:
// plain events carry a callback, actor steps the actor's Inline
// header. Keeping a pointer in the event rather than a closure removes
// one heap allocation from every actor step — the kernel's hottest
// path.
//
// The struct must stay at 32 bytes (at, seq, and two payload words):
// anything wider makes every event copy in the heap a memory
// operation and was measured as a 3x regression on the des-throughput
// family.
type event struct {
	at  int64
	seq int64
	fn  func()
	inl *Inline
}

// Inline is the header of an inline actor: a simulation actor whose
// Step runs directly inside the event dispatch. Embed an Inline in the
// actor struct and set Step once at construction (typically to a
// method value of the enclosing actor); then schedule &actor.Inline
// via SpawnInline/ScheduleInline/AfterInline, or park it with Park.
//
// Step may inspect s.Now, schedule events, fire signals, park, and
// reschedule its own or other headers; it must not block. Actors are
// typically small pooled structs carrying their payload, so the
// method-value closure is allocated once per actor and a step costs
// zero allocations.
type Inline struct {
	// Step runs one step of the actor. Set once at construction; the
	// kernel calls it with the header's events' times as s.Now().
	Step func(s *Simulator)
}

// eventHeap is a concrete 4-ary min-heap ordered by (at, seq). The
// wide fan-out halves tree depth versus a binary heap (fewer compares
// per pop on the mostly-sorted queues simulations produce), and the
// typed slice means push/pop move events without `interface{}` boxing:
// zero allocations per event once capacity is warm. Pops shrink the
// slice in place, so a deferred event's re-push reuses the freed slot
// rather than growing a fresh backing array.
type eventHeap struct {
	ev []event
}

// before is the dispatch order: time, then scheduling sequence.
func (h *eventHeap) before(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.ev) }

// push appends e and sifts it up toward the root.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.before(h.ev[i], h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // release fn/inl for the GC
	h.ev = h.ev[:n]
	if n > 1 {
		h.siftDown()
	}
	return top
}

// siftDown restores the heap property from the root.
func (h *eventHeap) siftDown() {
	n := len(h.ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.before(h.ev[c], h.ev[min]) {
				min = c
			}
		}
		if !h.before(h.ev[min], h.ev[i]) {
			return
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
}

// New returns an empty simulator at time 0.
func New() *Simulator { return &Simulator{} }

// Reset returns a drained simulator to time zero so it can run a fresh
// simulation while keeping the event heap's warmed backing array. It
// panics if actors are still parked on signals — a simulator abandoned
// mid-run cannot be safely reused.
func (s *Simulator) Reset() {
	if s.parked > 0 {
		panic(fmt.Sprintf("des: reset with %d actor(s) still parked on signals", s.parked))
	}
	for i := range s.queue.ev {
		s.queue.ev[i] = event{}
	}
	s.queue.ev = s.queue.ev[:0]
	s.now, s.seq = 0, 0
	s.icept = nil
}

// Intercept installs (or, with nil, removes) the kernel interceptor.
func (s *Simulator) Intercept(i Interceptor) { s.icept = i }

// Now returns the current virtual time.
func (s *Simulator) Now() int64 { return s.now }

// Schedule runs fn at virtual time at, which must not be in the past.
func (s *Simulator) Schedule(at int64, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling into the past (%d < %d)", at, s.now))
	}
	s.queue.push(event{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// After runs fn delay time units from now; delay must be non-negative.
func (s *Simulator) After(delay int64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	s.Schedule(s.now+delay, fn)
}

// SpawnInline schedules actor p to step at the current time: the step
// is appended to the queue with the next sequence number, so it fires
// after every already-pending same-time event. It allocates nothing.
func (s *Simulator) SpawnInline(p *Inline) { s.ScheduleInline(s.now, p) }

// ScheduleInline schedules p.Step to run at virtual time at, which
// must not be in the past. It allocates nothing: the event carries the
// header pointer itself, no closure.
func (s *Simulator) ScheduleInline(at int64, p *Inline) {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling into the past (%d < %d)", at, s.now))
	}
	s.queue.push(event{at: at, seq: s.seq, inl: p})
	s.seq++
}

// AfterInline schedules p.Step to run delay time units from now; delay
// must be non-negative.
func (s *Simulator) AfterInline(delay int64, p *Inline) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	s.ScheduleInline(s.now+delay, p)
}

// Run dispatches events in (time, sequence) order on the caller's
// goroutine until the queue is empty, then returns the final time. It
// panics if actors remain parked on signals with no pending event to
// fire them: a deadlocked simulation.
func (s *Simulator) Run() int64 {
	for s.queue.len() > 0 {
		e := s.queue.pop()
		if s.icept != nil {
			if d := s.icept(e.at, e.seq); d > 0 {
				// Re-push into the slot pop just freed: deferrals reuse
				// heap capacity instead of growing the backing array.
				s.queue.push(event{at: e.at + d, seq: s.seq, fn: e.fn, inl: e.inl})
				s.seq++
				continue
			}
		}
		s.now = e.at
		if e.inl != nil {
			e.inl.Step(s)
			continue
		}
		e.fn()
	}
	if s.parked > 0 {
		panic(fmt.Sprintf("des: deadlock — %d actor(s) parked on signals with no pending events", s.parked))
	}
	return s.now
}

// Signal is a broadcast condition: actors Park on it, and Fire
// schedules every parked actor at the current virtual time. The zero
// value is ready to use. A simulator with no parked actor — one that
// drained or passed Reset — has every signal empty.
type Signal struct {
	waiters []*Inline
}

// Park suspends actor p until sig next fires; Fire then schedules its
// step. An actor waiting for a condition re-checks it in that step and
// parks again while it does not hold.
func (s *Simulator) Park(sig *Signal, p *Inline) {
	sig.waiters = append(sig.waiters, p)
	s.parked++
}

// Fire schedules every actor parked on sig at the current time, in
// parking order, and empties the waiter list. Scheduling runs no actor
// code, so nothing parks mid-loop and steady-state Park/Fire cycles
// reuse the list's backing array.
func (s *Simulator) Fire(sig *Signal) {
	for i, p := range sig.waiters {
		s.ScheduleInline(s.now, p)
		sig.waiters[i] = nil
	}
	s.parked -= len(sig.waiters)
	sig.waiters = sig.waiters[:0]
}

// Process is a sequential program on its own goroutine that sleeps in
// virtual time with Delay: an inline actor whose step resumes the
// goroutine and waits until the program delays again or returns. One
// goroutine runs at a time and dispatch stays on Run's loop, where a
// panic in the program is re-raised. Each event costs two goroutine
// switches, which is why no strategy uses it. A process whose
// simulation is abandoned before the program returns keeps its
// goroutine parked.
type Process struct {
	Inline
	sim      *Simulator
	name     string
	resume   chan struct{}
	yield    chan struct{}
	panicked any
}

// Spawn starts fn as a simulation process at the current time.
func (s *Simulator) Spawn(name string, fn func(p *Process)) {
	p := &Process{sim: s, name: name, resume: make(chan struct{}), yield: make(chan struct{})}
	p.Step = func(*Simulator) {
		p.resume <- struct{}{}
		<-p.yield
		if p.panicked != nil {
			panic(p.panicked)
		}
	}
	go func() {
		defer func() {
			p.panicked = recover()
			p.yield <- struct{}{}
		}()
		<-p.resume
		fn(p)
	}()
	s.SpawnInline(&p.Inline)
}

// Name returns the process name (for diagnostics).
func (p *Process) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Process) Now() int64 { return p.sim.Now() }

// Delay suspends the process for d time units (d >= 0).
func (p *Process) Delay(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("des: process %s: negative delay %d", p.name, d))
	}
	p.sim.AfterInline(d, &p.Inline)
	p.yield <- struct{}{}
	<-p.resume
}
