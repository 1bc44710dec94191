// Package des is a deterministic discrete-event simulation kernel for
// asynchronous agent systems. Virtual time is an int64; events at equal
// times fire in scheduling order, so runs are fully reproducible.
//
// Every event is one kind: an actor's Inline header and a payload
// word. Run sets the clock and the current payload (Arg), then calls
// the header's Step inside the dispatch itself — no goroutine, no
// channel hand-off, no per-event closure allocation:
//
//   - Actors embed an Inline header and point its Step at themselves
//     once, at construction, then schedule it with SpawnInline,
//     ScheduleInline or AfterInline (payload 0). An actor cannot
//     block; it advances by rescheduling itself (or other actors) for
//     a later step, or by parking on a Signal until another event
//     fires it. A sequential agent program becomes an actor whose
//     fields are its program counter: every blocking point of the
//     sequential code is one event at the same (time, sequence)
//     position.
//   - A record-like actor needs no object at all: one shared header
//     per kind, scheduled with AfterWith, whose Step decodes the
//     record from Arg.
//   - Schedule/After run a callback at a virtual time. Each pending
//     callback rides on a pooled header that holds it; a header whose
//     callback has fired is reused, so callbacks allocate nothing once
//     warm.
//
// Run is a single dispatch loop on the caller's goroutine, so a panic
// in any step or callback unwinds to Run's caller, where it can be
// recovered. Its queue is a calendar ring: one FIFO per virtual time
// for the 64 times from the earliest pending event on, and a 4-ary
// heap for events due further ahead. Process (Spawn/Delay) survives
// only as a goroutine-backed compatibility shim: an inline actor whose
// step resumes the process goroutine and waits for it to delay or
// return.
//
// The kernel is not safe for concurrent external use; all interaction
// must happen from event callbacks, actor steps, or process programs.
package des

import (
	"fmt"
	"math"
	"math/bits"
)

// Simulator is a discrete-event simulator. Construct with New.
type Simulator struct {
	now    int64
	seq    int64
	arg    uint64 // the payload of the event being dispatched
	queue  calendar
	parked int // inline actors parked on signals
	icept  Interceptor
	idle   *callback // Schedule/After headers free for reuse
}

// Interceptor inspects every event as it reaches the head of the queue
// and may defer it by returning a positive delay; the event is pushed
// back at its time plus that delay (with a fresh sequence number, so
// deferred events fire after same-time events that were not deferred).
// Fault-injection harnesses use this to impose latency windows on the
// whole kernel without the strategies' cooperation. An interceptor
// must eventually stop deferring an event or Run never terminates. It
// runs before the clock reaches the event's time and must not schedule
// events itself.
//
// The interceptors strategies run under (the fault plans' kernel lag)
// defer by virtual time alone, so events due at one time with
// consecutive sequence numbers stay back to back. The visibility
// engine relies on that: it schedules such a run of agent landings as
// one event.
type Interceptor func(at, seq int64) (delay int64)

// event is one pending dispatch: at its time, Run makes arg the
// current payload and runs inl's Step. Keeping a header pointer in the
// event rather than a closure removes one heap allocation from every
// actor step — the kernel's hottest path — and the payload lets a
// record-like actor ride in the event instead of a heap object.
//
// The struct must stay at 32 bytes (at, seq, header, payload;
// TestEventSize): anything wider makes every event copy in the queue a
// memory operation and was measured as a 3x regression on the
// des-throughput family.
type event struct {
	at  int64
	seq int64
	inl *Inline
	arg uint64
}

// Inline is the header of an inline actor: a simulation actor whose
// Step runs directly inside the event dispatch. Embed an Inline in the
// actor struct and set Step once at construction (typically to a
// method value of the enclosing actor); then schedule &actor.Inline
// via SpawnInline/ScheduleInline/AfterInline, or park it with Park.
// An actor whose state fits a word needs no struct: one header serves
// every such actor of a kind, each event scheduled by AfterWith with
// the actor's state as its payload.
//
// Step may inspect s.Now and s.Arg, schedule events, fire signals,
// park, and reschedule its own or other headers; it must not block.
// Actors are typically small pooled structs, so the method-value
// closure is allocated once per actor (or per kind) and a step costs
// zero allocations.
type Inline struct {
	// Step runs one step of the actor. Set once at construction; the
	// kernel calls it with the header's events' times as s.Now().
	Step func(s *Simulator)
}

// Ring geometry. 64 slots fit one mask word. Unit latency, the
// adversary's latencies and the synchronous variant's round clock (it
// waits 0 or 1 steps) all land inside the ring; only fault delays and
// kernel-lag deferrals reach the overflow heap.
const (
	ringSlots = 64 // FIFOs in the ring, one bit each in calendar.mask
	chunkLen  = 64 // events per chunk: 2 KiB
)

// chunk is a fixed block of one FIFO's events, linked to the FIFO's
// next block or, on the free list, to the next free chunk.
type chunk struct {
	ev   [chunkLen]event
	next *chunk
}

// fifo holds the pending events due at one time in seq order. The
// first event pushed to an empty fifo waits in first, so a time with
// a single event due takes no chunk and a lone pending event costs no
// free-list traffic; later ones go to a chain of chunks, popped from
// head.ev[hi] and pushed at tail.ev[ti]. tail is nil when the fifo
// holds no chunk.
type fifo struct {
	first      event
	head, tail *chunk
	hi, ti     int
}

// calendar is the event queue: a calendar queue (R. Brown, "Calendar
// queues", CACM 31(10), 1988) whose days are single virtual times.
//
// The ring covers the window [base, base+64): slot at mod 64 is the
// FIFO of the events due at time at, and mask marks the non-empty
// slots. Events due at base+64 or later wait in the overflow heap far.
// base never exceeds a pending event's time.
//
// Order: seq only grows, so the events pushed to one FIFO arrive in
// seq order and the FIFO is in (at, seq) order. pop takes the head of
// the first non-empty slot at or after base, or, with the ring empty,
// jumps base to the overflow minimum. Whenever base advances, every
// overflow event entering the window moves to its FIFO in (at, seq)
// order, before any push can reach that FIFO: an earlier push to the
// same time found it outside the window and went to the overflow heap
// too, so a migrated batch holds every event of its time pushed so far.
//
// Memory: FIFOs take chunks from one free list, and a drained FIFO or
// a fully read head chunk returns its chunk, so the queue keeps about
// its peak number of pending events whatever times they are due at.
// Pops read only the earliest time, so at most one FIFO has a partly
// read head chunk: P pending events never hold more than
// ceil(P/64) + 64 chunks. A time with one event due holds none.
type calendar struct {
	base   int64
	mask   uint64 // non-empty slots
	firsts uint64 // slots whose next event is fifo.first
	slots  [ringSlots]fifo
	free   *chunk
	far    eventHeap
}

func (q *calendar) empty() bool { return q.mask == 0 && len(q.far.ev) == 0 }

// push queues e, which must not be due before base, at the tail of its
// slot's FIFO or in the overflow heap.
func (q *calendar) push(e event) {
	if !q.pushFirst(e) {
		q.pushRest(e)
	}
}

// pushFirst queues e as the first event of its slot when e is due
// inside the window and the slot is empty, and reports whether it did.
// That is the common case, and pushFirst is small enough to inline into
// the scheduling calls, which call pushRest only when it declines.
func (q *calendar) pushFirst(e event) bool {
	i := e.at & (ringSlots - 1)
	bit := uint64(1) << i
	if e.at-q.base >= ringSlots || q.mask&bit != 0 {
		return false
	}
	q.slots[i].first = e
	q.mask |= bit
	q.firsts |= bit
	return true
}

// pushRest queues an event pushFirst declined: in the overflow heap, or
// behind the events its slot already holds.
func (q *calendar) pushRest(e event) {
	if e.at-q.base >= ringSlots {
		q.far.push(e)
		return
	}
	f := &q.slots[e.at&(ringSlots-1)]
	switch {
	case f.tail == nil:
		c := q.take()
		f.head, f.tail, f.hi, f.ti = c, c, 0, 0
	case f.ti == chunkLen:
		c := q.take()
		f.tail.next = c
		f.tail, f.ti = c, 0
	}
	f.tail.ev[f.ti] = e
	f.ti++
}

// pop removes and returns the first event in (at, seq) order; the
// queue must not be empty.
func (q *calendar) pop() event {
	if q.mask == 0 {
		q.base = q.far.ev[0].at
		q.migrate()
	} else if k := bits.TrailingZeros64(bits.RotateLeft64(q.mask, -int(q.base&(ringSlots-1)))); k > 0 {
		q.base += int64(k)
		if len(q.far.ev) > 0 {
			q.migrate()
		}
	}
	i := q.base & (ringSlots - 1)
	bit := uint64(1) << i
	f := &q.slots[i]
	if q.firsts&bit != 0 {
		e := f.first
		f.first = event{} // release inl for the GC
		q.firsts &^= bit
		if f.tail == nil {
			q.mask &^= bit
		}
		return e
	}
	e := f.head.ev[f.hi]
	f.head.ev[f.hi] = event{}
	f.hi++
	switch {
	case f.head == f.tail && f.hi == f.ti:
		q.release(f.head)
		f.head, f.tail = nil, nil
		q.mask &^= bit
	case f.hi == chunkLen:
		c := f.head
		f.head, f.hi = c.next, 0
		q.release(c)
	}
	return e
}

// migrate moves the overflow events the window now covers into their
// FIFOs, in (at, seq) order.
func (q *calendar) migrate() {
	for len(q.far.ev) > 0 && q.far.ev[0].at-q.base < ringSlots {
		q.push(q.far.pop())
	}
}

// take returns an empty chunk, from the free list when it has one.
func (q *calendar) take() *chunk {
	c := q.free
	if c == nil {
		return new(chunk)
	}
	q.free, c.next = c.next, nil
	return c
}

func (q *calendar) release(c *chunk) {
	c.next = q.free
	q.free = c
}

// reset empties the queue and moves the window back to time 0,
// keeping every chunk on the free list and the overflow heap's
// backing array.
func (q *calendar) reset() {
	for q.mask != 0 {
		i := bits.TrailingZeros64(q.mask)
		f := &q.slots[i]
		for c := f.head; c != nil; {
			next := c.next
			c.ev = [chunkLen]event{}
			q.release(c)
			c = next
		}
		*f = fifo{}
		q.mask &^= 1 << i
	}
	q.firsts = 0
	clear(q.far.ev)
	q.far.ev = q.far.ev[:0]
	q.base = 0
}

// eventHeap is a concrete 4-ary min-heap ordered by (at, seq): the
// calendar's overflow store for events due 64 or more steps ahead.
// The wide fan-out halves tree depth versus a binary heap, and the
// typed slice means push/pop move events without `interface{}` boxing:
// zero allocations per event once capacity is warm.
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
	h.ev[n] = event{} // release inl for the GC
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

// Reset returns a simulator to time zero so it can run a fresh
// simulation, dropping any pending events and their callbacks while
// keeping the queue's warmed chunks, overflow capacity and idle
// callback headers. It panics if actors are still parked on signals — a
// simulator abandoned mid-run cannot be safely reused.
func (s *Simulator) Reset() {
	if s.parked > 0 {
		panic(fmt.Sprintf("des: reset with %d actor(s) still parked on signals", s.parked))
	}
	s.queue.reset()
	s.now, s.seq, s.arg = 0, 0, 0
	s.icept = nil
}

// Intercept installs (or, with nil, removes) the kernel interceptor.
func (s *Simulator) Intercept(i Interceptor) { s.icept = i }

// Now returns the current virtual time.
func (s *Simulator) Now() int64 { return s.now }

// Arg returns the payload of the event being dispatched: the one
// AfterWith scheduled it with, 0 for a step scheduled by SpawnInline,
// ScheduleInline, AfterInline or Fire. Outside a dispatch it returns
// the last dispatched event's payload.
func (s *Simulator) Arg() uint64 { return s.arg }

// Schedule runs fn at virtual time at, which must not be in the past.
func (s *Simulator) Schedule(at int64, fn func()) {
	if at < s.now {
		badTime(at, s.now) // before hold, so the panic takes no header
	}
	s.schedule(at, s.hold(fn), 0)
}

// After runs fn delay time units from now; delay must be non-negative
// and must not carry the clock past math.MaxInt64. It queues the event
// itself rather than through schedule, saving a call on the path
// hqbench's des-throughput family times.
func (s *Simulator) After(delay int64, fn func()) {
	at := later(s.now, delay)
	if e := (event{at: at, seq: s.seq, inl: s.hold(fn)}); !s.queue.pushFirst(e) {
		s.queue.pushRest(e)
	}
	s.seq++
}

// callback is the header of a Schedule/After event. Its step puts it
// back on the simulator's idle list, where next links it, and then
// runs fn; a header dropped with its event by Reset is not reused.
type callback struct {
	Inline
	fn   func()
	next *callback
}

// hold returns the header of a new callback event running fn: an idle
// one when the simulator has one, else a new one.
func (s *Simulator) hold(fn func()) *Inline {
	c := s.idle
	if c == nil {
		c = newCallback()
	} else {
		s.idle = c.next
	}
	c.fn = fn
	return &c.Inline
}

// newCallback returns a header whose step frees it and runs its
// callback. The step closure is the header's one allocation besides
// itself, made once.
func newCallback() *callback {
	c := new(callback)
	c.Step = func(s *Simulator) {
		fn := c.fn
		c.fn, c.next, s.idle = nil, s.idle, c
		fn()
	}
	return c
}

// later returns t+delay, panicking on a negative delay or one that
// overflows the clock. t is never negative, so one unsigned comparison
// catches both: a negative delay converts above math.MaxInt64.
func later(t, delay int64) int64 {
	if uint64(delay) > uint64(math.MaxInt64-t) {
		badDelay(t, delay)
	}
	return t + delay
}

func badTime(at, now int64) {
	panic(fmt.Sprintf("des: scheduling into the past (%d < %d)", at, now))
}

func badDelay(t, delay int64) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	panic(fmt.Sprintf("des: delay %d at time %d overflows the clock", delay, t))
}

// SpawnInline schedules actor p to step at the current time: the step
// is appended to the queue with the next sequence number, so it fires
// after every already-pending same-time event. It allocates nothing.
func (s *Simulator) SpawnInline(p *Inline) { s.ScheduleInline(s.now, p) }

// ScheduleInline schedules p.Step to run at virtual time at, which
// must not be in the past, with payload 0. It allocates nothing: the
// event carries the header pointer itself, no closure.
func (s *Simulator) ScheduleInline(at int64, p *Inline) { s.schedule(at, p, 0) }

// AfterInline schedules p.Step to run delay time units from now, with
// payload 0; delay must be non-negative and must not carry the clock
// past math.MaxInt64.
func (s *Simulator) AfterInline(delay int64, p *Inline) {
	s.schedule(later(s.now, delay), p, 0)
}

// AfterWith schedules p.Step to run delay time units from now with
// payload arg, which the step reads as s.Arg(); delay must be
// non-negative and must not carry the clock past math.MaxInt64.
func (s *Simulator) AfterWith(delay int64, p *Inline, arg uint64) {
	s.schedule(later(s.now, delay), p, arg)
}

// schedule queues p's step at time at, which must not be in the past,
// with payload arg and the next sequence number.
func (s *Simulator) schedule(at int64, p *Inline, arg uint64) {
	if at < s.now {
		badTime(at, s.now)
	}
	if e := (event{at: at, seq: s.seq, inl: p, arg: arg}); !s.queue.pushFirst(e) {
		s.queue.pushRest(e)
	}
	s.seq++
}

// Run dispatches events in (time, sequence) order on the caller's
// goroutine until the queue is empty, then returns the final time. It
// panics if actors remain parked on signals with no pending event to
// fire them: a deadlocked simulation.
func (s *Simulator) Run() int64 {
	for !s.queue.empty() {
		e := s.queue.pop()
		if s.icept != nil {
			if d := s.icept(e.at, e.seq); d > 0 {
				e.at, e.seq = later(e.at, d), s.seq
				s.queue.push(e)
				s.seq++
				continue
			}
		}
		s.now, s.arg = e.at, e.arg
		e.inl.Step(s)
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
