package des

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hypersearch/internal/faults"
)

// FuzzEventOrder runs a program decoded from the fuzz input on one
// Simulator, Reset between runs, and on refSim, a fresh reference per
// run, and requires the same dispatch log from both.
//
// Input format, one run after another until the input is exhausted:
//
//	header  bits 0-1: interceptor windows (0..2, 3 reads as 0);
//	        bit 2: abort the run; bits 3-5: seed events - 1
//	window  2 bytes each: from = byte, to = from + orderDelays[byte]
//	abort   1 byte, if flagged: the dispatch after which Run is
//	        abandoned by a panic, leaving events pending for Reset
//	seeds   1 op byte each, scheduled at time 0
//
// and then, for every dispatch in order, one byte c and c%3 op bytes
// for the events it schedules. An op byte schedules with Schedule at
// now+delay, After, or AfterWith with the event's id as its payload
// (op%3), delay = orderDelays[op/3] (indices wrap); input past the end
// reads as zero, so every run ends. An AfterWith event's step checks
// its payload against Arg, so a payload lost or swapped on any queue
// path fails the run. The windows defer an event due in [from, to) to
// to, like a kernel-lag fault.
func FuzzEventOrder(f *testing.F) {
	for _, seed := range orderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkEventOrder(t, in, nil)
	})
}

// orderDelays are the delays an op byte selects: short hops, the
// ring's edge at 63, 64 and 65, spans up to 200 and jumps up to
// faults.MaxDelay.
var orderDelays = [...]int64{
	0, 1, 2, 3, 5, 7, 12, 13, 31, 62, 63, 64, 65, 66, 100, 127, 128,
	129, 150, 199, 200, 1 << 10, 1 << 16, faults.MaxDelay,
}

const (
	opSchedule = iota
	opAfter
	opAfterWith
	opKinds

	orderBudget = 400 // events one run may schedule
)

// delayByte encodes delay as its index in orderDelays.
func delayByte(delay int64) byte {
	i := slices.Index(orderDelays[:], delay)
	if i < 0 {
		panic(fmt.Sprintf("delay %d is not in orderDelays", delay))
	}
	return byte(i)
}

// op encodes an op byte scheduling with kind after delay.
func op(kind byte, delay int64) byte { return delayByte(delay)*opKinds + kind }

// header encodes a run header.
func header(windows int, abort bool, seeds int) byte {
	h := byte(windows) | byte(seeds-1)<<3
	if abort {
		h |= 4
	}
	return h
}

// orderSeeds is the seed corpus. The hand-written programs reach the
// four paths TestOrderSeedsReachOverflowPaths checks; the random ones
// mix everything.
func orderSeeds() [][]byte {
	seeds := [][]byte{
		// The ring empties at t=1 while an event due at 100 waits in
		// the overflow heap: the clock jumps to it.
		{header(0, false, 2), op(opAfter, 1), op(opAfter, 100),
			0,                 // t=1
			1, op(opAfter, 1), // t=100 schedules t=101
			0}, // t=101
		// The event due at 100 migrates into its FIFO when the clock
		// reaches 37; the event dispatched at 37 then pushes two more
		// due at 100, which must fire after it.
		{header(0, false, 2), op(opAfter, 100), op(opAfterWith, 12),
			1, op(opSchedule, 12), // t=12 schedules t=24
			1, op(opAfter, 13), // t=24 schedules t=37
			2, op(opAfter, 63), op(opAfterWith, 63), // t=37 schedules two at t=100
			0, 0, 0},
		// A kernel-lag window [13, 77) defers the event due at 13 by
		// 64 steps, past the ring's window, behind the event the one
		// at 12 scheduled for 77.
		{header(1, false, 2), 13, delayByte(64), op(opAfter, 13), op(opAfter, 12),
			1, op(opAfter, 65), // t=12 schedules t=77
			0, 0},
		// A run abandoned at its second dispatch with events due at
		// 201 and 1024 in the overflow heap, then a Reset and a run
		// through a kernel-lag window [5, 69) that must match a fresh
		// simulator's.
		{header(0, true, 3), 1, op(opAfter, 1<<10), op(opAfter, 1), op(opAfter, 65),
			2, op(opAfter, 200), op(opSchedule, 64), // t=1 schedules t=201 and t=65
			header(1, false, 2), 5, delayByte(64), op(opAfter, 5), op(opAfter, 64),
			2, op(opAfter, 1), op(opAfterWith, 63), // t=69 schedules t=70 and t=132
			1, op(opAfter, 65), // t=69 schedules t=134
			0, 0, 0},
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 8; i++ {
		in := make([]byte, 64+rng.Intn(448))
		rng.Read(in)
		seeds = append(seeds, in)
	}
	return seeds
}

// TestOrderSeedsReachOverflowPaths: the seed corpus exercises every
// path the overflow heap adds, so plain `go test` covers them.
func TestOrderSeedsReachOverflowPaths(t *testing.T) {
	var r reached
	for _, seed := range orderSeeds() {
		checkEventOrder(t, seed, &r)
	}
	for name, hit := range map[string]bool{
		"an empty ring jumping to the overflow minimum": r.jump,
		"a migrated FIFO receiving a near push":         r.migratedPush,
		"a deferral past the ring's window":             r.farDeferral,
		"a Reset with overflow events pending":          r.resetFar,
		"a run after that Reset":                        r.runAfterResetFar,
	} {
		if !hit {
			t.Errorf("no seed reaches %s", name)
		}
	}
}

// reached records which queue paths a checked program took.
type reached struct {
	jump, migratedPush, farDeferral, resetFar, runAfterResetFar bool
}

type logEntry struct{ at, id int64 }

// orderProgram is one run's program state: the input cursor, the
// dispatch log and the event budget.
type orderProgram struct {
	in         []byte
	pos        int
	log        []logEntry
	ids        int64
	dispatched int
	abortAfter int // 0: run to completion
	now        func() int64
	schedule   func(kind byte, delay, id int64, fn func())
}

type abortRun struct{}

func (p *orderProgram) next() byte {
	if p.pos >= len(p.in) {
		return 0
	}
	b := p.in[p.pos]
	p.pos++
	return b
}

// spawn decodes one op byte and schedules its event.
func (p *orderProgram) spawn() {
	b := p.next()
	if p.ids >= orderBudget {
		return
	}
	id := p.ids
	p.ids++
	p.schedule(b%opKinds, orderDelays[int(b/opKinds)%len(orderDelays)], id, func() { p.dispatch(id) })
}

func (p *orderProgram) dispatch(id int64) {
	p.log = append(p.log, logEntry{p.now(), id})
	p.dispatched++
	if p.dispatched == p.abortAfter {
		panic(abortRun{})
	}
	for n := p.next() % 3; n > 0; n-- {
		p.spawn()
	}
}

// runOrder decodes one run's header, installs its interceptor with
// intercept, schedules its seed events and calls run, the engine's
// Run. It reports Run's end time, or that the program abandoned Run.
func runOrder(p *orderProgram, run func() int64, intercept func(Interceptor)) (end int64, aborted bool) {
	h := p.next()
	var windows [][2]int64
	for w := int(h&3) % 3; w > 0; w-- {
		from := int64(p.next())
		windows = append(windows, [2]int64{from, from + orderDelays[int(p.next())%len(orderDelays)]})
	}
	if h&4 != 0 {
		p.abortAfter = 1 + int(p.next())
	}
	var icept Interceptor
	if len(windows) > 0 {
		icept = func(at, _ int64) int64 {
			var d int64
			for _, w := range windows {
				if at >= w[0] && at < w[1] && w[1]-at > d {
					d = w[1] - at
				}
			}
			return d
		}
	}
	intercept(icept)
	for n := 1 + int(h>>3&7); n > 0; n-- {
		p.spawn()
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortRun); !ok {
				panic(r)
			}
			aborted = true
		}
	}()
	return run(), false
}

// checkEventOrder runs every run of in on one Simulator and on fresh
// references and compares their logs; r, when set, records the queue
// paths the Simulator took.
func checkEventOrder(t *testing.T, in []byte, r *reached) {
	t.Helper()
	s := New()
	pos := 0
	afterResetFar := false
	for run := 0; pos < len(in); run++ {
		got := &orderProgram{in: in, pos: pos, now: s.Now}
		farAt := map[int64]int{} // pending events pushed to the overflow heap, by time
		got.schedule = func(kind byte, delay, id int64, fn func()) {
			at := s.Now() + delay
			if r != nil {
				far := at-s.queue.base >= ringSlots
				if far {
					farAt[at]++
				} else if farAt[at] > 0 && s.queue.mask&(1<<(at&(ringSlots-1))) != 0 {
					r.migratedPush = true
				}
				inner := fn
				fn = func() {
					if far {
						farAt[at]--
					}
					inner()
					if s.queue.mask == 0 && len(s.queue.far.ev) > 0 {
						r.jump = true
					}
				}
			}
			switch kind {
			case opSchedule:
				s.Schedule(at, fn)
			case opAfter:
				s.After(delay, fn)
			default:
				a := &fnActor{fn: fn, arg: uint64(id)}
				a.Step = a.step
				s.AfterWith(delay, &a.Inline, a.arg)
			}
		}
		simRun := func() int64 {
			if r != nil && s.queue.mask == 0 && len(s.queue.far.ev) > 0 {
				r.jump = true
			}
			return s.Run()
		}
		end, aborted := runOrder(got, simRun, func(icept Interceptor) {
			if icept != nil && r != nil {
				inner := icept
				icept = func(at, seq int64) int64 {
					d := inner(at, seq)
					if d > 0 && at+d-s.queue.base >= ringSlots {
						r.farDeferral = true
					}
					return d
				}
			}
			s.Intercept(icept)
		})

		ref := &refSim{}
		want := &orderProgram{in: in, pos: pos, now: func() int64 { return ref.now }}
		want.schedule = func(_ byte, delay, _ int64, fn func()) { ref.schedule(ref.now+delay, fn) }
		refEnd, refAborted := runOrder(want, ref.run, func(icept Interceptor) { ref.icept = icept })

		if !slices.Equal(got.log, want.log) || aborted != refAborted || (!aborted && end != refEnd) {
			t.Fatalf("run %d: dispatch log %v (end %d, aborted %t), reference %v (end %d, aborted %t)",
				run, got.log, end, aborted, want.log, refEnd, refAborted)
		}
		if r != nil && afterResetFar && len(got.log) > 1 {
			r.runAfterResetFar = true
		}
		afterResetFar = r != nil && len(s.queue.far.ev) > 0
		if afterResetFar {
			r.resetFar = true
		}
		s.Reset()
		pos = got.pos
	}
}

// fnActor is an inline actor whose one step, scheduled with payload
// arg, runs fn.
type fnActor struct {
	Inline
	fn  func()
	arg uint64
}

func (a *fnActor) step(s *Simulator) {
	if s.Arg() != a.arg {
		panic(fmt.Sprintf("the step scheduled with payload %d dispatched with payload %d", a.arg, s.Arg()))
	}
	a.fn()
}

// refSim is the reference FuzzEventOrder checks against: a list
// scanned for the least (at, seq), with Run's deferral rule.
type refSim struct {
	now, seq int64
	ev       []refEvent
	icept    Interceptor
}

type refEvent struct {
	at, seq int64
	fn      func()
}

func (r *refSim) schedule(at int64, fn func()) {
	r.ev = append(r.ev, refEvent{at, r.seq, fn})
	r.seq++
}

func (r *refSim) run() int64 {
	for len(r.ev) > 0 {
		m := 0
		for i, e := range r.ev {
			if e.at < r.ev[m].at || e.at == r.ev[m].at && e.seq < r.ev[m].seq {
				m = i
			}
		}
		e := r.ev[m]
		r.ev = slices.Delete(r.ev, m, m+1)
		if r.icept != nil {
			if d := r.icept(e.at, e.seq); d > 0 {
				r.schedule(e.at+d, e.fn)
				continue
			}
		}
		r.now = e.at
		e.fn()
	}
	return r.now
}

// TestQueueChunksBoundedByPeak: after a run whose peak was P pending
// events, the queue holds at most ceil(P/64) + 64 chunks, however the
// events spread over times, and a rerun allocates none: drained FIFOs
// and read head chunks go back to the free list.
func TestQueueChunksBoundedByPeak(t *testing.T) {
	workloads := []struct {
		name  string
		n     int // the population: every dispatch reschedules at most one event
		delay func(rng *rand.Rand) int64
	}{
		{"one cohort", 20000, func(*rand.Rand) int64 { return 1 }},
		{"adversary", 5000, func(rng *rand.Rand) int64 { return 1 + rng.Int63n(13) }},
		{"every slot", 4160, func(rng *rand.Rand) int64 { return 1 + rng.Int63n(63) }},
		{"near and far", 3000, func(rng *rand.Rand) int64 { return rng.Int63n(200) }},
	}
	for _, w := range workloads {
		rng := rand.New(rand.NewSource(3))
		s := New()
		budget := 0
		var tick func()
		tick = func() {
			if budget > 0 {
				budget--
				s.After(w.delay(rng), tick)
			}
		}
		run := func() {
			s.Reset()
			rng.Seed(3)
			budget = 4 * w.n
			for i := 0; i < w.n; i++ {
				s.After(w.delay(rng), tick)
			}
			s.Run()
		}
		run()
		chunks := 0
		for c := s.queue.free; c != nil; c = c.next {
			chunks++
		}
		if limit := (w.n+chunkLen-1)/chunkLen + ringSlots; chunks > limit {
			t.Errorf("%s: the queue holds %d chunks after a peak of %d pending events, want <= %d",
				w.name, chunks, w.n, limit)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
			t.Errorf("%s: a rerun allocates %.0f times, want 0", w.name, allocs)
		}
	}
}
