package des

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// nop is a prebuilt callback so the tests measure the kernel's own
// allocations, not the test closure's.
var nop = func() {}

// TestScheduleRunZeroAllocs: once the queue is warm, scheduling and
// dispatching plain events allocates nothing — the ring's chunks and
// the overflow heap's typed slice move events without interface
// boxing.
func TestScheduleRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	s := New()
	for i := 0; i < 1024; i++ {
		s.After(int64(i), nop)
	}
	s.Run() // warm the queue's chunks and overflow capacity
	allocs := testing.AllocsPerRun(100, func() {
		for i := int64(1); i <= 64; i++ {
			s.After(i, nop)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("schedule+run allocates %.1f per batch, want 0", allocs)
	}
}

// TestDeferralZeroAllocs: an interceptor deferral re-pushes the popped
// event into storage the queue already holds. Before the typed heap,
// every deferral boxed the event into an interface{} — a fresh
// allocation per deferral.
func TestDeferralZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	s := New()
	const horizon = 64
	s.Intercept(func(at, seq int64) int64 {
		if at < horizon {
			return 1 // defer until the event drifts past the horizon
		}
		return 0
	})
	s.After(1, nop)
	s.Run() // warm capacity (and exercise repeated deferral once)
	allocs := testing.AllocsPerRun(100, func() {
		s.After(1, nop)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("deferral allocates %.1f per run, want 0", allocs)
	}
}

// TestDelayStepNearZeroAllocs: a process Delay carries the process
// pointer in the event itself, so steady-state virtual sleeps cost no
// closure and no boxing. Spawning inherently allocates (goroutine,
// channels), so measure the marginal cost per extra Delay instead.
func TestDelayStepNearZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	measure := func(delays int) uint64 {
		s := New()
		s.Spawn("p", func(p *Process) {
			for i := 0; i < delays; i++ {
				p.Delay(1)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure(1000) // warmup
	base := measure(1000)
	big := measure(51000)
	// Signed: the long run can read fewer mallocs than the short one,
	// and a uint64 difference would wrap to ~1.8e19.
	perDelay := float64(int64(big)-int64(base)) / 50000
	if perDelay > 0.01 {
		t.Errorf("Delay allocates %.3f per step, want ~0 (base=%d big=%d)", perDelay, base, big)
	}
}

// waveWaiter parks on sig for a fixed number of waves.
type waveWaiter struct {
	Inline
	sig   *Signal
	waves int
}

func (w *waveWaiter) step(s *Simulator) {
	if w.waves > 0 {
		w.waves--
		s.Park(w.sig, &w.Inline)
	}
}

// TestFireReusesWaiterArrays: steady-state Park/Fire waves recycle
// the Signal's backing arrays, so the marginal cost of a wave is
// (near) zero allocations. Setting up the actors is excluded the same
// way as in the Delay test: compare a short run against a long one.
func TestFireReusesWaiterArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	measure := func(waves int) uint64 {
		s := New()
		var sig Signal
		const waiters = 8
		for w := 0; w < waiters; w++ {
			ww := &waveWaiter{sig: &sig, waves: waves}
			ww.Step = ww.step
			s.SpawnInline(&ww.Inline)
		}
		fired := 0
		var fire func()
		fire = func() {
			s.Fire(&sig)
			if fired++; fired < waves {
				s.After(1, fire)
			}
		}
		s.After(1, fire)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure(100) // warmup
	base := measure(100)
	big := measure(5100)
	// Signed, as in the Delay test: the long run can read fewer mallocs
	// than the short one.
	perWave := float64(int64(big)-int64(base)) / 5000
	if perWave > 0.05 {
		t.Errorf("Fire wave allocates %.3f, want ~0 (base=%d big=%d)", perWave, base, big)
	}
}

// TestHeapOrderRandomized: the queue dispatches any workload in
// (time, seq) order, inside the ring's 64-step window and in the
// overflow heap beyond it — the same contract the container/heap
// version obeyed.
func TestHeapOrderRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New()
		n := 1 + rng.Intn(500)
		var got []int64
		for i := 0; i < n; i++ {
			at := int64(rng.Intn(256))
			s.Schedule(at, func() { got = append(got, at) })
		}
		s.Run()
		if len(got) != n {
			t.Fatalf("trial %d: dispatched %d of %d events", trial, len(got), n)
		}
		for i := 1; i < n; i++ {
			if got[i] < got[i-1] {
				t.Fatalf("trial %d: out of order at %d: %v", trial, i, got)
			}
		}
	}
}

// TestHeapSameTimeFIFO: equal-time events fire in scheduling order
// even with earlier events interleaved among them.
func TestHeapSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(10, func() { got = append(got, i) })
		if i%3 == 0 {
			s.Schedule(int64(i%7), nop)
		}
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time order broken: got[%d] = %d", i, v)
		}
	}
}
