package des

import "testing"

// BenchmarkEventThroughput measures raw event scheduling and dispatch.
func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	b.ResetTimer()
	s.Run()
}

// BenchmarkProcessSwitch measures the goroutine-handoff cost of the
// process shim: one Delay round trip per op.
func BenchmarkProcessSwitch(b *testing.B) {
	s := New()
	s.Spawn("p", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ResetTimer()
	s.Run()
}

// BenchmarkSignalFanout measures waking many parked actors at once.
func BenchmarkSignalFanout(b *testing.B) {
	const waiters = 256
	for i := 0; i < b.N; i++ {
		s := New()
		var sig Signal
		for w := 0; w < waiters; w++ {
			ww := &waveWaiter{sig: &sig, waves: 1}
			ww.Step = ww.step
			s.SpawnInline(&ww.Inline)
		}
		s.Schedule(1, func() { s.Fire(&sig) })
		s.Run()
	}
}
