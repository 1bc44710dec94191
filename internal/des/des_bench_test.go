package des

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkQueueDepth measures dispatch at the queue depths the
// sweeps run, where hqbench's des-throughput family keeps one event
// pending: a steady population of depth events, every dispatch
// rescheduling one, under unit latency and under latencies uniform in
// 1..13. 1,718 is CLEAN's peak at d=14 under the adversary, 131,072
// the last step of CLEAN WITH VISIBILITY at d=18. ns/event divides the
// timed run by every dispatch, the final drain of the population
// included.
func BenchmarkQueueDepth(b *testing.B) {
	var lat [4096]int64
	rng := rand.New(rand.NewSource(1))
	for i := range lat {
		lat[i] = 1 + rng.Int63n(13)
	}
	for _, depth := range []int{1, 1718, 131072} {
		for _, mode := range []string{"unit", "uniform13"} {
			uniform := mode != "unit"
			b.Run(fmt.Sprintf("depth=%d/%s", depth, mode), func(b *testing.B) {
				s := New()
				left, n := 0, 0
				tick := &Inline{}
				tick.Step = func(s *Simulator) {
					n++
					if left > 0 {
						left--
						d := int64(1)
						if uniform {
							d = lat[n%len(lat)]
						}
						s.AfterInline(d, tick)
					}
				}
				run := func(reschedules int) {
					left = reschedules
					for i := 0; i < depth; i++ {
						s.ScheduleInline(s.Now(), tick)
					}
					s.Run()
				}
				run(depth) // warm the queue's storage
				b.ResetTimer()
				run(b.N)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N+depth), "ns/event")
			})
		}
	}
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
