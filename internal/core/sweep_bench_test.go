package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hypersearch/internal/envpool"
)

// sweepShapes are the runs of perfbench's two sweeps: CLEAN WITH
// VISIBILITY at d=18 under unit latency, and CLEAN at d=14 under the
// adversary at bound 13.
var sweepShapes = []Spec{
	{Strategy: Visibility, Dim: 18},
	{Strategy: Clean, Dim: 14, AdversarialLatency: 13},
}

// sweepRun runs shape under seed on pool and checks the invariants and
// the paper's closed forms, as the sweeps do.
func sweepRun(pool *envpool.Pool, shape Spec, seed int64) error {
	spec := shape
	spec.Seed = seed
	res, env, err := RunWith(spec, pool)
	if err != nil {
		return err
	}
	pool.Release(env)
	if !res.Ok() || res.Recontaminations != 0 {
		return fmt.Errorf("seed %d: invariants violated: %s", seed, res)
	}
	if err := CheckClosedForms(spec, res); err != nil {
		return fmt.Errorf("seed %d: %v", seed, err)
	}
	return nil
}

// oneAgentShapes are runs whose flights nearly all carry one agent:
// every cloning flight does, and under the adversary at bound 13 only
// about 6 % of visibility landings ride in an earlier draw's flight.
// They time the landing path where landing a flight as one board
// operation saves nothing.
var oneAgentShapes = []Spec{
	{Strategy: Cloning, Dim: 18},
	{Strategy: Visibility, Dim: 16, AdversarialLatency: 13},
}

// BenchmarkSweepShapes times the sweep shapes one run at a time on an
// envpool.Pool, one seed per iteration. One warm-up run per shape
// builds the pooled environment outside the timed region. `make
// profile-sweeps` runs it under a CPU profile.
func BenchmarkSweepShapes(b *testing.B) { benchShapes(b, sweepShapes) }

// BenchmarkOneAgentFlights times oneAgentShapes as BenchmarkSweepShapes
// times the sweep shapes. `make profile-sweeps` profiles its visibility
// shape, whose flushes replay the most landings per ready node.
func BenchmarkOneAgentFlights(b *testing.B) { benchShapes(b, oneAgentShapes) }

// benchShapes times each shape one run at a time on a pool of its own,
// after one warm-up run.
func benchShapes(b *testing.B, shapes []Spec) {
	for _, shape := range shapes {
		b.Run(fmt.Sprintf("%s/d=%d/adversary=%d", shape.Strategy, shape.Dim, shape.AdversarialLatency), func(b *testing.B) {
			pool := envpool.New()
			if err := sweepRun(pool, shape, 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sweepRun(pool, shape, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepPairs times the sweep shapes the way perfbench runs
// them: each iteration runs two seeds at once, each on its own
// goroutine and envpool.Pool, so the two runs contend for the memory
// system as the sweep's two workers do. It reports the median of the
// per-run times as run_ms.p50; ns/op is the time of a pair. A change
// that speeds up a lone run can leave this flat, so compare both. It
// also reports heap_mb, the heap in use after a GC that follows the
// timed pairs: the two warm pools' footprint, which, unlike a
// window's peak RSS, does not grow with the number of runs.
func BenchmarkSweepPairs(b *testing.B) {
	for _, shape := range sweepShapes {
		b.Run(fmt.Sprintf("%s/d=%d/adversary=%d", shape.Strategy, shape.Dim, shape.AdversarialLatency), func(b *testing.B) {
			pools := [2]*envpool.Pool{envpool.New(), envpool.New()}
			var runMS []float64
			pair := func(seed int64) {
				var (
					wg   sync.WaitGroup
					took [2]time.Duration
					errs [2]error
				)
				for w, pool := range pools {
					wg.Add(1)
					go func() {
						defer wg.Done()
						start := time.Now()
						errs[w] = sweepRun(pool, shape, seed+int64(w))
						took[w] = time.Since(start)
					}()
				}
				wg.Wait()
				for w := range pools {
					if errs[w] != nil {
						b.Fatal(errs[w])
					}
					runMS = append(runMS, float64(took[w])/float64(time.Millisecond))
				}
			}
			pair(0)
			runMS = runMS[:0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair(int64(2*i + 2))
			}
			b.StopTimer()
			slices.Sort(runMS)
			b.ReportMetric(runMS[len(runMS)/2], "run_ms.p50")
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(pools)
			b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heap_mb")
		})
	}
}
