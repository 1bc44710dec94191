package core

import (
	"fmt"
	"testing"

	"hypersearch/internal/envpool"
)

// BenchmarkSweepShapes times the runs of perfbench's two sweeps on an
// envpool.Pool: CLEAN WITH VISIBILITY at d=18 under unit latency, and
// CLEAN at d=14 under the adversary at bound 13, one seed per
// iteration. Every iteration checks the invariants and the paper's
// closed forms, as the sweeps do. One warm-up run per shape builds the
// pooled environment outside the timed region. `make profile-sweeps`
// runs it under a CPU profile.
func BenchmarkSweepShapes(b *testing.B) {
	for _, shape := range []Spec{
		{Strategy: Visibility, Dim: 18},
		{Strategy: Clean, Dim: 14, AdversarialLatency: 13},
	} {
		b.Run(fmt.Sprintf("%s/d=%d/adversary=%d", shape.Strategy, shape.Dim, shape.AdversarialLatency), func(b *testing.B) {
			pool := envpool.New()
			run := func(seed int64) {
				spec := shape
				spec.Seed = seed
				res, env, err := RunWith(spec, pool)
				if err != nil {
					b.Fatal(err)
				}
				pool.Release(env)
				if !res.Ok() || res.Recontaminations != 0 {
					b.Fatalf("seed %d: invariants violated: %s", seed, res)
				}
				if err := CheckClosedForms(spec, res); err != nil {
					b.Fatalf("seed %d: %v", seed, err)
				}
			}
			run(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(int64(i + 1))
			}
		})
	}
}
