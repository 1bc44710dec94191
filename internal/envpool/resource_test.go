package envpool

import (
	"fmt"
	"runtime"
	"testing"

	"hypersearch/internal/core"
	"hypersearch/internal/strategy"
)

// Every DES strategy runs as inline actors on Run's caller goroutine,
// so a pooled environment holds no goroutines between runs and a warm
// run allocates (almost) nothing.

// TestPooledRunsLeaveNoGoroutines: 20 pooled runs of each DES strategy
// start no goroutine that outlives them. (The count may drop: a
// goroutine left by an earlier test can finish meanwhile.)
func TestPooledRunsLeaveNoGoroutines(t *testing.T) {
	for _, name := range core.Strategies() {
		pool := New()
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			_, env, err := core.RunWith(core.Spec{Strategy: name, Dim: 6}, pool)
			if err != nil {
				t.Fatal(err)
			}
			pool.Release(env)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: 20 pooled runs took the goroutine count from %d to %d", name, before, after)
		}
	}
}

// pooledAllocBudget is the allocs/op ceiling of one warm pooled run
// per strategy and dimension. clean is held to a flat 16; every other
// strategy to 8 above what it cost when clean, cloning, synchronous
// and the naive baselines still ran as goroutine processes (measured
// with this test's method): clean 64/1,021/4,092, visibility 0/0/0,
// cloning 153/2,465/9,863, synchronous 240/4,864/21,504, naive-dfs
// 2/2/2, naive-convoy 11/17/21 at d = 6/10/12.
var pooledAllocBudget = map[string][3]float64{
	core.Clean:       {16, 16, 16},
	core.Visibility:  {0 + 8, 0 + 8, 0 + 8},
	core.Cloning:     {153 + 8, 2465 + 8, 9863 + 8},
	core.Synchronous: {240 + 8, 4864 + 8, 21504 + 8},
	core.NaiveDFS:    {2 + 8, 2 + 8, 2 + 8},
	core.NaiveConvoy: {11 + 8, 17 + 8, 21 + 8},
}

// TestPooledRunAllocs: allocations per warm pooled run stay within
// pooledAllocBudget at d = 6, 10 and 12.
func TestPooledRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("d=12 runs of every strategy")
	}
	for _, name := range core.Strategies() {
		budget, ok := pooledAllocBudget[name]
		if !ok {
			t.Fatalf("%s: no allocation budget", name)
		}
		for i, d := range []int{6, 10, 12} {
			t.Run(fmt.Sprintf("%s/d=%d", name, d), func(t *testing.T) {
				pool := New()
				spec := core.Spec{Strategy: name, Dim: d}
				run := func() {
					_, env, err := core.RunWith(spec, pool)
					if err != nil {
						t.Fatal(err)
					}
					pool.Release(env)
				}
				run() // warm the pool
				if allocs := testing.AllocsPerRun(5, run); allocs > budget[i] {
					t.Errorf("%.0f allocs per pooled run, budget %.0f", allocs, budget[i])
				} else {
					t.Logf("%.0f allocs per pooled run", allocs)
				}
			})
		}
	}
}

// TestNewEnvFootprint: a fresh environment costs at most 8 bytes per
// node — the packed board's own footprint. The topology holds only d
// and computes every query from the node's bits, so it adds nothing
// per node.
func TestNewEnvFootprint(t *testing.T) {
	for _, d := range []int{14, 16} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		env := strategy.NewEnv(d, strategy.Options{})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(env)
		bytes := after.TotalAlloc - before.TotalAlloc
		perNode := float64(bytes) / float64(int64(1)<<d)
		if perNode > 8 {
			t.Errorf("d=%d: NewEnv allocated %d B (%.1f B/node), want <= 8 B/node", d, bytes, perNode)
		} else {
			t.Logf("d=%d: NewEnv allocated %d B (%.1f B/node)", d, bytes, perNode)
		}
	}
}
