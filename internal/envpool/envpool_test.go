package envpool

import (
	"bytes"
	"testing"

	"hypersearch/internal/core"
	"hypersearch/internal/des"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy"
)

// runSpec executes spec against src and returns the result plus the
// trace serialized to JSON (specs set Record).
func runSpec(t *testing.T, spec core.Spec, src strategy.Source) (metrics.Result, []byte) {
	t.Helper()
	res, env, err := core.RunWith(spec, src)
	if err != nil {
		t.Fatalf("RunWith(%+v): %v", spec, err)
	}
	var buf bytes.Buffer
	if err := env.Log().WriteJSON(&buf); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	src.Release(env)
	return res, buf.Bytes()
}

// TestPooledRunsMatchFresh: for every strategy, dimension 2..8 and
// both latency models, a pooled environment on its second (reused) run
// produces a result and trace byte-identical to a fresh-environment
// run.
func TestPooledRunsMatchFresh(t *testing.T) {
	for _, name := range core.Strategies() {
		for d := 2; d <= 8; d++ {
			for _, adv := range []int64{0, 9} {
				if testing.Short() && d > 5 {
					continue
				}
				spec := core.Spec{
					Strategy:           name,
					Dim:                d,
					AdversarialLatency: adv,
					Seed:               42,
					Record:             true,
				}
				wantRes, wantTrace := runSpec(t, spec, strategy.Fresh{})

				pool := New()
				runSpec(t, spec, pool) // populate: first pooled run
				gotRes, gotTrace := runSpec(t, spec, pool)
				if gotRes != wantRes {
					t.Errorf("%s d=%d adv=%d: reused result %+v, fresh %+v", name, d, adv, gotRes, wantRes)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("%s d=%d adv=%d: reused trace differs from fresh", name, d, adv)
				}
			}
		}
	}
}

// TestPooledRunsAcrossOptionChanges: one environment reused across
// different latency models and record settings stays correct — Reset
// fully installs the new options.
func TestPooledRunsAcrossOptionChanges(t *testing.T) {
	pool := New()
	specs := []core.Spec{
		{Strategy: core.Clean, Dim: 5, Record: true},
		{Strategy: core.Clean, Dim: 5, AdversarialLatency: 7, Seed: 3, Record: true},
		{Strategy: core.Visibility, Dim: 5, Record: true},
		{Strategy: core.Clean, Dim: 5, Record: true},
	}
	for _, spec := range specs {
		want, wantTrace := runSpec(t, spec, strategy.Fresh{})
		got, gotTrace := runSpec(t, spec, pool)
		if got != want {
			t.Errorf("%+v: pooled %+v, fresh %+v", spec, got, want)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("%+v: pooled trace differs", spec)
		}
	}
}

// TestAcquireReusesReleasedEnv: a completed environment re-enters the
// pool and is handed out again.
func TestAcquireReusesReleasedEnv(t *testing.T) {
	pool := New()
	spec := core.Spec{Strategy: core.Clean, Dim: 4}
	_, env, err := core.RunWith(spec, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Completed() {
		t.Fatal("finished run should mark the environment completed")
	}
	pool.Release(env)
	if again := pool.Acquire(4, strategy.Options{}); again != env {
		t.Error("Acquire should reuse the released environment")
	}
}

// stuck is an actor that parks on a node nobody ever fires.
type stuck struct {
	des.Inline
	env *strategy.Env
}

func (s *stuck) step(*des.Simulator) { s.env.ParkNode(&s.Inline, 5) }

// TestPoisonedEnvNotReused: an environment abandoned mid-simulation
// (here: the kernel's deadlock panic, recovered) is not re-pooled, and
// the pool still hands out working environments afterwards.
func TestPoisonedEnvNotReused(t *testing.T) {
	pool := New()
	env := pool.Acquire(3, strategy.Options{})
	env.Place(strategy.RoleCleaner)
	a := &stuck{env: env}
	a.Step = a.step
	env.Sim.SpawnInline(&a.Inline)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("deadlocked run should panic")
			}
		}()
		env.Sim.Run()
	}()
	if env.Completed() {
		t.Fatal("abandoned run must not read as completed")
	}
	pool.Release(env)
	next := pool.Acquire(3, strategy.Options{})
	if next == env {
		t.Fatal("poisoned environment re-entered the pool")
	}
	// The replacement environment must run correctly end to end.
	pool.Release(next)
	res, env2, err := core.RunWith(core.Spec{Strategy: core.Visibility, Dim: 3}, pool)
	if err != nil || !res.Captured {
		t.Fatalf("replacement run failed: res=%+v err=%v", res, err)
	}
	pool.Release(env2)
}

// TestReleaseNilAndDoubleRelease: Release tolerates nil and keeps at
// most one environment per dimension.
func TestReleaseNilAndDoubleRelease(t *testing.T) {
	pool := New()
	pool.Release(nil)
	_, e1, _ := core.RunWith(core.Spec{Strategy: core.Clean, Dim: 3}, pool)
	_, e2, _ := core.RunWith(core.Spec{Strategy: core.Clean, Dim: 3}, strategy.Fresh{})
	pool.Release(e1)
	pool.Release(e2)
	a := pool.Acquire(3, strategy.Options{})
	b := pool.Acquire(3, strategy.Options{})
	if a == b {
		t.Fatal("pool handed out one environment twice")
	}
}
