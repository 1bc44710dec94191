package netarena

import (
	"testing"
	"time"

	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/netsim"
)

// engines are the three netsim protocols, each as a fresh-fabric run
// and as a run on a caller's fabric.
var engines = []struct {
	name  string
	fresh func(d int, cfg netsim.Config) netsim.Stats
	on    func(f *netsim.Fabric, cfg netsim.Config) netsim.Stats
}{
	{"visibility", netsim.Run, netsim.RunOn},
	{"clean", netsim.RunClean, netsim.RunCleanOn},
	{"cloning", netsim.RunCloning, netsim.RunCloningOn},
}

// runPooled runs one engine on a fabric from a: Acquire, run, Release.
func runPooled(a *Arena, d int, cfg netsim.Config, on func(*netsim.Fabric, netsim.Config) netsim.Stats) netsim.Stats {
	f := a.Acquire(d)
	s := on(f, cfg)
	a.Release(f)
	return s
}

// dupPlan builds a link-fault plan whose duplicate copies and delays
// schedule timers that can outlive the run — the straggler shape the
// quiescence barrier exists for.
func dupPlan(d int) *faults.Plan {
	c0 := heapqueue.New(d).Children(0)[0]
	return &faults.Plan{Name: "arena-dup", Seed: 21, Faults: []faults.Fault{
		{Kind: faults.LinkDup, Target: faults.LinkTarget(0, c0), At: 1, Until: 16},
		{Kind: faults.LinkDelay, Target: faults.LinkTarget(0, c0), At: 1, Until: 8, Delay: 300},
		{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, c0), At: 2, Until: 4, Times: 1},
	}}
}

// TestArenaMatchesFreshByteIdentity reuses one fabric per dimension
// across repeated runs of every engine and requires Stats == the
// fresh-fabric run's, byte for byte — the netsim mirror of envpool's
// pooled-vs-fresh tests. Acceptance: identical at every d <= 8.
func TestArenaMatchesFreshByteIdentity(t *testing.T) {
	a := New()
	for _, e := range engines {
		for d := 0; d <= 8; d++ {
			if testing.Short() && d > 5 {
				continue
			}
			cfg := netsim.Config{Seed: int64(11*d + 5), MaxLatency: 20 * time.Microsecond}
			fresh := e.fresh(d, cfg)
			for round := 0; round < 3; round++ {
				got := runPooled(a, d, cfg, e.on)
				if got != fresh {
					t.Errorf("%s d=%d round %d: arena stats diverge from fresh:\narena: %+v\nfresh: %+v",
						e.name, d, round, got, fresh)
				}
			}
		}
	}
}

// hostCrashPlan crashes the root's first tree child as it admits frame
// 2 of its parent link, the first agent dispatch of a visibility run:
// the host rebuilds from the ledger replay, whose stale frames must
// not outlive the run on a pooled fabric.
func hostCrashPlan(d int) *faults.Plan {
	c0 := heapqueue.New(d).Children(0)[0]
	return &faults.Plan{Name: "arena-host-crash", Seed: 22, Faults: []faults.Fault{
		{Kind: faults.HostCrash, Target: faults.LinkTarget(0, c0), At: 2},
	}}
}

// faultedRun is one engine's run under a plan, by index into engines.
type faultedRun struct {
	engine int
	plan   func(d int) *faults.Plan
}

// TestArenaReuseAcrossFaultedThenClean runs a link-faulted run and a
// fault-free run back to back on the same fabric: the clean run's
// Stats must match a fresh fabric's exactly, including a zero wire
// Summary — no ledger, ARQ or counter state may leak across the reset.
// The three protocols share one wiring, so the cross-protocol input
// follows each faulted run, a visibility host crash among them, with
// every protocol's fault-free run.
func TestArenaReuseAcrossFaultedThenClean(t *testing.T) {
	inputs := []struct {
		name    string
		faulted []faultedRun
		cross   bool // every engine's fault-free run follows, not only the faulted one's
	}{
		{"same protocol", []faultedRun{{0, dupPlan}, {1, dupPlan}, {2, dupPlan}}, false},
		{"cross protocol", []faultedRun{{0, dupPlan}, {0, hostCrashPlan}, {1, dupPlan}, {2, dupPlan}}, true},
	}
	a := New()
	for _, in := range inputs {
		for _, d := range []int{3, 5, 7} {
			if testing.Short() && d > 5 {
				continue
			}
			cfg := netsim.Config{Seed: int64(7 * d), MaxLatency: 100 * time.Microsecond}
			fresh := make([]netsim.Stats, len(engines))
			for i, e := range engines {
				fresh[i] = e.fresh(d, cfg)
			}
			for _, fr := range in.faulted {
				followers := []int{fr.engine}
				if in.cross {
					followers = []int{0, 1, 2}
				}
				for _, g := range followers {
					e := engines[fr.engine]
					faulted := cfg
					faulted.Faults = fr.plan(d)
					ff := runPooled(a, d, faulted, e.on)
					if ff.Link.Dups+ff.Link.Crashes == 0 {
						t.Errorf("%s: %s d=%d: plan %s fired no fault; plan inert", in.name, e.name, d, faulted.Faults.Name)
					}
					got := runPooled(a, d, cfg, engines[g].on)
					if got != fresh[g] {
						t.Errorf("%s: %s run after faulted %s (%s) d=%d diverges:\narena: %+v\nfresh: %+v",
							in.name, engines[g].name, e.name, faulted.Faults.Name, d, got, fresh[g])
					}
					if got.Link != (netsim.Stats{}).Link {
						t.Errorf("%s: %s d=%d: wire summary leaked across reset: %+v", in.name, engines[g].name, d, got.Link)
					}
				}
			}
		}
	}
}

// TestArenaPoolsCompletedFabric pins the pooling mechanics: a
// completed fabric comes back from the next Acquire of its dimension,
// and dimensions do not cross.
func TestArenaPoolsCompletedFabric(t *testing.T) {
	a := New()
	f := a.Acquire(4)
	netsim.RunOn(f, netsim.Config{Seed: 1})
	a.Release(f)
	if g := a.Acquire(4); g != f {
		t.Error("completed fabric was not pooled for its dimension")
	} else {
		a.Release(g)
	}
	if g := a.Acquire(5); g == f {
		t.Error("arena handed a d=4 fabric to a d=5 acquire")
	}
}

// TestArenaDropsUnrunFabric pins poison-on-incomplete: a fabric that
// never completed a run (fresh, or panicked mid-flight) must not be
// pooled.
func TestArenaDropsUnrunFabric(t *testing.T) {
	a := New()
	f := a.Acquire(3)
	if f.Completed() {
		t.Fatal("fresh fabric reports completed")
	}
	a.Release(f)
	if g := a.Acquire(3); g == f {
		t.Error("arena pooled a fabric that never completed a run")
	}
}

// TestArenaQuiescentOnRelease asserts the load-bearing correctness
// property of pooling: at every Release, no timer from the run is
// still pending — even under a fault plan built to leave duplicate
// copies flying after the protocol completes.
func TestArenaQuiescentOnRelease(t *testing.T) {
	a := New()
	const d = 3
	cfg := netsim.Config{Seed: 9, MaxLatency: 500 * time.Microsecond, Faults: dupPlan(d)}
	for i := 0; i < 20; i++ {
		f := a.Acquire(d)
		netsim.RunOn(f, cfg)
		if n := f.PendingTimers(); n != 0 {
			t.Fatalf("iteration %d: %d timers still pending after RunOn returned", i, n)
		}
		a.Release(f)
	}
}

// partitionPlan cuts every link incident to the homebase for a frame
// window and heals it 800 logical units later: the heal releases the
// parked backlog on wall-clock timers, the exact straggler shape that
// could chase a recycled fabric.
func partitionPlan(d int) *faults.Plan {
	return &faults.Plan{Name: "arena-partition", Seed: 23, Faults: []faults.Fault{
		{Kind: faults.Partition, Target: faults.LinksTarget(faults.IslandLinks(0, d)),
			At: 1, Until: 4, Delay: 800},
	}}
}

// TestArenaReuseAfterPartition reuses a fabric immediately after a
// partition-faulted run, for every engine: no parked frame released by
// the heal may survive the quiescence barrier into the next run, and
// the fault-free rerun must match a fresh fabric byte for byte.
func TestArenaReuseAfterPartition(t *testing.T) {
	a := New()
	for _, e := range engines {
		for _, d := range []int{3, 6} {
			if testing.Short() && d > 5 {
				continue
			}
			cfg := netsim.Config{Seed: int64(19*d + 2), MaxLatency: 150 * time.Microsecond}
			fresh := e.fresh(d, cfg)

			faulted := cfg
			faulted.Faults = partitionPlan(d)
			f := a.Acquire(d)
			ff := e.on(f, faulted)
			if ff.Link.Partitioned == 0 {
				t.Errorf("%s d=%d: partition parked no frames; plan inert (%+v)", e.name, d, ff.Link)
			}
			if n := f.PendingTimers(); n != 0 {
				t.Fatalf("%s d=%d: %d timers still pending right after the partition-faulted run", e.name, d, n)
			}
			a.Release(f)

			got := runPooled(a, d, cfg, e.on)
			if got != fresh {
				t.Errorf("%s d=%d: fault-free run on the reused fabric diverges:\narena: %+v\nfresh: %+v",
					e.name, d, got, fresh)
			}
		}
	}
}
