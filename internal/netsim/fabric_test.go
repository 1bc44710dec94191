package netsim

import (
	"fmt"
	"testing"
	"time"

	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
)

// stragglerPlan injects duplicates and delays on the root's first tree
// link: the duplicate copy flies one beat behind a frame the protocol
// needs, so its delivery timer routinely outlives the run — the exact
// shape that was a benign straggler on a throwaway network and becomes
// a use-after-reuse on a pooled one.
func stragglerPlan(d int) *faults.Plan {
	c0 := heapqueue.New(d).Children(0)[0]
	return &faults.Plan{Name: "straggler", Seed: 31, Faults: []faults.Fault{
		{Kind: faults.LinkDup, Target: faults.LinkTarget(0, c0), At: 1, Until: 32},
		{Kind: faults.LinkDelay, Target: faults.LinkTarget(0, c0), At: 1, Until: 16, Delay: 500},
	}}
}

// TestTimerStragglerQuiescence is the regression test for the timer
// lifecycle bug: a delayed duplicate delivery scheduled near the end of
// a run used to fire after wg.Wait() returned, touching mailboxes the
// run had logically finished with. With the drain barrier, every RunOn
// returns only after all of its timers fired, so a tight reuse loop on
// one fabric — tiny d, high MaxLatency, under -race — sees zero
// pending timers and byte-identical stats every iteration. A stale
// frame leaking into the next run's reopened mailboxes would either
// trip the race detector, corrupt the arrival counts, or panic the
// validator.
func TestTimerStragglerQuiescence(t *testing.T) {
	const d = 2
	f := NewFabric(d)
	cfg := Config{Seed: 17, MaxLatency: 800 * time.Microsecond, Faults: stragglerPlan(d)}
	var first Stats
	for i := 0; i < 50; i++ {
		s := RunOn(f, cfg)
		if n := f.PendingTimers(); n != 0 {
			t.Fatalf("iteration %d: %d timers outlived their run", i, n)
		}
		if i == 0 {
			first = s
			if first.Link.Dups == 0 {
				t.Fatal("straggler plan injected no duplicates; test is inert")
			}
			continue
		}
		if s != first {
			t.Fatalf("iteration %d: stale wire state leaked into the reused fabric:\nfirst: %+v\n  got: %+v", i, first, s)
		}
	}
}

// TestRunOnDrainsDeliveryTimers covers the fault-free delivery path's
// barrier: high-latency runs on a reused fabric always return with the
// timer set drained, for all three engines.
func TestRunOnDrainsDeliveryTimers(t *testing.T) {
	runs := []struct {
		name string
		run  func(f *Fabric, cfg Config) Stats
	}{
		{"visibility", RunOn},
		{"clean", RunCleanOn},
		{"cloning", RunCloningOn},
	}
	for _, r := range runs {
		f := NewFabric(3)
		cfg := Config{Seed: 23, MaxLatency: 400 * time.Microsecond}
		for i := 0; i < 10; i++ {
			s := r.run(f, cfg)
			if !s.Ok() {
				t.Fatalf("%s iteration %d: invariants violated: %s", r.name, i, s.Result)
			}
			if n := f.PendingTimers(); n != 0 {
				t.Fatalf("%s iteration %d: %d delivery timers still pending", r.name, i, n)
			}
		}
	}
}

// TestMailboxResetCapsRetainedCapacity pins the pool-hygiene rule: a
// reset mailbox keeps its backing array only up to maxRetainedCap, so
// one burst-heavy run cannot pin its peak capacity in the arena
// forever.
func TestMailboxResetCapsRetainedCapacity(t *testing.T) {
	big := NewMailbox()
	for i := 0; i < 4*maxRetainedCap; i++ {
		big.Send(Message{Agent: i})
	}
	big.Close()
	big.reset()
	if c := cap(big.items); c > maxRetainedCap {
		t.Errorf("reset retained cap %d > bound %d", c, maxRetainedCap)
	}

	small := NewMailbox()
	for i := 0; i < 10; i++ {
		small.Send(Message{Agent: i})
	}
	small.Close()
	before := cap(small.items)
	small.reset()
	if cap(small.items) != before {
		t.Errorf("reset dropped a within-bound backing array (cap %d -> %d)", before, cap(small.items))
	}
	if len(small.items) != 0 || small.head != 0 {
		t.Errorf("reset left queued state: len=%d head=%d", len(small.items), small.head)
	}

	// A reset mailbox is open again: Send must not panic, Recv must
	// deliver, and messages left queued at reset must be gone.
	small.Send(Message{Agent: 42})
	if m, ok := small.Recv(); !ok || m.Agent != 42 {
		t.Errorf("reset mailbox did not deliver: got %v ok=%v", m.Agent, ok)
	}
}

// TestHostRNGStreamsDistinctAcrossSeeds is the regression test for the
// (seed, host) stream collision: under the old Seed ^ v*0x9E3779B9
// derivation, host v at seed 0 drew the identical stream as host 0 at
// seed v*0x9E3779B9. The splitmix64 chain must separate that exact
// family, and (seed, host) pairs must not collide across a dense grid.
func TestHostRNGStreamsDistinctAcrossSeeds(t *testing.T) {
	const mult = 0x9E3779B9
	for v := 1; v <= 64; v++ {
		a := newHostRNG(0, v, streamVisibility)
		b := newHostRNG(int64(v)*mult, 0, streamVisibility)
		if a.next() == b.next() && a.next() == b.next() {
			t.Errorf("host %d at seed 0 collides with host 0 at seed %d*0x9E3779B9", v, v)
		}
	}

	// Injectivity over a grid: the first two outputs of every
	// (seed, host, stream) triple are pairwise distinct.
	seen := map[[2]uint64]string{}
	for _, stream := range []uint64{streamVisibility, streamClean, streamCloning} {
		for seed := int64(0); seed < 4; seed++ {
			for v := 0; v < 64; v++ {
				r := newHostRNG(seed, v, stream)
				key := [2]uint64{r.next(), r.next()}
				id := fmt.Sprintf("seed=%d host=%d stream=%x", seed, v, stream)
				if prev, dup := seen[key]; dup {
					t.Fatalf("stream collision: %s duplicates %s", id, prev)
				}
				seen[key] = id
			}
		}
	}
}

// TestHostRNGStreamsDeterministic pins that the derivation is a pure
// function of (seed, host, stream): reruns draw identical latencies.
func TestHostRNGStreamsDeterministic(t *testing.T) {
	a := newHostRNG(99, 7, streamClean)
	b := newHostRNG(99, 7, streamClean)
	for i := 0; i < 100; i++ {
		if x, y := a.Int63n(1000), b.Int63n(1000); x != y {
			t.Fatalf("draw %d differs: %d vs %d", i, x, y)
		}
	}
}

// TestWarmRunAllocs: a fault-free, zero-latency run on a warm fabric
// allocates only its n host goroutines' closures and its WaitGroup, and
// CLEAN also the synchronizer state it boots — nothing per host from
// the protocols themselves: no dispatch plan, path or route slice.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs malloc accounting")
	}
	for _, p := range []struct {
		name  string
		on    func(*Fabric, Config) Stats
		extra float64 // allocations beyond the n+1 of the run skeleton
	}{
		{"visibility", RunOn, 0},
		{"cloning", RunCloningOn, 0},
		{"clean", RunCleanOn, 1},
	} {
		for _, d := range []int{4, 6, 8} {
			f := NewFabric(d)
			cfg := Config{Seed: 3}
			p.on(f, cfg) // warm the fabric
			want := float64(int(1)<<d+1) + p.extra
			if got := testing.AllocsPerRun(10, func() { p.on(f, cfg) }); got > want {
				t.Errorf("%s d=%d: %.0f allocations per warm run, want <= %.0f", p.name, d, got, want)
			}
		}
	}
}
