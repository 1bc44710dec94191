package netsim

import (
	"fmt"
	"testing"
	"time"

	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
)

// netsimFaultPlans builds the canonical link-fault campaign for H_d:
// the same four scenario shapes cmd/hqfaults runs, expressed against
// the concrete broadcast-tree links of this dimension. Frame numbering
// per link is fixed by the host program: on a parent->child tree link
// the guarded beacon (sent when the parent gathers its complement) is
// frame 1 and agent dispatches follow from frame 2; on a pure
// dependency link the beacon is the only frame.
func netsimFaultPlans(d int) []*faults.Plan {
	bt := heapqueue.New(d)
	h := hypercube.New(d)
	c0 := bt.Children(0)[0]

	lossy := &faults.Plan{Name: "lossy-links", Seed: 11, Faults: []faults.Fault{
		{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, c0), At: 1, Until: 8, Times: 2},
	}}
	dup := &faults.Plan{Name: "dup-storm", Seed: 12, Faults: []faults.Fault{
		{Kind: faults.LinkDup, Target: faults.LinkTarget(0, c0), At: 1, Until: 16},
		{Kind: faults.LinkDelay, Target: faults.LinkTarget(0, c0), At: 2, Until: 5, Delay: 400},
	}}
	if gcs := bt.Children(c0); len(gcs) > 0 {
		lossy.Faults = append(lossy.Faults, faults.Fault{
			Kind: faults.LinkDrop, Target: faults.LinkTarget(c0, gcs[0]), At: 1, Until: 4, Times: 1,
		})
		dup.Faults = append(dup.Faults, faults.Fault{
			Kind: faults.LinkDup, Target: faults.LinkTarget(c0, gcs[0]), At: 1, Until: 8,
		})
	}

	// All of the last node's neighbours are smaller, so every link
	// into it carries a beacon as frame 1: swallow them all.
	blackout := &faults.Plan{Name: "beacon-blackout", Seed: 13}
	last := h.Order() - 1
	for _, u := range h.SmallerNeighbours(last) {
		blackout.Faults = append(blackout.Faults, faults.Fault{
			Kind: faults.LinkDrop, Target: faults.LinkTarget(u, last), At: 1, Times: 3,
		})
	}

	crash := &faults.Plan{Name: "host-crash", Seed: 14, Faults: []faults.Fault{
		// Frame 2 on the root's first tree link is the first agent
		// dispatch: the child crashes mid-gather and must rebuild.
		{Kind: faults.HostCrash, Target: faults.LinkTarget(0, c0), At: 2},
	}}

	mixed := &faults.Plan{Name: "mixed", Seed: 15}
	mixed.Faults = append(mixed.Faults, lossy.Faults...)
	mixed.Faults = append(mixed.Faults, dup.Faults...)
	mixed.Faults = append(mixed.Faults, crash.Faults...)

	// The partition cuts every link incident to the homebase for the
	// first three frames of each: the boot beacon and the first agent
	// dispatches are parked in the cut and released, in per-link order,
	// when it heals 600 logical units later.
	islanded := &faults.Plan{Name: "homebase-islanded", Seed: 16, Faults: []faults.Fault{
		{Kind: faults.Partition, Target: faults.LinksTarget(faults.IslandLinks(0, d)),
			At: 1, Until: 3, Delay: 600},
	}}

	// Host 1 is single-fed (its only smaller neighbour is the root), so
	// its ledger holds exactly 2 entries — beacon, first dispatch — when
	// frame 2 fires the cascade: threshold 2 trips deterministically and
	// crashes its larger neighbours.
	cascade := &faults.Plan{Name: "crash-cascade", Seed: 17, Faults: []faults.Fault{
		{Kind: faults.Cascade, Target: faults.LinkTarget(0, 1), At: 2,
			Threshold: 2, Victims: cascadeVictims(d)},
	}}

	return []*faults.Plan{lossy, dup, blackout, crash, mixed, islanded, cascade}
}

// cascadeVictims returns up to two of host 1's larger hypercube
// neighbours (1^2=3, 1^4=5), the secondary-crash targets of the
// crash-cascade plan.
func cascadeVictims(d int) []int {
	victims := []int{3}
	if d >= 3 {
		victims = append(victims, 5)
	}
	return victims
}

// validatorMode is one way a test run checks its invariants: the
// engines' own striped validator (hook nil), or the dual validator,
// which also drives the single-mutex reference and fails the test on
// any divergence between the two.
type validatorMode struct {
	name string
	hook func(*hypercube.Hypercube) validator
}

func validatorModes(t *testing.T) []validatorMode {
	return []validatorMode{
		{"striped", nil},
		{"dual", func(h *hypercube.Hypercube) validator { return newDualValidator(t, h) }},
	}
}

// checkFaultedStats asserts the non-negotiables of a faulted run: it
// terminated with all nodes clean, monotone and contiguous, with zero
// recontaminations.
func checkFaultedStats(t *testing.T, s Stats, plan string) {
	t.Helper()
	if !s.Captured || !s.MonotoneOK || !s.ContiguousOK {
		t.Errorf("%s: faulted run not clean: captured=%v monotone=%v contiguous=%v",
			plan, s.Captured, s.MonotoneOK, s.ContiguousOK)
	}
	if s.Recontaminations != 0 {
		t.Errorf("%s: %d recontaminations under faults", plan, s.Recontaminations)
	}
}

// TestFaultedRunsTerminateClean drives both engines through every
// scenario with the striped and the dual validator and asserts the
// run is indistinguishable from a clean one at the protocol level:
// same moves, same message counts, all nodes clean.
func TestFaultedRunsTerminateClean(t *testing.T) {
	for d := 2; d <= 8; d++ {
		if testing.Short() && d > 5 {
			continue
		}
		for _, mode := range validatorModes(t) {
			base := Config{Seed: int64(31*d + 7), MaxLatency: 300 * time.Microsecond, newValidator: mode.hook}
			cleanVis := Run(d, base)
			cleanClone := RunCloning(d, base)
			for _, plan := range netsimFaultPlans(d) {
				cfg := base
				cfg.Faults = plan
				name := fmt.Sprintf("d=%d mode=%s plan=%s", d, mode.name, plan.Name)

				s := Run(d, cfg)
				checkFaultedStats(t, s, name+" visibility")
				if s.AgentMoves != cleanVis.AgentMoves || s.AgentMessages != cleanVis.AgentMessages ||
					s.BeaconMessages != cleanVis.BeaconMessages || s.TeamSize != cleanVis.TeamSize {
					t.Errorf("%s: recovery changed the logical run: faulted {moves=%d agents=%d beacons=%d team=%d} clean {%d %d %d %d}",
						name, s.AgentMoves, s.AgentMessages, s.BeaconMessages, s.TeamSize,
						cleanVis.AgentMoves, cleanVis.AgentMessages, cleanVis.BeaconMessages, cleanVis.TeamSize)
				}

				c := RunCloning(d, cfg)
				checkFaultedStats(t, c, name+" cloning")
				if c.AgentMoves != cleanClone.AgentMoves || c.AgentMessages != cleanClone.AgentMessages ||
					c.BeaconMessages != cleanClone.BeaconMessages {
					t.Errorf("%s cloning: recovery changed the logical run", name)
				}
			}
		}
	}
}

// TestFaultedStatsDeterministic reruns every faulted scenario and
// requires byte-identical Stats — including the wire Summary — which
// is what hqfaults' -verify replay rests on.
func TestFaultedStatsDeterministic(t *testing.T) {
	for _, d := range []int{3, 6} {
		if testing.Short() && d > 5 {
			continue
		}
		for _, plan := range netsimFaultPlans(d) {
			cfg := Config{Seed: int64(d) * 97, MaxLatency: 250 * time.Microsecond, Faults: plan}
			a, b := Run(d, cfg), Run(d, cfg)
			if a != b {
				t.Errorf("d=%d plan=%s: visibility stats differ across reruns:\n%+v\n%+v", d, plan.Name, a, b)
			}
			ca, cb := RunCloning(d, cfg), RunCloning(d, cfg)
			if ca != cb {
				t.Errorf("d=%d plan=%s: cloning stats differ across reruns:\n%+v\n%+v", d, plan.Name, ca, cb)
			}
		}
	}
}

// TestFaultedWireAccounting pins the deterministic wire counters of
// two scenarios whose schedules are easy to derive by hand.
func TestFaultedWireAccounting(t *testing.T) {
	d := 4
	plans := netsimFaultPlans(d)

	crash := plans[3]
	s := Run(d, Config{Seed: 5, Faults: crash})
	if s.Link.Crashes != 1 {
		t.Errorf("host-crash plan fired %d crashes, want 1 (%+v)", s.Link.Crashes, s.Link)
	}

	blackout := plans[2]
	s = Run(d, Config{Seed: 5, Faults: blackout})
	wantDrops := int64(3 * d) // d beacon links into the last node, 3 attempts swallowed each
	if s.Link.Drops != wantDrops || s.Link.Retransmits != wantDrops {
		t.Errorf("beacon-blackout: drops=%d retransmits=%d, want %d each", s.Link.Drops, s.Link.Retransmits, wantDrops)
	}
	if s.Link.Frames == 0 {
		t.Error("beacon-blackout: no frames crossed the wire layer")
	}
}

// TestDualValidatorUnderLinkFaults runs every scenario with the dual
// validator, which t.Errors on any field divergence between the
// locked and striped implementations while both observe the faulted
// event stream.
func TestDualValidatorUnderLinkFaults(t *testing.T) {
	for d := 2; d <= 8; d++ {
		if testing.Short() && d > 5 {
			continue
		}
		for _, plan := range netsimFaultPlans(d) {
			cfg := Config{
				Seed:       int64(13*d + 3),
				MaxLatency: 200 * time.Microsecond,
				Faults:     plan,
				newValidator: func(h *hypercube.Hypercube) validator {
					return newDualValidator(t, h)
				},
			}
			s := Run(d, cfg)
			checkFaultedStats(t, s, fmt.Sprintf("dual d=%d plan=%s visibility", d, plan.Name))
			c := RunCloning(d, cfg)
			checkFaultedStats(t, c, fmt.Sprintf("dual d=%d plan=%s cloning", d, plan.Name))
		}
	}
}

// deliveryOnlyPlans filters the campaign to the plans the coordinated
// engine accepts: everything except host-crash/cascade shapes.
func deliveryOnlyPlans(d int) []*faults.Plan {
	var out []*faults.Plan
	for _, p := range netsimFaultPlans(d) {
		if !p.HasHostCrashFaults() {
			out = append(out, p)
		}
	}
	return out
}

// TestCleanFaultedRunsTerminateClean drives the coordinated engine
// through every delivery-fault scenario (drop, dup, delay, partition):
// recovery must leave the logical run — moves, team size, invariants —
// byte-identical to the fault-free one.
func TestCleanFaultedRunsTerminateClean(t *testing.T) {
	for d := 2; d <= 8; d++ {
		if testing.Short() && d > 5 {
			continue
		}
		for _, mode := range validatorModes(t) {
			base := Config{Seed: int64(17*d + 1), MaxLatency: 300 * time.Microsecond, newValidator: mode.hook}
			fresh := RunClean(d, base)
			for _, plan := range deliveryOnlyPlans(d) {
				cfg := base
				cfg.Faults = plan
				name := fmt.Sprintf("clean d=%d mode=%s plan=%s", d, mode.name, plan.Name)
				s := RunClean(d, cfg)
				checkFaultedStats(t, s, name)
				if s.TotalMoves != fresh.TotalMoves || s.SyncMoves != fresh.SyncMoves ||
					s.AgentMoves != fresh.AgentMoves || s.TeamSize != fresh.TeamSize {
					t.Errorf("%s: recovery changed the logical run: faulted {total=%d sync=%d agent=%d team=%d} clean {%d %d %d %d}",
						name, s.TotalMoves, s.SyncMoves, s.AgentMoves, s.TeamSize,
						fresh.TotalMoves, fresh.SyncMoves, fresh.AgentMoves, fresh.TeamSize)
				}
			}
		}
	}
}

// TestCleanFaultedStatsDeterministic is the -verify contract for the
// coordinated engine: byte-identical Stats, including the wire Summary
// and its WireTime bill, across reruns of each delivery-fault plan.
func TestCleanFaultedStatsDeterministic(t *testing.T) {
	for _, d := range []int{3, 6} {
		if testing.Short() && d > 5 {
			continue
		}
		for _, plan := range deliveryOnlyPlans(d) {
			cfg := Config{Seed: int64(d) * 89, MaxLatency: 250 * time.Microsecond, Faults: plan}
			a, b := RunClean(d, cfg), RunClean(d, cfg)
			if a != b {
				t.Errorf("d=%d plan=%s: clean-engine stats differ across reruns:\n%+v\n%+v", d, plan.Name, a, b)
			}
		}
	}
}

// TestCleanRejectsHostCrashPlans pins the engine-config contract: the
// coordinated engine, whose protocol state rides the messages, must
// refuse crash and cascade plans loudly instead of running them wrong.
func TestCleanRejectsHostCrashPlans(t *testing.T) {
	plan := &faults.Plan{Name: "bad", Seed: 1, Faults: []faults.Fault{
		{Kind: faults.HostCrash, Target: faults.LinkTarget(0, 1), At: 1},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a host-crash plan for the clean engine")
		}
	}()
	RunClean(3, Config{Seed: 1, Faults: plan})
}

// TestEnginesRejectOutOfRangeTargets is the regression test for the
// silently-inert-fault bug: a link target naming a host outside 2^d
// must be rejected at engine-config time by all three engines, not
// compiled into a trigger that never fires.
func TestEnginesRejectOutOfRangeTargets(t *testing.T) {
	plan := &faults.Plan{Name: "oob", Seed: 1, Faults: []faults.Fault{
		{Kind: faults.LinkDrop, Target: faults.LinkTarget(8, 9), At: 1},
	}}
	runs := map[string]func(){
		"visibility": func() { Run(3, Config{Seed: 1, Faults: plan}) },
		"cloning":    func() { RunCloning(3, Config{Seed: 1, Faults: plan}) },
		"clean":      func() { RunClean(3, Config{Seed: 1, Faults: plan}) },
	}
	for name, run := range runs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range link target was accepted silently", name)
				}
			}()
			run()
		}()
	}
}

// TestPartitionAndCascadeWireAccounting pins the new deterministic
// counters at the engine level: the islanded homebase parks a known
// set of frames and bills their heal time, and the cascade fires its
// primary plus every victim.
func TestPartitionAndCascadeWireAccounting(t *testing.T) {
	d := 4
	plans := netsimFaultPlans(d)

	islanded := plans[5]
	s := Run(d, Config{Seed: 5, Faults: islanded})
	if s.Link.Partitioned == 0 {
		t.Errorf("homebase-islanded parked no frames: %+v", s.Link)
	}
	if want := s.Link.Partitioned * 600; s.Link.WireTime != want {
		t.Errorf("islanded WireTime = %d, want Partitioned×600 = %d (%+v)", s.Link.WireTime, want, s.Link)
	}

	cascade := plans[6]
	s = Run(d, Config{Seed: 5, Faults: cascade})
	if s.Link.Crashes != 1 {
		t.Errorf("crash-cascade fired %d primary crashes, want 1 (%+v)", s.Link.Crashes, s.Link)
	}
	if want := int64(len(cascadeVictims(d))); s.Link.Cascades != want {
		t.Errorf("crash-cascade fired %d secondary crashes, want %d (%+v)", s.Link.Cascades, want, s.Link)
	}
}
