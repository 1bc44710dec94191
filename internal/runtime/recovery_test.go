package runtime

import (
	"testing"
	"time"

	"hypersearch/internal/faults"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/invariant"
	"hypersearch/internal/strategy"
	"hypersearch/internal/strategy/coordinated"
	"hypersearch/internal/strategy/visibility"
)

// Fast watchdog knobs for tests: crash detection costs one TTL, so the
// tests shrink it (while keeping it far above the heartbeat period, as
// the spurious-fencing guard requires).
func testCfg(seed int64, plan *faults.Plan) Config {
	return Config{
		Seed:           seed,
		MaxLatency:     100 * time.Microsecond,
		Faults:         plan,
		Record:         true,
		HeartbeatEvery: time.Millisecond,
		LeaseTTL:       80 * time.Millisecond,
		FaultUnit:      10 * time.Microsecond,
	}
}

func checkTrace(t *testing.T, rep Report, d int) {
	t.Helper()
	if rep.Log == nil {
		t.Fatal("Record was set but the report carries no trace")
	}
	ir, err := invariant.Check(rep.Log, hypercube.New(d), 0)
	if err != nil {
		t.Fatalf("invariant.Check: %v", err)
	}
	if !ir.Ok() {
		t.Fatalf("trace violates invariants: %s %v", ir, ir.Violations)
	}
}

// A fault-free run must complete the search with exactly the DES's
// cleaner and synchronizer traffic: the recovery machinery (ledger,
// checkpoints) may cost time, never moves.
func TestCleanFTFaultFreeParity(t *testing.T) {
	for d := 0; d <= 4; d++ {
		rep, err := RunClean(d, testCfg(11, nil))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !rep.Result.Ok() {
			t.Fatalf("d=%d: run failed invariants: %+v", d, rep.Result)
		}
		if rep.Crashes != 0 || rep.Reassigned != 0 || rep.Reelections != 0 || rep.SparesUsed != 0 {
			t.Fatalf("d=%d: fault-free run reports recovery activity: %+v", d, rep)
		}
		ref, _ := coordinated.Run(d, strategy.Options{})
		if rep.Result.AgentMoves != ref.AgentMoves || rep.Result.SyncMoves != ref.SyncMoves {
			t.Errorf("d=%d: cleaner/synchronizer moves %d/%d, DES %d/%d",
				d, rep.Result.AgentMoves, rep.Result.SyncMoves, ref.AgentMoves, ref.SyncMoves)
		}
		checkTrace(t, rep, d)
	}
}

// A crashed cleaner's walk must be reconstructed from the order ledger
// and finished by a spare, without recontaminating a single node.
func TestCleanFTCleanerCrashRecovery(t *testing.T) {
	plan := &faults.Plan{Name: "cleaner-crash", Seed: 7, Faults: []faults.Fault{
		{Kind: faults.Crash, Target: "order:p0.e1", At: 1},
	}}
	rep, err := RunClean(3, testCfg(7, plan))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Ok() {
		t.Fatalf("search did not complete cleanly: %+v", rep.Result)
	}
	if rep.Result.Recontaminations != 0 {
		t.Fatalf("recovery recontaminated %d times", rep.Result.Recontaminations)
	}
	if rep.Crashes != 1 || rep.Reassigned != 1 || rep.SparesUsed != 1 || rep.Reelections != 0 {
		t.Fatalf("unexpected recovery stats: %+v", rep)
	}
	checkTrace(t, rep, 3)
}

// A crashed synchronizer must trigger a CAS re-election among the
// spares, and the winner must resume from the whiteboard checkpoint.
// Phase 0 takes the synchronizer's first 2d moves and move 2d+1 walks
// it to node 1, so move 2d+2 crashes it on node 1's first escort round
// trip, inside the level-1 walk.
func TestCleanFTSynchronizerReelection(t *testing.T) {
	const d = 3
	plan := &faults.Plan{Name: "sync-crash", Seed: 7, Faults: []faults.Fault{
		{Kind: faults.Crash, Target: faults.TargetSync, At: 2*d + 2},
	}}
	rep, err := RunClean(d, testCfg(7, plan))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Ok() {
		t.Fatalf("search did not complete cleanly: %+v", rep.Result)
	}
	if rep.Crashes != 1 || rep.Reelections != 1 || rep.SparesUsed != 1 {
		t.Fatalf("unexpected recovery stats: %+v", rep)
	}
	checkTrace(t, rep, d)
}

// Delay faults (stall, spike, starvation, lost wakeups) cost time but
// must never change which moves happen.
func TestCleanFTDelayFaultsMovePreserving(t *testing.T) {
	plan := &faults.Plan{Name: "delays", Seed: 3, Faults: []faults.Fault{
		{Kind: faults.Stall, Target: faults.TargetSync, At: 3, Delay: 40},
		{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 5, Until: 15, Delay: 10},
		{Kind: faults.LockStarve, Target: faults.TargetAny, At: 8, Delay: 30},
		{Kind: faults.LostWakeup, At: 2, Until: 20},
	}}
	faulted, err := RunClean(3, testCfg(3, plan))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunClean(3, testCfg(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !faulted.Result.Ok() {
		t.Fatalf("faulted run failed: %+v", faulted.Result)
	}
	if faulted.Result.TotalMoves != clean.Result.TotalMoves {
		t.Errorf("delay faults changed the move count: %d vs %d", faulted.Result.TotalMoves, clean.Result.TotalMoves)
	}
	if faulted.Crashes != 0 || faulted.SparesUsed != 0 {
		t.Errorf("delay-only plan triggered recovery: %+v", faulted)
	}
	checkTrace(t, faulted, 3)
}

// Reruns of the same seed and plan must agree on every move count and
// every recovery statistic — the determinism contract of the harness.
func TestCleanFTDeterministicReruns(t *testing.T) {
	plan := &faults.Plan{Name: "mixed", Seed: 5, Faults: []faults.Fault{
		{Kind: faults.Crash, Target: "order:p0.e0", At: 1},
		{Kind: faults.Crash, Target: faults.TargetSync, At: 7},
		{Kind: faults.Stall, Target: faults.TargetAny, At: 11, Delay: 25},
		{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 4, Until: 9, Delay: 8},
		{Kind: faults.LostWakeup, At: 3, Until: 12},
	}}
	type fingerprint struct {
		total, agent, sync                       int64
		crashes, reassigned, reelections, spares int
	}
	var runs []fingerprint
	for i := 0; i < 3; i++ {
		rep, err := RunClean(3, testCfg(5, plan))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Ok() {
			t.Fatalf("run %d failed: %+v", i, rep.Result)
		}
		checkTrace(t, rep, 3)
		runs = append(runs, fingerprint{
			rep.Result.TotalMoves, rep.Result.AgentMoves, rep.Result.SyncMoves,
			rep.Crashes, rep.Reassigned, rep.Reelections, rep.SparesUsed,
		})
	}
	for i := 1; i < len(runs); i++ {
		if runs[i] != runs[0] {
			t.Fatalf("rerun %d diverged: %+v vs %+v", i, runs[i], runs[0])
		}
	}
}

// Crash plans must be rejected by engines that cannot recover from
// them, with an error pointing at the crash-tolerant runtime.
func TestVisibilityFTRejectsCrashPlans(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Faults: []faults.Fault{
		{Kind: faults.Crash, Target: faults.TargetSync, At: 1},
	}}
	if _, err := RunVisibility(3, testCfg(1, plan)); err == nil {
		t.Fatal("RunVisibility accepted a crash plan")
	}
}

// The visibility runtime under a barrage of lost wakeups must still
// finish (the re-broadcaster heals liveness) with exactly the DES's
// traffic.
func TestVisibilityFTLostWakeups(t *testing.T) {
	plan := &faults.Plan{Name: "lost-wakeups", Seed: 9, Faults: []faults.Fault{
		{Kind: faults.LostWakeup, At: 1, Until: 100},
	}}
	rep, err := RunVisibility(3, testCfg(9, plan))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Ok() {
		t.Fatalf("run failed: %+v", rep.Result)
	}
	ref, _ := visibility.Run(3, strategy.Options{})
	if rep.Result.AgentMoves != ref.AgentMoves {
		t.Errorf("lost wakeups changed the move count: %d vs DES %d", rep.Result.AgentMoves, ref.AgentMoves)
	}
	checkTrace(t, rep, 3)
}

// A gap between lease samples longer than the TTL is a stall of the
// whole process, heartbeats included, and must fence nobody; silence
// the watchdog actually watches for a TTL still fences.
func TestLeaseSilenceIgnoresProcessStalls(t *testing.T) {
	cfg := testCfg(1, nil).withDefaults()
	w := newWorld(2, cfg, nil)
	w.initAgents(2, 2)
	seen := make([]lease, 2)
	w.sampleLeases(seen, time.Hour)
	if w.dead[0] || w.dead[1] {
		t.Fatalf("a stall fenced live agents: dead=%v", w.dead)
	}
	// Agent 0 keeps heartbeating; agent 1 has gone silent.
	for n := int64(1); !w.dead[1]; n++ {
		if time.Duration(n)*cfg.HeartbeatEvery > 2*cfg.LeaseTTL {
			t.Fatal("a lease silent for twice the TTL was never fenced")
		}
		w.wb.At(0).Write(w.fLease[0], n)
		w.sampleLeases(seen, cfg.HeartbeatEvery)
	}
	if w.dead[0] {
		t.Error("a heartbeating agent was fenced")
	}
}

// Seed sensitivity: the derived per-agent streams must actually depend
// on the root seed (a regression guard for the seed plumbing).
func TestDeriveSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for root := int64(0); root < 8; root++ {
		for stream := uint64(0); stream < 8; stream++ {
			s := deriveSeed(root, stream)
			if seen[s] {
				t.Fatalf("deriveSeed collision at root=%d stream=%d", root, stream)
			}
			seen[s] = true
		}
	}
}
