package runtime

import (
	"testing"
	"time"

	"hypersearch/internal/faults"
)

// FuzzFaultApplication drives RunClean with fuzzer-shaped fault
// plans: whatever combination of crashes, stalls, spikes, starvation
// and lost wakeups comes out, the engine must neither panic nor wedge
// — every run completes the search. Plans are built from the raw bytes
// rather than parsed JSON so the fuzzer explores fault-space, not
// JSON-space (FuzzParse in internal/faults covers that side).
func FuzzFaultApplication(f *testing.F) {
	f.Add(int64(1), byte(0), byte(1), byte(2), byte(3))
	f.Add(int64(2), byte(4), byte(9), byte(0), byte(200))
	f.Add(int64(3), byte(255), byte(128), byte(64), byte(32))
	f.Add(int64(-7), byte(17), byte(5), byte(250), byte(7))

	// The deterministic crashable order keys of a d=2 CLEAN run.
	orderKeys := []string{"p0.e0", "p0.e1", "w1.x1.home", "w1.x2.home"}

	f.Fuzz(func(t *testing.T, seed int64, a, b, c, d byte) {
		var fs []faults.Fault
		if a%4 != 0 { // crash a worker order at edge 1 or 2
			fs = append(fs, faults.Fault{
				Kind:   faults.Crash,
				Target: "order:" + orderKeys[int(a)%len(orderKeys)],
				At:     1 + int(a%2),
			})
		}
		if b%3 == 0 { // crash the synchronizer somewhere early
			fs = append(fs, faults.Fault{Kind: faults.Crash, Target: faults.TargetSync, At: 1 + int(b%5)})
		}
		if c%2 == 0 {
			fs = append(fs, faults.Fault{Kind: faults.Stall, Target: faults.TargetAny, At: 1 + int(c%7), Delay: 1 + int64(c)})
			fs = append(fs, faults.Fault{Kind: faults.LockStarve, Target: faults.TargetAny, At: 1 + int(c%5), Delay: 1 + int64(c%50)})
		}
		if d%2 == 0 {
			fs = append(fs, faults.Fault{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 1 + int(d%6), Until: 1 + int(d%6) + int(d%9), Delay: 1 + int64(d%30)})
		}
		fs = append(fs, faults.Fault{Kind: faults.LostWakeup, At: 1 + int(d%3), Until: 1 + int(d%3) + int(a%20)})

		plan := &faults.Plan{Name: "fuzz", Seed: seed, Faults: fs}
		if err := plan.Validate(); err != nil {
			t.Fatalf("fuzz built an invalid plan: %v", err)
		}
		rep, err := RunClean(2, Config{
			Seed:           seed,
			Faults:         plan,
			Record:         true,
			HeartbeatEvery: 500 * time.Microsecond,
			LeaseTTL:       40 * time.Millisecond,
			FaultUnit:      -1, // swallow all injected sleeps: fuzz wants throughput
		})
		if err != nil {
			t.Fatalf("RunClean: %v", err)
		}
		if !rep.Result.Captured {
			t.Fatalf("engine wedged or gave up: %+v", rep.Result)
		}
		if !rep.Result.MonotoneOK || !rep.Result.ContiguousOK {
			t.Fatalf("invariants broken under fuzzed faults: %+v", rep.Result)
		}
		if rep.Crashes > 0 && rep.SparesUsed == 0 && rep.Reassigned+rep.Reelections > 0 {
			t.Fatalf("recovery happened without drafting spares: %+v", rep)
		}
	})
}
