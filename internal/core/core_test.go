package core

import (
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/faults"
	"hypersearch/internal/strategy"
	"hypersearch/internal/trace"
)

func TestRunAllStrategiesDES(t *testing.T) {
	for _, name := range []string{Clean, Visibility, Cloning, Synchronous} {
		res, env, err := Run(Spec{Strategy: name, Dim: 5, CheckEveryMove: true, Record: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Ok() {
			t.Errorf("%s: %s", name, res.String())
		}
		if env == nil || env.Log() == nil {
			t.Errorf("%s: missing env/trace", name)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	res, _, err := Run(Spec{Strategy: NaiveDFS, Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Captured {
		t.Error("naive DFS should fail capture")
	}
	res, _, err = Run(Spec{Strategy: NaiveConvoy, Dim: 4, ConvoyTeam: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TeamSize != 3 {
		t.Errorf("convoy team = %d", res.TeamSize)
	}
}

func TestRunGoroutineEngine(t *testing.T) {
	for _, name := range []string{Clean, Visibility} {
		res, env, err := Run(Spec{Strategy: name, Dim: 4, Engine: EngineGoroutines, Seed: 7, AdversarialLatency: 20})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Ok() {
			t.Errorf("%s: %s", name, res.String())
		}
		if env != nil {
			t.Errorf("%s: goroutine engine should not return an env", name)
		}
	}
}

func TestRunNetworkEngine(t *testing.T) {
	res, env, err := Run(Spec{Strategy: Visibility, Dim: 5, Engine: EngineNetwork, Seed: 2, AdversarialLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || env != nil {
		t.Errorf("network engine: %s env=%v", res.String(), env)
	}
	if res.TotalMoves != combin.VisibilityMoves(5) {
		t.Errorf("moves %d", res.TotalMoves)
	}
	resc, _, err := Run(Spec{Strategy: Clean, Dim: 4, Engine: EngineNetwork, Seed: 5, AdversarialLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !resc.Ok() || int64(resc.TeamSize) != combin.CleanTeamSize(4) {
		t.Errorf("network CLEAN: %s", resc.String())
	}
	resk, _, err := Run(Spec{Strategy: Cloning, Dim: 4, Engine: EngineNetwork, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !resk.Ok() || resk.TotalMoves != combin.CloningMoves(4) {
		t.Errorf("network cloning: %s", resk.String())
	}
	if _, _, err := Run(Spec{Strategy: Synchronous, Dim: 4, Engine: EngineNetwork}); err == nil {
		t.Error("network engine should reject unsupported strategies")
	}
}

func TestRunAdversarialDES(t *testing.T) {
	res, _, err := Run(Spec{Strategy: Visibility, Dim: 5, AdversarialLatency: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || res.TotalMoves != combin.VisibilityMoves(5) {
		t.Errorf("%s", res.String())
	}
	if res.Makespan < 5 {
		t.Errorf("adversarial makespan %d below d", res.Makespan)
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := Run(Spec{Strategy: "nope", Dim: 3}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, _, err := Run(Spec{Strategy: Clean, Dim: 3, Engine: "quantum"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, _, err := Run(Spec{Strategy: Clean, Dim: -1}); err == nil {
		t.Error("negative dimension accepted")
	}
	// Out-of-range dimensions are errors on every engine and through
	// both entry points, never a panic deep in the topology or an
	// attempt to start 2^25 network hosts.
	for _, spec := range []Spec{
		{Strategy: Clean, Dim: bits.MaxDim + 1},
		{Strategy: Visibility, Dim: bits.MaxDim + 1, Engine: EngineDES},
		{Strategy: Clean, Dim: bits.MaxDim + 1, Engine: EngineGoroutines},
		{Strategy: Visibility, Dim: bits.MaxDim + 1, Engine: EngineNetwork},
		{Strategy: Visibility, Dim: maxNetworkDim + 1, Engine: EngineNetwork},
		{Strategy: Clean, Dim: -1, Engine: EngineNetwork},
	} {
		if _, _, err := Run(spec); err == nil {
			t.Errorf("Run accepted d=%d on engine %q", spec.Dim, spec.Engine)
		}
		if _, _, err := RunWith(spec, strategy.Fresh{}); err == nil {
			t.Errorf("RunWith accepted d=%d on engine %q", spec.Dim, spec.Engine)
		}
	}
	if _, _, err := Run(Spec{Strategy: Cloning, Dim: 3, Engine: EngineGoroutines}); err == nil {
		t.Error("cloning has no goroutine engine but was accepted")
	}
	// An unknown strategy is rejected before a 2^24-node environment
	// is built for it.
	typo := Spec{Strategy: "no-such-strategy", Dim: 24}
	for name, run := range map[string]func() error{
		"Run":     func() error { _, _, err := Run(typo); return err },
		"RunWith": func() error { _, _, err := RunWith(typo, strategy.Fresh{}); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted an unknown strategy", name)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("%s allocated %d bytes before rejecting an unknown strategy, want < 1 MiB", name, b)
		}
	}
	// A kernel-lag window ending at the clock's limit is an error, not
	// an overflow panic at the first move after it.
	lag := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.KernelLag, From: 0, To: math.MaxInt64}}}
	if _, _, err := Run(Spec{Strategy: Visibility, Dim: 3, Faults: lag}); err == nil {
		t.Error("kernel-lag window ending at math.MaxInt64 accepted")
	}
	// A plan whose faults the engine never fires is an error, not a
	// fault-free run under the plan's name: the network engine injects
	// only link faults, and no DES strategy broadcasts wakeups.
	stall := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.Stall, Target: faults.TargetAny, At: 3, Delay: 5}}}
	crash := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.Crash, Target: faults.TargetSync, At: 1}}}
	lost := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.LostWakeup, At: 1, Until: 200}}}
	for _, spec := range []Spec{
		{Strategy: Visibility, Dim: 3, Engine: EngineNetwork, Faults: stall},
		{Strategy: Visibility, Dim: 3, Engine: EngineNetwork, Faults: crash},
		{Strategy: Clean, Dim: 5, Faults: lost},
		{Strategy: Visibility, Dim: 5, AdversarialLatency: 13, Faults: lost},
		{Strategy: Cloning, Dim: 5, Engine: EngineDES, Faults: lost},
	} {
		if _, _, err := Run(spec); err == nil {
			t.Errorf("%s on engine %q accepted plan %v, whose faults it never fires", spec.Strategy, spec.Engine, spec.Faults.Faults[0].Kind)
		}
	}
	// DES moves carry no order key, so a delay aimed at an order never
	// fires: the DES rejects stall, latency-spike and lock-starve faults
	// with an order target instead of returning the fault-free result.
	orderStall := &faults.Plan{Seed: 1, Faults: []faults.Fault{
		{Kind: faults.Stall, Target: "order:p0.e1", At: 1, Delay: 50},
		{Kind: faults.LatencySpike, Target: "order:p0.e1", At: 1, Until: 9, Delay: 9},
	}}
	orderStarve := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.LockStarve, Target: "order:p0.e1", At: 2, Delay: 7}}}
	for _, spec := range []Spec{
		{Strategy: Clean, Dim: 5, Faults: orderStall},
		{Strategy: Visibility, Dim: 5, Faults: orderStall},
		{Strategy: Cloning, Dim: 5, Faults: orderStall},
		{Strategy: NaiveDFS, Dim: 3, AdversarialLatency: 13, Faults: orderStarve},
	} {
		if _, _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "order key") {
			t.Errorf("%s accepted order-targeted %v faults, which never fire on the DES (err %v)", spec.Strategy, spec.Faults.Faults[0].Kind, err)
		}
	}
	// Record and Stream are errors on the engines that keep no trace,
	// not flags silently ignored.
	for _, spec := range []Spec{
		{Strategy: Clean, Dim: 4, Engine: EngineGoroutines, Record: true},
		{Strategy: Visibility, Dim: 4, Engine: EngineNetwork, Record: true},
		{Strategy: Clean, Dim: 4, Engine: EngineGoroutines, Stream: trace.NewStream(io.Discard)},
		{Strategy: Cloning, Dim: 4, Engine: EngineNetwork, Stream: trace.NewStream(io.Discard)},
	} {
		if _, _, err := Run(spec); err == nil {
			t.Errorf("%s on engine %q accepted Record=%v Stream=%v but keeps no trace", spec.Strategy, spec.Engine, spec.Record, spec.Stream != nil)
		}
	}
}

// TestVisibilityDimLimit: DES visibility and its cloning and
// synchronous variants admit dimensions up to their engine's limit and
// reject the rest before building anything. It calls only Check: a Run
// at d = 28 would first build a 2^28-node environment.
func TestVisibilityDimLimit(t *testing.T) {
	for _, name := range []string{Visibility, Cloning, Synchronous} {
		if err := Check(Spec{Strategy: name, Dim: 27}); err != nil {
			t.Errorf("%s: d=27 rejected: %v", name, err)
		}
		for _, d := range []int{28, 30} {
			err := Check(Spec{Strategy: name, Dim: d})
			if err == nil || !strings.Contains(err.Error(), "[0,27]") {
				t.Errorf("%s: d=%d: err %v, want a rejection naming the limit 27", name, d, err)
			}
		}
	}
}

func TestStrategiesList(t *testing.T) {
	names := Strategies()
	if len(names) != 6 {
		t.Errorf("strategies = %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate %q", n)
		}
		seen[n] = true
	}
}

// Cross-strategy integration: the headline trade-off of the paper.
func TestTradeoffShape(t *testing.T) {
	const d = 8
	clean, _, _ := Run(Spec{Strategy: Clean, Dim: d})
	vis, _, _ := Run(Spec{Strategy: Visibility, Dim: d})
	if clean.TeamSize >= vis.TeamSize {
		t.Errorf("CLEAN should use fewer agents: %d vs %d", clean.TeamSize, vis.TeamSize)
	}
	if clean.Makespan <= vis.Makespan {
		t.Errorf("CLEAN should be slower: %d vs %d", clean.Makespan, vis.Makespan)
	}
	clone, _, _ := Run(Spec{Strategy: Cloning, Dim: d})
	if clone.TotalMoves >= vis.TotalMoves {
		t.Errorf("cloning should move less: %d vs %d", clone.TotalMoves, vis.TotalMoves)
	}
}
