// Command hqfaults runs the deterministic fault-injection campaign:
// declarative named fault scenarios executed against the
// crash-tolerant goroutine runtime, the discrete-event engine, and —
// with wire-level link faults — the message-passing netsim engine,
// each checked against its fault-free baseline (runtime scenarios by
// the trace-replay invariant verifier; netsim scenarios by the
// engine's validator replay, whose agreement with the single-mutex
// reference validator the netsim tests check event by event).
//
// Usage:
//
//	hqfaults                           # run both families on H_4
//	hqfaults -d 5                      # bigger cube
//	hqfaults -family netsim            # only the wire-fault scenarios
//	hqfaults -scenarios list           # print every scenario name
//	hqfaults -scenarios crash-cascade  # rerun one scenario by name
//	hqfaults -verify                   # run twice, require byte-identical reports
//
// The report is deliberately built only from deterministic quantities
// (move counts, logical/virtual times, recovery statistics, and the
// wire layer's frame/drop/retransmit/dup/crash/partition/cascade
// counters plus the logical WireTime recovery bill), so two runs of
// the same campaign produce byte-identical output; -verify enforces
// that.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hypersearch/internal/core"
	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/invariant"
	"hypersearch/internal/metrics"
	"hypersearch/internal/netarena"
	"hypersearch/internal/netsim"
	"hypersearch/internal/runtime"
	"hypersearch/internal/sched"
	"hypersearch/internal/strategy"
	"hypersearch/internal/suggest"
	"hypersearch/internal/trace"
)

// Scenario families selectable with -family.
const (
	familyAll     = "all"
	familyRuntime = "runtime"
	familyNetsim  = "netsim"
)

// Engines a scenario can run on. The scenarios on the three netsim
// engines form the netsim family, the rest the runtime family.
const (
	engineCleanFT = "clean-ft"  // crash-tolerant coordinated goroutine runtime
	engineVisFT   = "vis-ft"    // fault-injected visibility goroutine runtime
	engineDES     = "des-clean" // discrete-event CLEAN with kernel interception

	engineNetsimVis   = "netsim-vis"   // visibility: full complements down the broadcast tree
	engineNetsimClone = "netsim-clone" // cloning: one agent per tree edge
	engineNetsimClean = "netsim-clean" // coordinated: delivery faults only (no host crashes)
)

// netsimStrategies maps each netsim engine label to the strategy it
// runs on the network engine.
var netsimStrategies = map[string]string{
	engineNetsimVis:   core.Visibility,
	engineNetsimClone: core.Cloning,
	engineNetsimClean: core.Clean,
}

// scenario is one named entry of the declarative campaign.
type scenario struct {
	name   string
	engine string
	plan   func(d int) *faults.Plan
}

// family is the scenario family its engine belongs to.
func (s scenario) family() string {
	if _, ok := netsimStrategies[s.engine]; ok {
		return familyNetsim
	}
	return familyRuntime
}

// campaign returns the named scenarios of both families, runtime
// first, every one seeded and deterministic. Runtime crash targets use
// the schedule-independent trigger counters: the synchronizer's own
// move sequence and per-order edge sequences (phase-0 escort keys
// p0.e<i> exist for every d >= 2). The wire-fault scenarios are
// expressed against the concrete broadcast-tree links of H_d. Frame
// numbering per link is fixed by the host program order: on a
// parent->child tree link the guarded beacon is frame 1 and agent
// dispatches follow; on a pure dependency link the beacon is the only
// frame. Triggers count those sequence numbers, so every plan is
// deterministic by construction.
func campaign() []scenario {
	return []scenario{
		{"cleaner-crash", engineCleanFT, func(d int) *faults.Plan {
			return &faults.Plan{Name: "cleaner-crash", Seed: 101, Faults: []faults.Fault{
				{Kind: faults.Crash, Target: "order:p0.e1", At: 1},
			}}
		}},
		{"synchronizer-crash", engineCleanFT, func(d int) *faults.Plan {
			// Phase 0 takes the synchronizer's first 2d moves (an escort
			// round trip per root child) and move 2d+1 walks it to node
			// 1, so move 2d+2 crashes it on node 1's first escort round
			// trip, inside the level-1 walk, at every d >= 2.
			return &faults.Plan{Name: "synchronizer-crash", Seed: 102, Faults: []faults.Fault{
				{Kind: faults.Crash, Target: faults.TargetSync, At: 2*d + 2},
			}}
		}},
		{"cleaner-stall", engineCleanFT, func(d int) *faults.Plan {
			return &faults.Plan{Name: "cleaner-stall", Seed: 103, Faults: []faults.Fault{
				{Kind: faults.Stall, Target: faults.TargetAny, At: 5, Delay: 200},
				{Kind: faults.Stall, Target: faults.TargetSync, At: 3, Delay: 120},
			}}
		}},
		{"latency-spike", engineDES, func(d int) *faults.Plan {
			return &faults.Plan{Name: "latency-spike", Seed: 104, Faults: []faults.Fault{
				{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 10, Until: 60, Delay: 25},
				{Kind: faults.KernelLag, From: 20, To: 60},
			}}
		}},
		{"lock-starvation", engineVisFT, func(d int) *faults.Plan {
			return &faults.Plan{Name: "lock-starvation", Seed: 105, Faults: []faults.Fault{
				{Kind: faults.LockStarve, Target: faults.TargetAny, At: 6, Delay: 150},
				{Kind: faults.LockStarve, Target: faults.TargetAny, At: 11, Delay: 150},
			}}
		}},
		{"lost-wakeup", engineVisFT, func(d int) *faults.Plan {
			return &faults.Plan{Name: "lost-wakeup", Seed: 106, Faults: []faults.Fault{
				{Kind: faults.LostWakeup, At: 1, Until: 200},
			}}
		}},
		{"mixed", engineCleanFT, func(d int) *faults.Plan {
			// Synchronizer move 2d-1 walks to the last root child: this
			// crash lands in phase 0, the synchronizer-crash scenario's
			// in the level walk.
			return &faults.Plan{Name: "mixed", Seed: 107, Faults: []faults.Fault{
				{Kind: faults.Crash, Target: "order:p0.e0", At: 1},
				{Kind: faults.Crash, Target: faults.TargetSync, At: 2*d - 1},
				{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 4, Until: 20, Delay: 10},
				{Kind: faults.Stall, Target: faults.TargetAny, At: 12, Delay: 80},
				{Kind: faults.LostWakeup, At: 3, Until: 15},
			}}
		}},
		{"lossy-links", engineNetsimVis, func(d int) *faults.Plan {
			bt := heapqueue.New(d)
			c0 := bt.Children(0)[0]
			p := &faults.Plan{Name: "lossy-links", Seed: 201, Faults: []faults.Fault{
				{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, c0), At: 1, Until: 8, Times: 2},
			}}
			if gcs := bt.Children(c0); len(gcs) > 0 {
				p.Faults = append(p.Faults, faults.Fault{
					Kind: faults.LinkDrop, Target: faults.LinkTarget(c0, gcs[0]), At: 1, Until: 4, Times: 1,
				})
			}
			return p
		}},
		{"dup-storm", engineNetsimVis, func(d int) *faults.Plan {
			bt := heapqueue.New(d)
			c0 := bt.Children(0)[0]
			p := &faults.Plan{Name: "dup-storm", Seed: 202, Faults: []faults.Fault{
				{Kind: faults.LinkDup, Target: faults.LinkTarget(0, c0), At: 1, Until: 16},
				{Kind: faults.LinkDelay, Target: faults.LinkTarget(0, c0), At: 2, Until: 5, Delay: 400},
			}}
			if gcs := bt.Children(c0); len(gcs) > 0 {
				p.Faults = append(p.Faults, faults.Fault{
					Kind: faults.LinkDup, Target: faults.LinkTarget(c0, gcs[0]), At: 1, Until: 8,
				})
			}
			return p
		}},
		{"beacon-blackout", engineNetsimVis, func(d int) *faults.Plan {
			// All of the last node's neighbours are smaller, so every
			// link into it opens with a beacon: swallow them all and
			// let the ARQ re-deliver the bits.
			h := hypercube.New(d)
			p := &faults.Plan{Name: "beacon-blackout", Seed: 203}
			last := h.Order() - 1
			for _, u := range h.SmallerNeighbours(last) {
				p.Faults = append(p.Faults, faults.Fault{
					Kind: faults.LinkDrop, Target: faults.LinkTarget(u, last), At: 1, Times: 3,
				})
			}
			return p
		}},
		{"host-crash", engineNetsimVis, func(d int) *faults.Plan {
			// Frame 2 on the root's first tree link is the first agent
			// dispatch: the child crashes mid-gather, loses its soft
			// state, and rebuilds from the order-ledger replay.
			bt := heapqueue.New(d)
			c0 := bt.Children(0)[0]
			return &faults.Plan{Name: "host-crash", Seed: 204, Faults: []faults.Fault{
				{Kind: faults.HostCrash, Target: faults.LinkTarget(0, c0), At: 2},
			}}
		}},
		{"clone-mixed", engineNetsimClone, func(d int) *faults.Plan {
			bt := heapqueue.New(d)
			c0 := bt.Children(0)[0]
			return &faults.Plan{Name: "clone-mixed", Seed: 205, Faults: []faults.Fault{
				{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, c0), At: 1, Until: 2, Times: 2},
				{Kind: faults.LinkDup, Target: faults.LinkTarget(0, c0), At: 1, Until: 2},
				{Kind: faults.HostCrash, Target: faults.LinkTarget(0, c0), At: 2},
			}}
		}},
		{"homebase-islanded", engineNetsimVis, func(d int) *faults.Plan {
			// The partition severs every link incident to the homebase
			// mid-sweep: the boot beacon and the first dispatches on each
			// outgoing link are parked in the cut and released in
			// per-link order when it heals 600 logical units later. The
			// run must land on the fault-free move and message counts
			// with the heal window as its only Δtime bill.
			return &faults.Plan{Name: "homebase-islanded", Seed: 206, Faults: []faults.Fault{
				{Kind: faults.Partition, Target: faults.LinksTarget(faults.IslandLinks(0, d)),
					At: 1, Until: 3, Delay: 600},
			}}
		}},
		{"crash-cascade", engineNetsimVis, func(d int) *faults.Plan {
			// Host 1 is single-fed (its only smaller neighbour is the
			// root), so its ledger holds exactly 2 entries when frame 2
			// fires: threshold 2 trips deterministically and the
			// recovery load crashes its larger neighbours too.
			victims := []int{3}
			if d >= 3 {
				victims = append(victims, 5)
			}
			return &faults.Plan{Name: "crash-cascade", Seed: 207, Faults: []faults.Fault{
				{Kind: faults.Cascade, Target: faults.LinkTarget(0, 1), At: 2,
					Threshold: 2, Victims: victims},
			}}
		}},
		{"clean-cut", engineNetsimClean, func(d int) *faults.Plan {
			// The coordinated engine under a dimension-1 subcube cut plus
			// frame loss: couriers and the synchronizer park in the cut
			// and the ARQ re-delivers the dropped hop, with the whole
			// recovery billed to WireTime.
			return &faults.Plan{Name: "clean-cut", Seed: 208, Faults: []faults.Fault{
				{Kind: faults.Partition, Target: faults.CutDimTarget(1), At: 1, Until: 2, Delay: 500},
				{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, 2), At: 1, Until: 2, Times: 2},
			}}
		}},
	}
}

// outcome collects the deterministic facts of one scenario run.
type outcome struct {
	name, engine string

	moves  int64 // total board moves
	dMoves int64 // overhead vs the engine's fault-free baseline
	mkspan int64 // logical (goroutines) or virtual (DES) completion time
	dTime  int64

	crashes, reassigned, reelections, spares int

	invariant string // "ok" or the first violation
	pass      bool
}

// baseline is an engine's fault-free reference run.
type baseline struct {
	moves, mkspan int64
}

// runtimeConfig is the goroutine-runtime configuration of the campaign: a
// fixed scheduler seed, mild real latency, and a lease TTL short
// enough for a snappy CLI run yet still 60x the heartbeat.
func runtimeConfig(seed int64, plan *faults.Plan) runtime.Config {
	return runtime.Config{
		Seed:           seed,
		MaxLatency:     300 * time.Microsecond,
		Faults:         plan,
		Record:         true,
		HeartbeatEvery: 2 * time.Millisecond,
		LeaseTTL:       120 * time.Millisecond,
		FaultUnit:      50 * time.Microsecond,
	}
}

func checkLog(l *trace.Log, d int) string {
	rep, err := invariant.Check(l, hypercube.New(d), 0)
	if err != nil {
		return err.Error()
	}
	if !rep.Ok() {
		if len(rep.Violations) > 0 {
			return rep.Violations[0]
		}
		return rep.String()
	}
	return "ok"
}

func runRuntime(d int, engine string, plan *faults.Plan) (runtime.Report, error) {
	if engine == engineVisFT {
		return runtime.RunVisibility(d, runtimeConfig(7, plan))
	}
	return runtime.RunClean(d, runtimeConfig(7, plan))
}

// runDES runs the discrete-event CLEAN with every-move contiguity
// checks and a recorded trace.
func runDES(d int, plan *faults.Plan) (metrics.Result, *strategy.Env, error) {
	return core.Run(core.Spec{Strategy: core.Clean, Dim: d, CheckEveryMove: true, Record: true, Faults: plan})
}

func runScenario(d int, s scenario, bases map[string]baseline) outcome {
	o := outcome{name: s.name, engine: s.engine}
	plan := s.plan(d)
	switch s.engine {
	case engineDES:
		res, env, err := runDES(d, plan)
		if err != nil {
			o.invariant = err.Error()
			return o
		}
		o.moves, o.mkspan = res.TotalMoves, res.Makespan
		o.invariant = checkLog(env.Log(), d)
		o.pass = res.Ok() && o.invariant == "ok"
	default:
		rep, err := runRuntime(d, s.engine, plan)
		if err != nil {
			o.invariant = err.Error()
			return o
		}
		o.moves, o.mkspan = rep.Result.TotalMoves, rep.Log.Makespan()
		o.crashes, o.reassigned = rep.Crashes, rep.Reassigned
		o.reelections, o.spares = rep.Reelections, rep.SparesUsed
		o.invariant = checkLog(rep.Log, d)
		o.pass = rep.Result.Ok() && o.invariant == "ok"
		if plan.Crashes() != rep.Crashes {
			o.invariant = fmt.Sprintf("planned %d crashes, %d fired", plan.Crashes(), rep.Crashes)
			o.pass = false
		}
	}
	if b, ok := bases[s.engine]; ok {
		o.dMoves = o.moves - b.moves
		o.dTime = o.mkspan - b.mkspan
	}
	return o
}

// report renders the whole campaign deterministically.
func report(d int, bases map[string]baseline, outs []outcome) (string, bool) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault campaign on H_%d (%d nodes)\n\n", d, 1<<uint(d))
	fmt.Fprintf(&sb, "baselines (fault-free): ")
	for _, e := range []string{engineCleanFT, engineVisFT, engineDES} {
		b := bases[e]
		fmt.Fprintf(&sb, "%s moves=%d time=%d  ", e, b.moves, b.mkspan)
	}
	sb.WriteString("\n\n")

	t := metrics.NewTable("scenario", "engine", "moves", "Δmoves", "time", "Δtime",
		"crashes", "reassigned", "reelections", "spares", "invariants", "verdict")
	allPass := true
	for _, o := range outs {
		verdict := "PASS"
		if !o.pass {
			verdict = "FAIL"
			allPass = false
		}
		t.AddRow(o.name, o.engine, o.moves, fmt.Sprintf("%+d", o.dMoves), o.mkspan,
			fmt.Sprintf("%+d", o.dTime), o.crashes, o.reassigned, o.reelections,
			o.spares, o.invariant, verdict)
	}
	sb.WriteString(t.Markdown())
	if allPass {
		fmt.Fprintf(&sb, "\nall %d scenarios passed\n", len(outs))
	} else {
		sb.WriteString("\nCAMPAIGN FAILED\n")
	}
	return sb.String(), allPass
}

// netOutcome collects the deterministic facts of one wire-fault run.
type netOutcome struct {
	name, engine string

	moves, dMoves         int64
	agentMsgs, beaconMsgs int64
	frames, drops         int64
	retransmits, dups     int64
	crashes, cascades     int64
	partitioned           int64
	dTime                 int64 // logical recovery bill (WireTime; fault-free = 0)

	check string // "ok" or the first failed check
	pass  bool
}

// netBaseline is a netsim engine's fault-free reference run.
type netBaseline struct {
	moves, agentMsgs, beaconMsgs int64
}

func runNetsim(a *netarena.Arena, d int, engine string, plan *faults.Plan) netsim.Stats {
	spec := core.Spec{Strategy: netsimStrategies[engine], Dim: d, Engine: core.EngineNetwork,
		Seed: 7, AdversarialLatency: 300, Faults: plan}
	st, err := core.RunNetwork(spec, a)
	if err != nil {
		panic(err) // the campaign's plans carry only link faults
	}
	return st
}

// runNetScenario executes one wire-fault scenario: the run must
// terminate monotone, contiguous and all-clean with zero
// recontaminations, and recovery must leave the logical run unchanged
// against the fault-free baseline.
func runNetScenario(a *netarena.Arena, d int, s scenario, bases map[string]netBaseline) netOutcome {
	o := netOutcome{name: s.name, engine: s.engine}
	st := runNetsim(a, d, s.engine, s.plan(d))

	o.moves = st.TotalMoves
	o.agentMsgs, o.beaconMsgs = st.AgentMessages, st.BeaconMessages
	o.frames, o.drops = st.Link.Frames, st.Link.Drops
	o.retransmits, o.dups = st.Link.Retransmits, st.Link.Dups
	o.crashes, o.cascades = st.Link.Crashes, st.Link.Cascades
	o.partitioned = st.Link.Partitioned
	o.dTime = st.Link.WireTime // a fault-free wire bills zero

	o.check = "ok"
	switch b := bases[s.engine]; {
	case !st.Captured || !st.MonotoneOK || !st.ContiguousOK:
		o.check = fmt.Sprintf("not clean: captured=%v monotone=%v contiguous=%v",
			st.Captured, st.MonotoneOK, st.ContiguousOK)
	case st.Recontaminations != 0:
		o.check = fmt.Sprintf("%d recontaminations", st.Recontaminations)
	case st.AgentMessages != b.agentMsgs || st.BeaconMessages != b.beaconMsgs:
		o.check = fmt.Sprintf("recovery changed the wire: agents %d->%d beacons %d->%d",
			b.agentMsgs, st.AgentMessages, b.beaconMsgs, st.BeaconMessages)
	}
	o.dMoves = o.moves - bases[s.engine].moves
	o.pass = o.check == "ok"
	return o
}

// netReport renders the wire-fault section deterministically.
func netReport(bases map[string]netBaseline, outs []netOutcome) (string, bool) {
	var sb strings.Builder
	sb.WriteString("netsim wire-fault scenarios\n\n")
	fmt.Fprintf(&sb, "baselines (fault-free): ")
	for _, e := range []string{engineNetsimVis, engineNetsimClone, engineNetsimClean} {
		b := bases[e]
		fmt.Fprintf(&sb, "%s moves=%d agents=%d beacons=%d  ", e, b.moves, b.agentMsgs, b.beaconMsgs)
	}
	sb.WriteString("\n\n")

	t := metrics.NewTable("scenario", "engine", "moves", "Δmoves", "Δtime", "agentMsgs", "beaconMsgs",
		"frames", "drops", "retransmits", "dups", "crashes", "cascades", "partitioned", "checks", "verdict")
	allPass := true
	for _, o := range outs {
		verdict := "PASS"
		if !o.pass {
			verdict = "FAIL"
			allPass = false
		}
		t.AddRow(o.name, o.engine, o.moves, fmt.Sprintf("%+d", o.dMoves), fmt.Sprintf("%+d", o.dTime),
			o.agentMsgs, o.beaconMsgs, o.frames, o.drops, o.retransmits, o.dups,
			o.crashes, o.cascades, o.partitioned, o.check, verdict)
	}
	sb.WriteString(t.Markdown())
	if allPass {
		fmt.Fprintf(&sb, "\nall %d wire-fault scenarios passed\n", len(outs))
	} else {
		sb.WriteString("\nWIRE-FAULT CAMPAIGN FAILED\n")
	}
	return sb.String(), allPass
}

// selected returns family's scenarios that the -scenarios selection
// keep (nil = all) includes, in campaign order.
func selected(family string, keep map[string]bool) []scenario {
	var out []scenario
	for _, s := range campaign() {
		if s.family() == family && (keep == nil || keep[s.name]) {
			out = append(out, s)
		}
	}
	return out
}

// runNetsimCampaign executes the wire-fault baselines and scenarios
// with the same worker fan-out and input-ordered assembly as the
// runtime campaign. keep (nil = all) selects a scenario subset; with
// nothing selected the family is skipped entirely, baselines included.
func runNetsimCampaign(d, workers int, keep map[string]bool) (string, bool, error) {
	scenarios := selected(familyNetsim, keep)
	if len(scenarios) == 0 {
		return "", true, nil
	}
	// One network arena per worker (CollectW runs one task at a time
	// per worker), so scenario runs reuse fabrics instead of building
	// 2^d mailboxes and ledgers per run.
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	arenas := make([]*netarena.Arena, workers)
	for i := range arenas {
		arenas[i] = netarena.New()
	}
	engines := []string{engineNetsimVis, engineNetsimClone, engineNetsimClean}
	baseRuns, err := sched.CollectW(workers, len(engines), func(w, i int) netBaseline {
		s := runNetsim(arenas[w], d, engines[i], nil)
		return netBaseline{s.TotalMoves, s.AgentMessages, s.BeaconMessages}
	})
	if err != nil {
		return "", false, err
	}
	bases := map[string]netBaseline{}
	for i, e := range engines {
		bases[e] = baseRuns[i]
	}

	outs, err := sched.CollectW(workers, len(scenarios), func(w, i int) netOutcome {
		return runNetScenario(arenas[w], d, scenarios[i], bases)
	})
	if err != nil {
		return "", false, err
	}
	rep, ok := netReport(bases, outs)
	return rep, ok, nil
}

// runCampaign executes baselines plus every selected scenario and
// returns the canonical report. The three fault-free baselines and
// then the scenarios fan out across workers; every run is internally
// deterministic and the report is assembled from input-ordered
// results, so the rendered bytes are identical for any worker count
// (workers <= 1 is the serial path). keep (nil = all) selects a
// scenario subset; with nothing selected the family is skipped.
func runCampaign(d, workers int, keep map[string]bool) (string, bool, error) {
	scenarios := selected(familyRuntime, keep)
	if len(scenarios) == 0 {
		return "", true, nil
	}
	engines := []string{engineCleanFT, engineVisFT, engineDES}
	baseRuns, err := sched.Map(workers, len(engines), func(i int) (baseline, error) {
		if engines[i] == engineDES {
			res, _, err := runDES(d, nil)
			if err != nil {
				return baseline{}, err
			}
			return baseline{res.TotalMoves, res.Makespan}, nil
		}
		rep, err := runRuntime(d, engines[i], nil)
		if err != nil {
			return baseline{}, err
		}
		return baseline{rep.Result.TotalMoves, rep.Log.Makespan()}, nil
	})
	if err != nil {
		return "", false, err
	}
	bases := map[string]baseline{}
	for i, e := range engines {
		bases[e] = baseRuns[i]
	}

	outs, err := sched.Collect(workers, len(scenarios), func(i int) outcome {
		return runScenario(d, scenarios[i], bases)
	})
	if err != nil {
		return "", false, err
	}
	rep, ok := report(d, bases, outs)
	return rep, ok, nil
}

// runFamilies runs the selected scenario families and concatenates
// their deterministic reports. keep (nil = all) restricts both
// families to the named scenarios.
func runFamilies(d, workers int, family string, keep map[string]bool) (string, bool, error) {
	var sb strings.Builder
	ok := true
	if family == familyAll || family == familyRuntime {
		rep, pass, err := runCampaign(d, workers, keep)
		if err != nil {
			return "", false, err
		}
		sb.WriteString(rep)
		ok = ok && pass
	}
	if family == familyAll || family == familyNetsim {
		rep, pass, err := runNetsimCampaign(d, workers, keep)
		if err != nil {
			return "", false, err
		}
		if sb.Len() > 0 && rep != "" {
			sb.WriteString("\n")
		}
		sb.WriteString(rep)
		ok = ok && pass
	}
	return sb.String(), ok, nil
}

// scenarioNames lists every scenario of both families, campaign order.
func scenarioNames() (runtime, netsim []string) {
	for _, s := range campaign() {
		if s.family() == familyNetsim {
			netsim = append(netsim, s.name)
		} else {
			runtime = append(runtime, s.name)
		}
	}
	return runtime, netsim
}

// parseScenarios resolves the -scenarios selection for family: ""
// means all (nil), otherwise a comma-separated list whose every name
// must exist in the selected family (any family under "all"). A name
// from the other family is an error, not an empty run.
func parseScenarios(family, sel string) (map[string]bool, error) {
	if sel == "" {
		return nil, nil
	}
	families := map[string]string{} // scenario name -> family
	var names []string
	for _, s := range campaign() {
		families[s.name] = s.family()
		names = append(names, s.name)
	}
	keep := map[string]bool{}
	for _, n := range strings.Split(sel, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		fam, ok := families[n]
		switch {
		case !ok:
			if close := suggest.Nearest(n, names); close != "" {
				return nil, fmt.Errorf("unknown scenario %q — did you mean %q? (use -scenarios list)", n, close)
			}
			return nil, fmt.Errorf("unknown scenario %q (use -scenarios list)", n)
		case family != familyAll && fam != family:
			return nil, fmt.Errorf("scenario %q is in the %s family, not the selected -family %s", n, fam, family)
		}
		keep[n] = true
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("-scenarios selected nothing")
	}
	return keep, nil
}

func main() {
	var (
		dim       = flag.Int("d", 4, "hypercube dimension (n = 2^d), minimum 2")
		verify    = flag.Bool("verify", false, "run the campaign twice and require byte-identical reports")
		workers   = flag.Int("workers", sched.DefaultWorkers(), "parallel workers for baselines and scenarios (1 = serial); output is identical for every value")
		family    = flag.String("family", familyAll, "scenario family to run: all, runtime, or netsim")
		scenarios = flag.String("scenarios", "", "comma-separated scenario names to run, or \"list\" to print every name and exit")
	)
	flag.Parse()
	if *scenarios == "list" {
		rt, ns := scenarioNames()
		fmt.Println("runtime:", strings.Join(rt, " "))
		fmt.Println("netsim: ", strings.Join(ns, " "))
		return
	}
	if *dim < 2 {
		fmt.Fprintln(os.Stderr, "hqfaults: need -d >= 2 (the campaign's crash orders exist from d=2)")
		os.Exit(2)
	}
	switch *family {
	case familyAll, familyRuntime, familyNetsim:
	default:
		fmt.Fprintf(os.Stderr, "hqfaults: unknown -family %q (want all, runtime, or netsim)\n", *family)
		os.Exit(2)
	}
	keep, err := parseScenarios(*family, *scenarios)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqfaults:", err)
		os.Exit(2)
	}

	rep, ok, err := runFamilies(*dim, *workers, *family, keep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqfaults:", err)
		os.Exit(2)
	}
	fmt.Print(rep)
	if *verify {
		again, _, err := runFamilies(*dim, *workers, *family, keep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hqfaults:", err)
			os.Exit(2)
		}
		if again != rep {
			fmt.Fprintln(os.Stderr, "hqfaults: rerun diverged from the first report — determinism broken")
			os.Exit(1)
		}
		fmt.Println("verify: rerun byte-identical")
	}
	if !ok {
		os.Exit(1)
	}
}
