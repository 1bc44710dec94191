// Command hqbench runs the tier-1 benchmark families with stable,
// fixed iteration counts and emits a machine-readable JSON report, so
// every PR can record a performance trajectory (BENCH_seed.json,
// BENCH_pr2.json, ...) and regressions are caught by diffing files
// rather than re-reading scrollback.
//
// Unlike `go test -bench`, which adapts b.N to the machine, hqbench
// pins the iteration count per family: ns/op moves with the hardware,
// but allocs/op and the paper's own cost metrics (agents, moves,
// steps) are exact and comparable across commits.
//
// Usage:
//
//	hqbench                      # all families -> BENCH.json
//	hqbench -out BENCH_pr2.json
//	hqbench -filter 'clean/'     # subset by regexp
//	hqbench -families clean/d=16,clean/d=20  # subset by exact name
//	hqbench -quick               # 1 iteration per family (CI smoke)
//	hqbench -list                # print family names and exit
//	hqbench -against BENCH_pr3.json  # regression gate (see internal/benchgate)
//	                                 # measured under the baseline's GOMAXPROCS
//	hqbench -reruns 3            # re-measure each family 3 times, keep the min
//
// With -reruns N > 1 each family is measured N times and ns/op is the
// minimum over the reruns; the relative spread (max-min)/min is
// recorded per family, and a run whose spread exceeds -spread-band is
// rejected (no output file, exit 1) — a reading that noisy must not
// become a baseline or gate one.
//
// Subset runs (-filter / -families) gate only the families they
// measured: the baseline is cut down with benchgate.Subset first, so
// deliberately skipped families are not reported missing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"time"

	"hypersearch/internal/benchgate"
	"hypersearch/internal/combin"
	"hypersearch/internal/core"
	"hypersearch/internal/des"
	"hypersearch/internal/envpool"
	"hypersearch/internal/faults"
	"hypersearch/internal/metrics"
	"hypersearch/internal/netarena"
	"hypersearch/internal/netsim"
	"hypersearch/internal/suggest"
	"hypersearch/internal/whiteboard"
)

// family is one named benchmark: a fixed iteration count and a body
// returning the paper's cost metrics for the last iteration.
type family struct {
	name  string
	iters int
	run   func() map[string]float64
}

// strategyMetrics extracts the paper's quantities from a run result.
func strategyMetrics(r metrics.Result) map[string]float64 {
	return map[string]float64{
		"agents": float64(r.TeamSize),
		"moves":  float64(r.TotalMoves),
		"steps":  float64(r.Makespan),
	}
}

// pool is the environment pool shared by every DES family: hqbench
// runs families serially, so one pool reuses a single environment per
// dimension across all iterations and strategies — what sweeps do in
// production, and what keeps allocs/op an honest steady-state figure.
var pool = envpool.New()

// arena is the netsim families' network arena: iterations after the
// warmup reuse one pooled fabric, so allocs/op measures the
// reused-arena path the experiment sweeps actually run.
var arena = netarena.New()

// mustRun executes one spec on the shared pool, failing loudly on any
// invariant violation: a benchmark that lies about correctness is
// worse than a slow one.
func mustRun(spec core.Spec) metrics.Result {
	res, env, err := core.RunWith(spec, pool)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqbench:", err)
		os.Exit(1)
	}
	if !res.Ok() {
		fmt.Fprintf(os.Stderr, "hqbench: invariants violated: %s\n", res)
		os.Exit(1)
	}
	pool.Release(env)
	return res
}

// strategyFamily benchmarks one strategy at one dimension.
func strategyFamily(name string, d, iters int) family {
	return family{
		name:  fmt.Sprintf("%s/d=%d", name, d),
		iters: iters,
		run:   func() map[string]float64 { return strategyMetrics(mustRun(core.Spec{Strategy: name, Dim: d})) },
	}
}

// cleanScaleFamily benchmarks Algorithm CLEAN at kilonode-and-up
// boards and cross-checks every iteration against the
// paper's closed forms (Theorems 2 and 3; the DES run saves one move
// per root child because phase 0 places agents instead of escorting
// them up): a scale benchmark that silently swept the wrong number of
// nodes would be worse than no benchmark.
func cleanScaleFamily(d, iters int) family {
	return family{
		name:  fmt.Sprintf("%s/d=%d", core.Clean, d),
		iters: iters,
		run: func() map[string]float64 {
			res := mustRun(core.Spec{Strategy: core.Clean, Dim: d})
			if int64(res.TeamSize) != combin.CleanTeamSize(d) ||
				res.AgentMoves != combin.CleanAgentMoves(d)-int64(d) {
				fmt.Fprintf(os.Stderr, "hqbench: clean/d=%d diverged from the closed forms: %s\n", d, res)
				os.Exit(1)
			}
			return strategyMetrics(res)
		},
	}
}

// visibilityScaleFamily benchmarks Algorithm CLEAN WITH VISIBILITY on
// the event-driven inline engine at kilonode-and-up boards,
// cross-checking every iteration against the paper's closed forms
// (Theorems 5, 7 and 8): team n/2, moves (d+1)*2^(d-2), makespan d. At
// d=20 that is a 1,048,576-node board swept by 524,288 agents with no
// per-node goroutines — the workload the engine exists for.
func visibilityScaleFamily(d, iters int) family {
	return family{
		name:  fmt.Sprintf("%s/d=%d", core.Visibility, d),
		iters: iters,
		run: func() map[string]float64 {
			res := mustRun(core.Spec{Strategy: core.Visibility, Dim: d})
			if int64(res.TeamSize) != combin.VisibilityAgents(d) ||
				res.TotalMoves != combin.VisibilityMoves(d) ||
				res.Makespan != combin.VisibilityTime(d) {
				fmt.Fprintf(os.Stderr, "hqbench: visibility/d=%d diverged from the closed forms: %s\n", d, res)
				os.Exit(1)
			}
			return strategyMetrics(res)
		},
	}
}

// families returns the full tier-1 suite. Iteration counts shrink with
// dimension so the whole run stays in CLI territory while every family
// still averages over several runs.
func families() []family {
	iters := func(d int) int {
		switch {
		case d <= 4:
			return 50
		case d <= 6:
			return 20
		case d <= 8:
			return 8
		case d <= 10:
			return 3
		default:
			return 2
		}
	}
	var fams []family
	for _, d := range []int{4, 6, 8, 10, 12} {
		fams = append(fams, strategyFamily(core.Clean, d, iters(d)))
	}
	// Scale points: d=16 and the megannode d=20 board the packed
	// engine exists for. One and two iterations keep the suite in CLI
	// territory; the closed-form self-check makes even a single
	// iteration trustworthy.
	fams = append(fams, cleanScaleFamily(16, 2), cleanScaleFamily(20, 1))
	for _, d := range []int{4, 6, 8, 10, 12} {
		fams = append(fams, strategyFamily(core.Visibility, d, iters(d)))
	}
	fams = append(fams, visibilityScaleFamily(16, 2), visibilityScaleFamily(20, 1))
	fams = append(fams,
		strategyFamily(core.Cloning, 8, 8),
		strategyFamily(core.Synchronous, 8, 8),
		family{
			name:  "adversarial-clean/d=6",
			iters: 10,
			run: func() map[string]float64 {
				return strategyMetrics(mustRun(core.Spec{
					Strategy: core.Clean, Dim: 6, AdversarialLatency: 13, Seed: 1,
				}))
			},
		},
		family{
			name:  "des-throughput/events=100k",
			iters: 10,
			run: func() map[string]float64 {
				const events = 100_000
				s := des.New()
				count := 0
				var tick func()
				tick = func() {
					count++
					if count < events {
						s.After(1, tick)
					}
				}
				s.After(1, tick)
				s.Run()
				return map[string]float64{"events": events}
			},
		},
		family{
			name:  "whiteboard-ops/ops=100k",
			iters: 10,
			run: func() map[string]float64 {
				const ops = 100_000
				st := whiteboard.NewStore(1)
				agents := st.Field("agents")
				planned := st.Field("planned")
				b := st.At(0)
				for i := 0; i < ops; i++ {
					b.Add(agents, 1)
					if b.Read(agents) > 0 {
						b.Write(planned, 1)
					}
				}
				return map[string]float64{"ops": ops}
			},
		},
		family{
			name:  "netsim-visibility/d=6",
			iters: 10,
			run: func() map[string]float64 {
				st := arena.Run(6, netsim.Config{Seed: 1})
				if !st.Ok() {
					fmt.Fprintf(os.Stderr, "hqbench: netsim invariants violated: %s\n", st.Result)
					os.Exit(1)
				}
				return map[string]float64{
					"agents":  float64(st.TeamSize),
					"beacons": float64(st.BeaconMessages),
				}
			},
		},
		family{
			name:  "netsim-clean/d=6",
			iters: 10,
			run: func() map[string]float64 {
				st := arena.RunClean(6, netsim.Config{Seed: 1})
				if !st.Ok() {
					fmt.Fprintf(os.Stderr, "hqbench: netsim invariants violated: %s\n", st.Result)
					os.Exit(1)
				}
				return map[string]float64{
					"agents": float64(st.TeamSize),
					"moves":  float64(st.TotalMoves),
				}
			},
		},
		family{
			// The correlated-fault recovery path: a partition islanding
			// the homebase plus a crash cascade. The exported metrics are
			// faultlink's deterministic counters — the exact-equality
			// metrics gate turns any drift in the logical Δtime bill or
			// the fault schedule into a gate failure, the way F1's move
			// counts already are.
			name:  "netsim-faulted/d=6",
			iters: 10,
			run: func() map[string]float64 {
				plan := &faults.Plan{Name: "bench-correlated", Seed: 31, Faults: []faults.Fault{
					{Kind: faults.Partition, Target: faults.LinksTarget(faults.IslandLinks(0, 6)),
						At: 1, Until: 3, Delay: 600},
					{Kind: faults.Cascade, Target: faults.LinkTarget(0, 1), At: 2,
						Threshold: 2, Victims: []int{3, 5}},
				}}
				st := arena.Run(6, netsim.Config{Seed: 1, Faults: plan})
				if !st.Ok() {
					fmt.Fprintf(os.Stderr, "hqbench: netsim invariants violated: %s\n", st.Result)
					os.Exit(1)
				}
				return map[string]float64{
					"agents":      float64(st.TeamSize),
					"wiretime":    float64(st.Link.WireTime),
					"partitioned": float64(st.Link.Partitioned),
					"crashes":     float64(st.Link.Crashes),
					"cascades":    float64(st.Link.Cascades),
				}
			},
		},
	)
	return fams
}

// provenance collects the attribution block, best-effort: a missing
// git binary, a non-repo working directory or a non-Linux kernel just
// leave fields empty.
func provenance() *benchgate.Provenance {
	p := &benchgate.Provenance{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(rel))
	} else if out, err := exec.Command("uname", "-r").Output(); err == nil {
		p.Kernel = strings.TrimSpace(string(out))
	}
	return p
}

// measure runs one family: a warmup iteration (excluded), then iters
// timed iterations bracketed by mallocs accounting. ns/op is the
// MINIMUM over the iterations, not the mean: background load on a
// shared machine can only ever slow an iteration down, so the fastest
// one is the most reproducible estimate of the workload's true cost —
// which is what the regression gate needs to compare across runs.
// Allocation figures stay means; they are deterministic per iteration.
func measure(f family, quick bool) benchgate.Result {
	iters := f.iters
	if quick {
		iters = 1
	}
	last := f.run() // warmup, excluded from the measurement
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := int64(0)
	for i := 0; i < iters; i++ {
		start := time.Now()
		last = f.run()
		if ns := time.Since(start).Nanoseconds(); best == 0 || ns < best {
			best = ns
		}
	}
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return benchgate.Result{
		Name:        f.name,
		Iters:       iters,
		NsPerOp:     best,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
		Metrics:     last,
	}
}

// measureReruns measures one family reruns times, keeping the minimum
// ns/op (the reproducible estimate) and recording the relative spread
// of the readings. Allocation counts and paper metrics are
// deterministic per iteration, so the first rerun's values stand.
func measureReruns(f family, quick bool, reruns int) benchgate.Result {
	r := measure(f, quick)
	if reruns <= 1 {
		return r
	}
	min, max := r.NsPerOp, r.NsPerOp
	for i := 1; i < reruns; i++ {
		ns := measure(f, quick).NsPerOp
		if ns < min {
			min = ns
		}
		if ns > max {
			max = ns
		}
	}
	r.NsPerOp = min
	r.Reruns = reruns
	if min > 0 {
		r.NsSpread = float64(max-min) / float64(min)
	}
	return r
}

// familyNames lists the known family names for the unknown-entry
// suggestion.
func familyNames(fams []family) []string {
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.name
	}
	return names
}

func main() {
	var (
		out        = flag.String("out", "BENCH.json", "output file ('-' for stdout)")
		filter     = flag.String("filter", "", "regexp selecting family names (default: all)")
		famNames   = flag.String("families", "", "comma-separated exact family names to run (subset; see -list)")
		quick      = flag.Bool("quick", false, "1 iteration per family (CI smoke run)")
		list       = flag.Bool("list", false, "print family names and exit")
		against    = flag.String("against", "", "baseline BENCH.json: exit 1 if the fresh measurements regress past the tolerance bands")
		reruns     = flag.Int("reruns", 1, "measure each family this many times and keep the minimum ns/op")
		spreadBand = flag.Float64("spread-band", benchgate.DefaultSpreadBand, "max relative ns/op spread across -reruns before the run is rejected as too noisy")
	)
	flag.Parse()

	fams := families()
	subset := false
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hqbench:", err)
			os.Exit(2)
		}
		kept := fams[:0]
		for _, f := range fams {
			if re.MatchString(f.name) {
				kept = append(kept, f)
			}
		}
		fams = kept
		subset = true
	}
	if *famNames != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*famNames, ",") {
			want[strings.TrimSpace(n)] = true
		}
		kept := fams[:0]
		for _, f := range fams {
			if want[f.name] {
				kept = append(kept, f)
				delete(want, f.name)
			}
		}
		if len(want) > 0 {
			for n := range want {
				if close := suggest.Nearest(n, familyNames(families())); close != "" {
					fmt.Fprintf(os.Stderr, "hqbench: unknown family %q — did you mean %q? (see -list)\n", n, close)
				} else {
					fmt.Fprintf(os.Stderr, "hqbench: unknown family %q (see -list)\n", n)
				}
			}
			os.Exit(2)
		}
		fams = kept
		subset = true
	}
	if *list {
		for _, f := range fams {
			fmt.Println(f.name)
		}
		return
	}

	// The gate compares allocs/op, and some families allocate more
	// under more parallelism (scheduler and netsim queues), so measure
	// under the baseline's recorded GOMAXPROCS; the report records the
	// value used.
	var base benchgate.Report
	if *against != "" {
		var err error
		if base, err = benchgate.Load(*against); err != nil {
			fmt.Fprintln(os.Stderr, "hqbench:", err)
			os.Exit(1)
		}
		if base.GOMAXPROCS > 0 && base.GOMAXPROCS != runtime.GOMAXPROCS(0) {
			fmt.Fprintf(os.Stderr, "hqbench: GOMAXPROCS %d -> %d, as recorded in %s\n", runtime.GOMAXPROCS(0), base.GOMAXPROCS, *against)
			runtime.GOMAXPROCS(base.GOMAXPROCS)
		}
	}

	rep := benchgate.Report{
		Schema:     "hqbench/v1",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Provenance: provenance(),
	}
	for _, f := range fams {
		r := measureReruns(f, *quick, *reruns)
		if r.Reruns > 1 {
			fmt.Fprintf(os.Stderr, "%-32s iters=%-3d %12d ns/op %10d allocs/op  spread=%.1f%%\n",
				r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, 100*r.NsSpread)
		} else {
			fmt.Fprintf(os.Stderr, "%-32s iters=%-3d %12d ns/op %10d allocs/op\n",
				r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp)
		}
		rep.Families = append(rep.Families, r)
	}

	if noisy := benchgate.SpreadViolations(rep, *spreadBand); len(noisy) > 0 {
		fmt.Fprintf(os.Stderr, "hqbench: rejecting run, %d famil(ies) too noisy:\n", len(noisy))
		for _, v := range noisy {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hqbench:", err)
		os.Exit(1)
	}

	if *against != "" {
		if subset {
			names := make([]string, len(fams))
			for i, f := range fams {
				names[i] = f.name
			}
			base = benchgate.Subset(base, names)
		}
		violations := benchgate.Compare(base, rep, benchgate.DefaultNsTolerance)
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "hqbench: %d regression(s) against %s:\n", len(violations), *against)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hqbench: within tolerance of %s (%d families)\n", *against, len(base.Families))
	}
}
