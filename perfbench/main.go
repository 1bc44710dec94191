// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall-clock window, checks every output against
// the paper's closed forms or the service's serial reference, and
// prints one JSON result line. With --trace 1 it records in-memory
// spans around its calls into each layer, runs the layer probes, and
// prints the per-layer metrics instead of the end-to-end ones.
//
// Usage (from the repository root; run.sh builds it first):
//
//	bash perfbench/run.sh --workload sweep-clean --seed 1 --seconds 50 --trace 0
//
// Workloads, metrics and how to read a traced run: README.md beside
// this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workers is the sched worker count of every sweep, and the cap on
// GOMAXPROCS, so figures compare across machines with more cores.
const workers = 2

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints, on every workload.
// Tails use the percentile rule (stats.go) at the workload's planned
// sample count; README.md gives each definition per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"runs_per_s", "1/s"},
	{"run_ms.p50", "ms"},
	{"run_ms.tail", "ms"},
	{"ack_ms.p50", "ms"},
	{"first_run_ms.p50", "ms"},
	{"first_run_ms.tail", "ms"},
	{"done_ms.p50", "ms"},
	{"done_ms.tail", "ms"},
	{"within_limit_share", "share"},
}

// perLayer are the metrics a --trace 1 run prints, on every workload.
var perLayer = []metricSpec{
	{"topology.build_ms", "ms"},
	{"topology.visit_ns", "ns"},
	{"topology.nexthop_ns", "ns"},
	{"envpool.build_ms", "ms"},
	{"envpool.acquire_us.p50", "us"},
	{"envpool.release_us.p50", "us"},
	{"strategy.simulate_ms.p50", "ms"},
	{"strategy.events", "count"},
	{"strategy.ns_per_event", "ns"},
	{"strategy.agents", "count"},
	{"strategy.moves", "count"},
	{"strategy.makespan", "steps"},
	{"board.replay_ns_per_op", "ns"},
	{"board.contiguity_ms", "ms"},
	{"board.recontaminations", "count"},
	{"des.fn_ns_per_event", "ns"},
	{"des.process_ns_per_event", "ns"},
	{"des.inline_ns_per_event", "ns"},
	{"sched.busy_share", "share"},
	{"sched.tail_idle_ms", "ms"},
	{"go.allocs_per_run", "count"},
	{"go.bytes_per_run", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"serve.parse_validate_us.p50", "us"},
	{"serve.refused", "count"},
	{"serve.journal_append_ms.p50", "ms"},
	{"serve.journal_append_ms.tail", "ms"},
	{"serve.journal_replay_ms", "ms"},
	{"serve.journal_records", "count"},
	{"serve.compactions", "count"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.queue_ms.tail", "ms"},
	{"serve.exec_ms.p50", "ms"},
	{"serve.exec_ms.tail", "ms"},
	{"serve.cache_hit_share", "share"},
	{"serve.cache_evictions", "count"},
	{"serve.stream_bytes_per_run", "B"},
	{"serve.flushes_per_campaign", "count"},
	{"netsim.messages_per_run", "count"},
	{"netsim.wiretime", "units"},
	{"gen.late_ms.max", "ms"},
	{"tracing.overhead_share", "share"},
	{"failed_share", "share"},
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for reports, spans and scratch files
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64 // end-to-end or per-layer, by mode
	notes             map[string]any     // sample counts and percentiles, for the report
}

// workload is one named input set.
type workload struct {
	name string
	// run measures the workload for opt.seconds and returns the
	// end-to-end metrics, or the per-layer ones when opt.trace is set.
	run func(opt options) (*outcome, error)
	// setup performs one cold set-up in this process and returns its
	// duration; the parent runs it in child processes (see setupTimes).
	setup func(opt options) (time.Duration, error)
}

// workloads are the workloads BENCHMARK.json declares, in its order.
func workloads() []workload {
	return []workload{sweepClean(), sweepVisibility()}
}

// undeclared are workloads that run by name but are not in
// BENCHMARK.json: serve-mixed's latencies follow the host's CPU steal
// and spread past every bound the benchmark may set (README.md).
func undeclared() []workload {
	return []workload{serveMixed()}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range append(workloads(), undeclared()...) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult checks that the outcome carries exactly the declared
// metrics of its mode and attaches their units.
func buildResult(o *outcome, trace bool) (result, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok {
			return r, fmt.Errorf("workload did not report metric %q", s.name)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(o.metrics) != len(specs) {
		var extra []string
		for k := range o.metrics {
			if _, ok := r.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return r, fmt.Errorf("workload reported undeclared metrics %v", extra)
	}
	if r.Attempted < 1 {
		return r, errors.New("workload attempted nothing")
	}
	return r, nil
}

func main() {
	var (
		opt        options
		traceFlag  int
		setupProbe bool
		references bool
	)
	flag.StringVar(&opt.workload, "workload", "", "workload name: sweep-clean, sweep-visibility or serve-mixed")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 50, "length of the measured window, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&opt.out, "out", filepath.Join(".bench_build", "runs"), "directory for reports, spans and scratch files")
	flag.BoolVar(&setupProbe, "setup-probe", false, "perform one cold set-up, print its seconds and exit (used by the benchmark itself)")
	flag.BoolVar(&references, "references", false, "read campaign requests from stdin, print their serial records and exit (used by the benchmark itself)")
	flag.Parse()
	opt.trace = traceFlag == 1

	if runtime.GOMAXPROCS(0) > workers {
		runtime.GOMAXPROCS(workers)
	}
	if references {
		if err := writeReferences(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(opt.workload)
	if err != nil {
		fatal(err)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", traceFlag))
	}
	if opt.seconds <= 0 {
		fatal(fmt.Errorf("--seconds %v: want > 0", opt.seconds))
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fatal(err)
	}
	if setupProbe {
		d, err := w.setup(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d.Seconds())
		return
	}

	prov := takeProvenance(opt)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v commit=%s dirty=%s go=%s GOMAXPROCS=%d nproc=%d kernel=%s\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, prov.Commit, prov.Dirty, prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.Kernel)
	total0, steal0 := cpuTicks()
	o, err := w.run(opt)
	if err != nil {
		fatal(err)
	}
	total1, steal1 := cpuTicks()
	o.notes["host.steal_share"] = share(steal1-steal0, total1-total0)
	res, err := buildResult(o, opt.trace)
	if err != nil {
		fatal(err)
	}
	if err := writeReport(opt, prov, o, res); err != nil {
		fatal(err)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d attempted failed their correctness checks\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// writeReport stores the run's provenance, metrics and sampling notes
// as JSON in the output directory.
func writeReport(opt options, prov provenance, o *outcome, res result) error {
	rep := struct {
		Provenance provenance     `json:"provenance"`
		Result     result         `json:"result"`
		Notes      map[string]any `json:"notes"`
	}{prov, res, o.notes}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.out, runName(opt)+".json"), append(b, '\n'), 0o644)
}

// runName identifies one invocation's files in the output directory.
func runName(opt options) string {
	t := 0
	if opt.trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", opt.workload, opt.seed, t)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
