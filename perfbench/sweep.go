package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hypersearch/internal/combin"
	"hypersearch/internal/core"
	"hypersearch/internal/envpool"
	"hypersearch/internal/metrics"
	"hypersearch/internal/sched"
	"hypersearch/internal/strategy"
	"hypersearch/internal/trace"
)

// checkRun verifies one DES run: the model's invariants (captured,
// monotone, contiguous, no recontamination) and the paper's closed
// forms where they are exact — CLEAN's team and agent moves (Theorems
// 2-3; a run is d moves under Theorem 3's count), CLEAN WITH
// VISIBILITY's team and moves (Theorems 5, 8) and, under unit latency,
// its makespan d (Theorem 7), and the cloning variant's n-1 moves.
func checkRun(spec core.Spec, r metrics.Result) error {
	if !r.Ok() || r.Recontaminations != 0 {
		return fmt.Errorf("invariants violated: %s", r)
	}
	d := spec.Dim
	bad := false
	switch spec.Strategy {
	case core.Clean:
		bad = int64(r.TeamSize) != combin.CleanTeamSize(d) || r.AgentMoves != combin.CleanAgentMoves(d)-int64(d)
	case core.Visibility:
		bad = int64(r.TeamSize) != combin.VisibilityAgents(d) || r.TotalMoves != combin.VisibilityMoves(d) ||
			(spec.AdversarialLatency == 0 && spec.Faults == nil && r.Makespan != combin.VisibilityTime(d))
	case core.Cloning:
		bad = r.TotalMoves != combin.CloningMoves(d)
	}
	if bad {
		return fmt.Errorf("diverged from the closed forms: %s", r)
	}
	return nil
}

// eventCounter is the counting trace.Sink of traced runs.
type eventCounter struct{ n int64 }

func (c *eventCounter) Append(trace.Event) { c.n++ }

// source is a worker's environment pool as core.RunWith sees it. It
// stamps when each Acquire returns, the instant a run starts
// simulating, and on traced runs records the Acquire and Release calls
// as spans under the run's sched.task span.
type source struct {
	pool     *envpool.Pool
	acquired time.Time
	tr       *tracer // nil on untraced runs
	req      int
	task     int // the enclosing sched.task span
	worker   int
}

func (s *source) Acquire(d int, o strategy.Options) *strategy.Env {
	sp := s.tr.begin("envpool.acquire", s.req, s.task, s.worker)
	e := s.pool.Acquire(d, o)
	s.acquired = time.Now()
	s.tr.end(sp, 0)
	return e
}

func (s *source) Release(e *strategy.Env) {
	sp := s.tr.begin("envpool.release", s.req, s.task, s.worker)
	s.pool.Release(e)
	s.tr.end(sp, 0)
}

// runner executes DES runs on one envpool.Pool per sched worker.
type runner struct{ srcs []source }

func newRunner() *runner {
	r := &runner{srcs: make([]source, workers)}
	for i := range r.srcs {
		r.srcs[i] = source{pool: envpool.New(), worker: i}
	}
	return r
}

// runOut is one run's timing and verdict.
type runOut struct {
	start, acquired, end time.Time // acquire called, acquire returned, release returned
	res                  metrics.Result
	events               int64 // traced runs only
	err                  error
}

// batchOut is one request of runs.
type batchOut struct {
	due, done time.Time
	runs      []runOut
}

// request converts the batch to the common request record.
func (b batchOut) request(traced bool) request {
	r := request{due: b.due, done: b.done, answered: true, ok: true, traced: traced}
	for _, o := range b.runs {
		if o.err != nil {
			r.ok = false
		}
		if r.ack.IsZero() || o.acquired.Before(r.ack) {
			r.ack = o.acquired
		}
		if r.firstRun.IsZero() || o.end.Before(r.firstRun) {
			r.firstRun = o.end
		}
	}
	return r
}

// batch runs specs as one request over sched.MapW. A non-nil tracer
// records spans around the run and the calls core.RunWith makes into
// the worker's pool.
func (r *runner) batch(specs []core.Spec, tr *tracer, req int) batchOut {
	b := batchOut{due: time.Now()}
	root := tr.begin("request", req, -1, -1)
	runs, err := sched.MapW(len(r.srcs), len(specs), func(w, i int) (runOut, error) {
		return r.run(w, specs[i], tr, req, root), nil
	})
	b.done = time.Now()
	tr.end(root, int64(len(specs)))
	for i := range runs {
		if runs[i].end.IsZero() { // the task panicked
			runs[i] = runOut{start: b.due, acquired: b.done, end: b.done, err: fmt.Errorf("run %d: %v", i, err)}
		}
	}
	b.runs = runs
	return b
}

// run executes one spec through core.RunWith on worker w's pool. On a
// traced run the spec streams its events to a counting sink, and the
// strategy.simulate span runs from Acquire's return to RunWith's.
func (r *runner) run(w int, spec core.Spec, tr *tracer, req, parent int) runOut {
	src := &r.srcs[w]
	src.tr, src.req, src.task = tr, req, tr.begin("sched.task", req, parent, w)
	var sink *eventCounter
	if tr != nil {
		sink = &eventCounter{}
		spec.Stream = sink
	}
	o := runOut{start: time.Now()}
	res, env, err := core.RunWith(spec, src)
	if sink != nil {
		tr.add("strategy.simulate", req, src.task, w, src.acquired, time.Now(), sink.n)
		o.events = sink.n
	}
	if err == nil {
		src.Release(env)
	}
	o.end, o.acquired, o.res = time.Now(), src.acquired, res
	tr.end(src.task, 1)
	if err == nil {
		err = checkRun(spec, res)
	}
	o.err = err
	return o
}

// measureBatches runs requests back to back (a closed loop) until the
// window closes; with a tracer, every other request is traced. next
// returns the specs of request i.
func (r *runner) measureBatches(seconds float64, tr *tracer, next func(i int) []core.Spec) ([]batchOut, window) {
	var (
		out []batchOut
		win window
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		b := r.batch(next(i), t, i)
		out = append(out, b)
		win.reqs = append(win.reqs, b.request(t != nil))
		for _, o := range b.runs {
			win.runMS = append(win.runMS, ms(o.end.Sub(o.start)))
			win.runs++
		}
	}
	win.elapsed = time.Since(start)
	return out, win
}

// schedMetrics reports the scheduler's busy share (summed task time
// over workers x request wall time) and mean tail idle per request
// (time from the first worker finishing to the request completing).
func schedMetrics(m map[string]float64, batches []batchOut) {
	var busy, wall, idle time.Duration
	for _, b := range batches {
		first := b.done
		for _, o := range b.runs {
			busy += o.end.Sub(o.start)
			if o.end.Before(first) {
				first = o.end
			}
		}
		wall += b.done.Sub(b.due)
		idle += b.done.Sub(first)
	}
	m["sched.busy_share"] = share(float64(busy), float64(workers)*float64(wall))
	m["sched.tail_idle_ms"] = share(ms(idle), float64(len(batches)))
}

// strategyMetrics reports the strategy layer from the traced runs'
// spans and results: simulate time, events from the counting sink, and
// the paper's exact costs averaged per run.
func strategyMetrics(m map[string]float64, tr *tracer, batches []batchOut) {
	sim, events := tr.durations("strategy.simulate")
	acq, _ := tr.durations("envpool.acquire")
	rel, _ := tr.durations("envpool.release")
	var simNS float64
	for _, d := range sim {
		simNS += d
	}
	m["strategy.simulate_ms.p50"] = median(sim) / 1e6
	m["strategy.events"] = share(float64(events), float64(len(sim)))
	m["strategy.ns_per_event"] = share(simNS, float64(events))
	m["envpool.acquire_us.p50"] = median(acq) / 1e3
	m["envpool.release_us.p50"] = median(rel) / 1e3
	var agents, moves, makespan, n float64
	for _, b := range batches {
		for _, o := range b.runs {
			if o.events > 0 {
				agents += float64(o.res.TeamSize)
				moves += float64(o.res.TotalMoves)
				makespan += float64(o.res.Makespan)
				n++
			}
		}
	}
	m["strategy.agents"] = share(agents, n)
	m["strategy.moves"] = share(moves, n)
	m["strategy.makespan"] = share(makespan, n)
}

// sweepDef is a sweep workload: one strategy at one dimension, run in
// a closed loop as requests of one run per worker.
type sweepDef struct {
	name     string
	strategy string
	dim      int
	latency  int64 // adversarial max latency; 0 is unit latency
	// limit is the latency limit of one request, about 1.25 times the
	// request p90 measured on a 2-core machine (between its quiet and
	// contended readings), so within_limit_share falls once requests
	// slow down by about a quarter.
	limit time.Duration
	// batchesPerSecond is the request rate planned on a 2-core machine,
	// set a little under the rate measured there under load; with the
	// window length it fixes the tail percentiles (percentile rule at
	// the planned sample count), so a faster or slower commit is
	// compared at the same percentile.
	batchesPerSecond float64
}

func sweepClean() workload {
	return sweepDef{name: "sweep-clean", strategy: core.Clean, dim: 14, latency: 13,
		limit: 250 * time.Millisecond, batchesPerSecond: 6}.workload()
}

func sweepVisibility() workload {
	return sweepDef{name: "sweep-visibility", strategy: core.Visibility, dim: 18,
		limit: time.Second, batchesPerSecond: 1.6}.workload()
}

// spec is run i of the sweep; its seed derives from the workload seed.
func (d sweepDef) spec(seed int64, i int) core.Spec {
	return core.Spec{Strategy: d.strategy, Dim: d.dim, AdversarialLatency: d.latency, Seed: deriveSeed(seed, i)}
}

func (d sweepDef) next(seed int64) func(i int) []core.Spec {
	return func(i int) []core.Spec {
		specs := make([]core.Spec, workers)
		for k := range specs {
			specs[k] = d.spec(seed, i*workers+k)
		}
		return specs
	}
}

// warmUpIndex offsets set-up runs from measured ones.
const warmUpIndex = 1 << 30

// setup builds the per-worker pools cold and runs one warm-up request,
// so every worker holds a warmed environment for the sweep's dimension.
func (d sweepDef) setup(seed int64) (*runner, time.Duration, error) {
	start := time.Now()
	r := newRunner()
	b := r.batch(d.next(seed)(warmUpIndex), nil, -1)
	for _, o := range b.runs {
		if o.err != nil {
			return nil, 0, fmt.Errorf("warm-up run: %w", o.err)
		}
	}
	return r, time.Since(start), nil
}

func (d sweepDef) workload() workload {
	return workload{
		name: d.name,
		setup: func(opt options) (time.Duration, error) {
			_, t, err := d.setup(opt.seed)
			return t, err
		},
		run: d.run,
	}
}

func (d sweepDef) run(opt options) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	var setupS []float64
	if !opt.trace {
		var err error
		if setupS, err = setupTimes(opt, setupSamples); err != nil {
			return nil, err
		}
	}
	r, _, err := d.setup(opt.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	before := readGoStats()
	batches, win := r.measureBatches(opt.seconds, tr, d.next(opt.seed))
	after := readGoStats()
	for _, b := range batches {
		for _, run := range b.runs {
			o.attempted++
			if run.err != nil {
				o.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", d.name, run.err)
			}
		}
	}
	planned := int(d.batchesPerSecond * opt.seconds)
	reqTail, runTail := tailQuantile(planned), tailQuantile(planned*workers)
	tailNotes(o.notes, "request", reqTail, len(win.reqs))
	tailNotes(o.notes, "run", runTail, len(win.runMS))
	if !opt.trace {
		o.metrics = win.endToEnd(reqTail, runTail, d.limit)
		win.latencyNotes(o.notes)
		o.metrics["setup_s"] = median(setupS)
		o.metrics["rss_peak_mb"] = peakRSSMB()
		o.notes["setup_s.samples"] = setupS
		return o, nil
	}

	m := o.metrics
	m["tracing.overhead_share"] = win.overheadShare()
	goMetrics(m, before, after, win.runs)
	schedMetrics(m, batches)
	strategyMetrics(m, tr, batches)
	spec := d.spec(opt.seed, 0)
	if err := layerProbes(m, spec, d.dim); err != nil {
		return nil, err
	}
	sess, err := probeSession(opt, d.strategy)
	if err != nil {
		return nil, err
	}
	o.attempted += sess.attempted
	o.failed += sess.failed
	for k, v := range sess.metrics {
		m[k] = v
	}
	m["failed_share"] = share(float64(o.failed), float64(o.attempted))
	if err := tr.write(filepath.Join(opt.out, runName(opt)+"-spans.jsonl")); err != nil {
		return nil, err
	}
	return o, nil
}
