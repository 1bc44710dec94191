package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"hypersearch/internal/core"
	"hypersearch/internal/metrics"
)

// TestMain lets the benchmark's child invocations (cold set-ups and
// reference computations) run through the test binary, which is what
// os.Executable names under go test.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-probe" || a == "--references" {
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.2, 1}, {0.21, 2}, {1, 5}, {0, 1}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// TestRefusedRequestIsAMiss: refused, failed and late requests all
// count against within_limit_share, over every attempted request.
func TestRefusedRequestIsAMiss(t *testing.T) {
	due := time.Unix(0, 0)
	at := func(d time.Duration) time.Time { return due.Add(d) }
	w := window{reqs: []request{
		{due: due, done: at(10 * time.Millisecond), answered: true, ok: true}, // in time
		{due: due}, // refused: never answered
		{due: due, done: at(5 * time.Millisecond), answered: true, ok: false},  // wrong output
		{due: due, done: at(200 * time.Millisecond), answered: true, ok: true}, // too late
	}}
	if got := w.withinLimit(100 * time.Millisecond); got != 0.25 {
		t.Fatalf("within-limit share = %v, want 0.25", got)
	}
}

func TestCheckRunRejectsClosedFormDivergence(t *testing.T) {
	spec := core.Spec{Strategy: core.Clean, Dim: 6}
	res, _, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(spec, res); err != nil {
		t.Fatalf("a correct run was rejected: %v", err)
	}
	bad := res
	bad.TeamSize++
	if checkRun(spec, bad) == nil {
		t.Error("a run with the wrong team size passed")
	}
	vis := metrics.Result{Captured: true, MonotoneOK: true, ContiguousOK: true}
	if checkRun(core.Spec{Strategy: core.Visibility, Dim: 4}, vis) == nil {
		t.Error("a visibility run with zero moves passed")
	}
}

func TestGenerationIsDeterministicPerSeed(t *testing.T) {
	p := serveMixedDef().mix
	h1, m1, err := p.genPlans(7, 50, 400)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2, _ := p.genPlans(7, 50, 400)
	_, m3, _ := p.genPlans(8, 50, 400)
	bodies := func(ps []*plan) [][]byte {
		var out [][]byte
		for _, p := range ps {
			out = append(out, p.body)
		}
		return out
	}
	if !reflect.DeepEqual(bodies(h1), bodies(h2)) || !reflect.DeepEqual(bodies(m1), bodies(m2)) {
		t.Fatal("the same seed generated different campaigns")
	}
	if reflect.DeepEqual(bodies(m1), bodies(m3)) {
		t.Fatal("different seeds generated the same campaigns")
	}
	repeats, network := 0, 0
	seen := map[string]bool{}
	for _, h := range h1 {
		seen[string(h.body)] = true
	}
	for _, pl := range m1 {
		if seen[string(pl.body)] {
			repeats++
		}
		seen[string(pl.body)] = true
		if pl.req.Engine == "network" {
			network++
			if pl.req.DimMax > p.netDimMax {
				t.Errorf("network campaign beyond d=%d: %s", p.netDimMax, pl.body)
			}
		}
	}
	if repeats == 0 || network == 0 {
		t.Errorf("mix lacks repeats (%d) or network campaigns (%d)", repeats, network)
	}

	sweep := sweepDef{strategy: core.Clean, dim: 14, latency: 13}
	if a, b := sweep.next(3)(5), sweep.next(3)(5); !reflect.DeepEqual(a, b) {
		t.Fatal("sweep specs differ for the same seed")
	}
	if a, b := sweep.next(3)(5), sweep.next(4)(5); reflect.DeepEqual(a, b) {
		t.Fatal("sweep specs ignore the seed")
	}
}

// TestSmokeEveryWorkload runs each workload for a tiny window, untraced
// and traced, and checks the result line carries exactly the declared
// metrics with every output correct.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range append(workloads(), undeclared()...) {
		for _, traced := range []bool{false, true} {
			opt := options{workload: w.name, seed: 3, seconds: 0.3, trace: traced, out: t.TempDir()}
			o, err := w.run(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			res, err := buildResult(o, traced)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, v := range res.Metrics {
				if v.Value != v.Value { // NaN
					t.Errorf("%s trace=%v: %s is NaN", w.name, traced, name)
				}
			}
			if !traced && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s = %v", w.name, res.Metrics["setup_s"].Value)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, declared)
	}
	same := func(kind string, specs []metricSpec, decl []struct{ Name, Unit string }) {
		if len(specs) != len(decl) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(specs), len(decl))
			return
		}
		for i, s := range specs {
			if s.name != decl[i].Name || s.unit != decl[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, s.name, s.unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
}
