package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// request is one unit a client submits and waits for: a sweep batch
// (one sched.MapW call of `workers` runs) or a service campaign.
type request struct {
	due      time.Time // when it was due to be sent
	ack      time.Time // sweep: first run holds its environment; campaign: 202 returned
	firstRun time.Time // first run's result available (campaign: first run chunk flushed)
	done     time.Time // last result available (campaign: done chunk flushed)
	answered bool      // got a terminal answer; refused requests have none
	ok       bool      // answered, and every output passed its check
	traced   bool
}

// window is what one measured window produced.
type window struct {
	reqs    []request
	runMS   []float64 // wall time of each strategy run
	runs    int       // runs completed
	elapsed time.Duration
}

// latencies returns the request latencies (ms) from due time to the
// given instant, over answered requests matching traced.
func (w window) latencies(at func(request) time.Time, traced bool) []float64 {
	var xs []float64
	for _, r := range w.reqs {
		if r.answered && r.traced == traced {
			xs = append(xs, ms(at(r).Sub(r.due)))
		}
	}
	return xs
}

// withinLimit is the share of attempted requests answered correctly
// within limit of their due time; refused and failed requests miss.
func (w window) withinLimit(limit time.Duration) float64 {
	n := 0
	for _, r := range w.reqs {
		if r.ok && r.done.Sub(r.due) <= limit {
			n++
		}
	}
	return share(float64(n), float64(len(w.reqs)))
}

func ackAt(r request) time.Time      { return r.ack }
func firstRunAt(r request) time.Time { return r.firstRun }
func doneAt(r request) time.Time     { return r.done }

// endToEnd computes the latency and throughput metrics of an untraced
// window. reqTail and runTail are the workload's tail percentiles.
func (w window) endToEnd(reqTail, runTail float64, limit time.Duration) map[string]float64 {
	m := map[string]float64{
		"runs_per_s":         share(float64(w.runs), w.elapsed.Seconds()),
		"run_ms.p50":         quantile(w.runMS, 0.5),
		"run_ms.tail":        quantile(w.runMS, runTail),
		"within_limit_share": w.withinLimit(limit),
	}
	for name, at := range map[string]func(request) time.Time{"ack_ms": ackAt, "first_run_ms": firstRunAt, "done_ms": doneAt} {
		xs := w.latencies(at, false)
		m[name+".p50"] = quantile(xs, 0.5)
		// The ack tail is mostly the journal's fsync, and a contended
		// host moved it by more than any bound allows; its percentiles
		// stay in the report's latency notes.
		if name != "ack_ms" {
			m[name+".tail"] = quantile(xs, reqTail)
		}
	}
	return m
}

// latencyNotes records a fixed set of percentiles and the maximum of
// each request latency, so a report shows the shape behind its tails.
func (w window) latencyNotes(notes map[string]any) {
	for name, at := range map[string]func(request) time.Time{"ack_ms": ackAt, "first_run_ms": firstRunAt, "done_ms": doneAt} {
		xs := w.latencies(at, false)
		d := map[string]float64{}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
			d[fmt.Sprintf("p%g", 100*q)] = quantile(xs, q)
		}
		notes[name+".distribution"] = d
	}
}

// overheadShare compares traced with untraced requests of one
// interleaved window: (traced done p50 - untraced done p50) / untraced
// done p50.
func (w window) overheadShare() float64 {
	base := median(w.latencies(doneAt, false))
	return share(median(w.latencies(doneAt, true))-base, base)
}

// tailNotes records which percentile each tail metric used and how many
// samples it rests on, and warns when the percentile rule no longer
// holds at the sample count actually measured.
func tailNotes(notes map[string]any, name string, q float64, n int) {
	notes[name+".percentile"] = 100 * q
	notes[name+".samples"] = n
	if q > 0.5 && float64(n)*(1-q) < 10-1e-9 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s is p%g over %d samples, fewer than 10 beyond it\n", name, 100*q, n)
	}
}

// setupTimes performs the workload's set-up n times, each in a fresh
// child process so every one is cold (process-wide caches such as the
// topology cache start empty), and returns the durations in seconds.
func setupTimes(opt options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", opt.workload,
			"--seed", strconv.FormatInt(opt.seed, 10), "--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"--out", opt.out)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			return nil, fmt.Errorf("set-up probe %d printed nothing", i)
		}
		s, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// setupSamples is how many cold set-ups a --trace 0 run times.
const setupSamples = 7

// peakRSSMB reads the process's peak resident set (VmHWM) in MB,
// falling back to the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// cpuTicks reads the machine's CPU tick counters from /proc/stat: all
// ticks, and those stolen by the hypervisor for other guests. Their
// change over a run tells a window slowed by a contended host; zeros
// where the file is missing.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	mallocs, bytes, pauseNS uint64
	gcs                     uint32
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNS: m.PauseTotalNs, gcs: m.NumGC}
}

// goMetrics reports the runtime counters: allocations per strategy run
// between the window's two snapshots, and GC cycles and pause from
// process start to the window's end, set-up included (a sweep of
// visibility allocates nothing in its window, and a process that never
// collects would read 0 on every run).
func goMetrics(m map[string]float64, before, after goStats, runs int) {
	m["go.allocs_per_run"] = share(float64(after.mallocs-before.mallocs), float64(runs))
	m["go.bytes_per_run"] = share(float64(after.bytes-before.bytes), float64(runs))
	m["go.gc_cycles"] = float64(after.gcs)
	m["go.gc_pause_ms"] = float64(after.pauseNS) / 1e6
}

// mix64 is the splitmix64 finalizer: a seeded, well-spread hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// deriveSeed derives the i-th sub-seed of a workload seed.
func deriveSeed(seed int64, i int) int64 {
	return int64(mix64(mix64(uint64(seed))+uint64(i)) >> 1)
}
