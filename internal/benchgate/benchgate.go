// Package benchgate is the benchmark regression gate: it owns the
// BENCH.json schema written by cmd/hqbench and compares a freshly
// measured report against a committed baseline under tolerance bands.
// Wall-clock moves with the hardware, so ns/op gets a wide relative
// band; allocation counts are deterministic for a pinned workload, so
// allocs/op must be exact-or-better. `make bench-check` runs the gate
// in CI and fails listing the offending families.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Result is one family's measurement.
type Result struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	// Reruns and NsSpread are present when hqbench -reruns re-measured
	// the family: NsPerOp is the minimum over the reruns and NsSpread
	// their relative spread, (max-min)/min. A wide spread means the
	// machine was too noisy for the reading to gate anything.
	Reruns   int     `json:"reruns,omitempty"`
	NsSpread float64 `json:"ns_spread,omitempty"`
}

// Provenance records where a report came from, so committed
// BENCH_*.json baselines are attributable: the git commit the suite
// ran at, the Go toolchain, the kernel release and the CPU count.
// Every field is best-effort — a missing git binary or a non-repo
// checkout leaves its field empty rather than failing the run — and
// the gate never compares provenance, only measurements.
type Provenance struct {
	GitCommit string `json:"git_commit,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
	NumCPU    int    `json:"num_cpu,omitempty"`
}

// Report is the whole BENCH.json document.
type Report struct {
	Schema     string      `json:"schema"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Provenance *Provenance `json:"provenance,omitempty"`
	Families   []Result    `json:"families"`
}

// Load reads a report from disk.
func Load(path string) (Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("benchgate: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return Report{}, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return rep, nil
}

// DefaultNsTolerance is the relative ns/op regression band: wall-clock
// readings on shared CI hardware jitter, so only a slowdown beyond 25%
// of the baseline fails the gate.
const DefaultNsTolerance = 0.25

// Violation is one family measurement outside its tolerance band.
type Violation struct {
	Family string
	Field  string // "ns/op", "allocs/op", "missing" or "metrics[<key>]"
	Base   int64
	Got    int64
	Limit  int64 // largest acceptable value

	// BaseF/GotF carry the values for metrics[<key>] violations; the
	// paper metrics are recorded as float64 in the schema.
	BaseF float64
	GotF  float64
}

func (v Violation) String() string {
	if v.Field == "missing" {
		return fmt.Sprintf("%s: family present in baseline but not measured", v.Family)
	}
	if v.Field == "ns_spread" {
		return fmt.Sprintf("%s: ns/op spread %.1f%% across %d reruns exceeds the %.1f%% band — the machine is too noisy for this reading to be a baseline",
			v.Family, 100*v.GotF, v.Base, 100*v.BaseF)
	}
	if strings.HasPrefix(v.Field, "metrics[") {
		return fmt.Sprintf("%s: %s diverged: baseline %v, measured %v — paper metrics are deterministic, so this is a correctness regression, not noise",
			v.Family, v.Field, v.BaseF, v.GotF)
	}
	return fmt.Sprintf("%s: %s regressed: baseline %d, limit %d, measured %d",
		v.Family, v.Field, v.Base, v.Limit, v.Got)
}

// Subset returns a copy of base keeping only the named families, in
// baseline order. Subset runs (hqbench -families) gate against it so
// the families they deliberately skipped do not fail the comparison as
// "missing"; a full run must still gate against the full baseline to
// keep that protection.
func Subset(base Report, names []string) Report {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	out := base
	out.Families = nil
	for _, f := range base.Families {
		if keep[f.Name] {
			out.Families = append(out.Families, f)
		}
	}
	return out
}

// DefaultSpreadBand is the default relative ns/op spread allowed
// across hqbench reruns of one family before the run is rejected as
// too noisy to serve as a baseline or to gate one.
const DefaultSpreadBand = 0.40

// SpreadViolations rejects rerun-measured families whose ns/op spread
// exceeds the band (band <= 0 selects DefaultSpreadBand). Families
// measured without reruns carry no spread and are never rejected here.
func SpreadViolations(rep Report, band float64) []Violation {
	if band <= 0 {
		band = DefaultSpreadBand
	}
	var out []Violation
	for _, f := range rep.Families {
		if f.Reruns > 1 && f.NsSpread > band {
			out = append(out, Violation{
				Family: f.Name, Field: "ns_spread",
				Base: int64(f.Reruns), BaseF: band, GotF: f.NsSpread,
			})
		}
	}
	return out
}

// Compare checks got against base family by family (matched on name)
// and returns every violation, in baseline order:
//
//   - ns/op may grow by at most nsTol relative to the baseline
//     (nsTol <= 0 selects DefaultNsTolerance);
//   - allocs/op must be exact-or-better — allocation counts for a
//     pinned, pooled workload are deterministic, so any extra
//     allocation is a real regression, not noise;
//   - every paper metric in the baseline (agents, moves, steps …)
//     must match exactly — the workloads are seeded and deterministic,
//     so a metrics drift means the computation changed, turning the
//     perf gate into a correctness diff as well;
//   - a baseline family missing from got is a violation (a silently
//     dropped benchmark would otherwise pass forever).
//
// Families measured in got but absent from base are ignored: new
// benchmarks land before their baseline is regenerated.
func Compare(base, got Report, nsTol float64) []Violation {
	if nsTol <= 0 {
		nsTol = DefaultNsTolerance
	}
	measured := make(map[string]Result, len(got.Families))
	for _, f := range got.Families {
		measured[f.Name] = f
	}
	var out []Violation
	for _, b := range base.Families {
		g, ok := measured[b.Name]
		if !ok {
			out = append(out, Violation{Family: b.Name, Field: "missing"})
			continue
		}
		nsLimit := b.NsPerOp + int64(float64(b.NsPerOp)*nsTol)
		if g.NsPerOp > nsLimit {
			out = append(out, Violation{
				Family: b.Name, Field: "ns/op",
				Base: b.NsPerOp, Got: g.NsPerOp, Limit: nsLimit,
			})
		}
		if g.AllocsPerOp > b.AllocsPerOp {
			out = append(out, Violation{
				Family: b.Name, Field: "allocs/op",
				Base: b.AllocsPerOp, Got: g.AllocsPerOp, Limit: b.AllocsPerOp,
			})
		}
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if gv := g.Metrics[k]; gv != b.Metrics[k] {
				out = append(out, Violation{
					Family: b.Name, Field: "metrics[" + k + "]",
					BaseF: b.Metrics[k], GotF: gv,
				})
			}
		}
	}
	return out
}
