// Package serve is the sweep-as-a-service layer: a long-lived daemon
// (cmd/hqserved) that accepts concurrent campaign requests — a
// dimension range, a protocol set, seeds, and an optional fault plan —
// schedules their runs onto the repo's per-worker envpool/netarena
// fleet through internal/sched, and streams per-run progress as
// chunked JSONL.
//
// The robustness contract, built on the determinism contract of PRs
// 1-8 (every run is a pure function of (d, protocol, seed, plan)):
//
//   - Admission control: at most MaxActive campaigns execute at once
//     (bounded by runtime.NumCPU()), a bounded queue holds the rest,
//     and submissions beyond the queue are shed with 429 — overload
//     degrades into explicit rejection, never into an unbounded pile
//     of goroutines.
//   - Deadlines and cancellation: every campaign carries a context;
//     when it expires, runs not yet started are skipped and in-flight
//     runs finish cleanly (aborting a simulation mid-run would poison
//     its pooled environment — see sched.MapWCtx).
//   - Panic isolation: a panicking run surfaces as sched.*PanicError
//     and fails its own campaign; the worker's poisoned pool entry is
//     dropped (envpool/netarena never repool an incomplete run) and
//     replaced lazily, and the daemon keeps serving.
//   - Crash safety: accepted requests and completion records append to
//     an fsync'd JSONL journal; a restarted daemon re-runs interrupted
//     campaigns (determinism makes the re-run identical) and serves
//     completed ones from the journal without re-simulation. The
//     journal is bounded: compaction rewrites it as its snapshot
//     (completed campaigns collapsed to one record, interrupted ones
//     kept as accepted entries) via temp file + fsync + atomic rename,
//     automatically past a live-fraction threshold or on POST /compact,
//     and replay-after-compaction is equivalent by construction.
//   - Result cache: runs are memoized by (d, protocol, engine, seed,
//     latency, plan.CanonicalHash()); a hit is byte-identical to a
//     re-simulation, so repeated queries under multi-user traffic cost
//     one map lookup. The cache is a bounded LRU (entry-count and
//     approximate-byte budgets); an evicted key just re-simulates, so
//     eviction never changes what a request returns.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"hypersearch/internal/core"
	"hypersearch/internal/faults"
	"hypersearch/internal/suggest"
)

// Engine names a campaign may request.
const (
	EngineDES     = "des"     // deterministic discrete-event engine (default)
	EngineNetwork = "network" // message-passing goroutine hosts (netsim)
)

// MaxRequestBytes bounds one submission body so a hostile client
// cannot balloon the decoder.
const MaxRequestBytes = 1 << 20

// Request is one campaign submission: the cartesian product of a
// dimension range, a protocol set and a seed list, all under one
// engine and optional fault plan.
type Request struct {
	Name      string   `json:"name,omitempty"`
	DimMin    int      `json:"dim_min"`
	DimMax    int      `json:"dim_max,omitempty"` // default DimMin
	Protocols []string `json:"protocols"`
	Seeds     []int64  `json:"seeds,omitempty"`  // default [0]
	Engine    string   `json:"engine,omitempty"` // "des" (default) or "network"

	// AdversarialLatency > 0 runs the asynchronous adversary: per-move
	// latencies in [1, v] on the DES engine, per-delivery latencies up
	// to v microseconds on the network engine.
	AdversarialLatency int64 `json:"adversarial_latency,omitempty"`

	// Faults optionally injects a deterministic fault plan into every
	// run. DES campaigns take the delay faults stall, latency-spike,
	// lock-starve and kernel-lag; network campaigns take the link
	// faults link-drop, link-dup, link-delay, host-crash, partition and
	// cascade, except that clean takes no host-crash or cascade. Any
	// other kind (crash and lost-wakeup need the goroutine runtime) is
	// rejected at admission; core.Spec.Faults states the same table.
	Faults *faults.Plan `json:"faults,omitempty"`

	// DeadlineMS caps the campaign's wall-clock execution; 0 uses the
	// server default. Past the deadline, remaining runs are skipped
	// and the campaign completes as "deadline-exceeded".
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// RunSpec is one expanded run of a campaign.
type RunSpec struct {
	Dim                int
	Protocol           string
	Engine             string
	Seed               int64
	AdversarialLatency int64
	Plan               *faults.Plan
}

// Key is the result-cache identity of a run: determinism means two
// runs with equal keys produce byte-identical results, so a cache hit
// substitutes for a re-simulation exactly.
type Key struct {
	Engine   string
	Protocol string
	Dim      int
	Seed     int64
	Latency  int64
	PlanHash string
}

// Key returns the spec's result-cache identity.
func (r RunSpec) Key() Key {
	return Key{
		Engine:   r.Engine,
		Protocol: r.Protocol,
		Dim:      r.Dim,
		Seed:     r.Seed,
		Latency:  r.AdversarialLatency,
		PlanHash: r.Plan.CanonicalHash(),
	}
}

// protocolsFor lists the protocols served on engine: core's strategies
// for it, in core's order, less the naive baselines. The service exists
// for the paper's strategies, and naive-convoy's team size is not part
// of a run's cache key.
func protocolsFor(engine string) []string {
	return slices.DeleteFunc(core.EngineStrategies(engine), func(p string) bool {
		return p == core.NaiveDFS || p == core.NaiveConvoy
	})
}

// ParseRequest decodes one campaign submission, rejecting unknown
// fields so typos fail loudly instead of silently defaulting.
// Validation is separate (Validate) so recovered journal entries can
// re-validate against the server limits of the day.
func ParseRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBytes))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: decoding campaign request: %w", err)
	}
	return &req, nil
}

// Limits are the admission bounds a request is validated against.
type Limits struct {
	MaxDim  int // largest admissible dimension
	MaxRuns int // largest admissible expansion
}

// Normalize fills the request's defaults in place: DimMax from DimMin,
// the [0] seed list, the DES engine.
func (q *Request) Normalize() {
	if q.DimMax == 0 {
		q.DimMax = q.DimMin
	}
	if len(q.Seeds) == 0 {
		q.Seeds = []int64{0}
	}
	if q.Engine == "" {
		q.Engine = EngineDES
	}
}

// Validate checks the normalized request against the admission rules
// and limits. Every rejection names what to fix; unknown protocols
// come back with the nearest real one.
func (q *Request) Validate(lim Limits) error {
	switch q.Engine {
	case EngineDES, EngineNetwork:
	default:
		return fmt.Errorf("unknown engine %q (want %q or %q)", q.Engine, EngineDES, EngineNetwork)
	}
	if q.DimMin < 1 {
		return fmt.Errorf("dim_min %d: need >= 1", q.DimMin)
	}
	if q.DimMax < q.DimMin {
		return fmt.Errorf("dimension range [%d,%d] is empty", q.DimMin, q.DimMax)
	}
	if q.DimMax > lim.MaxDim {
		return fmt.Errorf("dim_max %d exceeds the server's limit %d", q.DimMax, lim.MaxDim)
	}
	known := protocolsFor(q.Engine)
	if len(q.Protocols) == 0 {
		return fmt.Errorf("no protocols requested (want a subset of %v)", known)
	}
	seen := map[string]bool{}
	for _, p := range q.Protocols {
		if !slices.Contains(known, p) {
			if close := suggest.Nearest(p, known); close != "" {
				return fmt.Errorf("unknown protocol %q on engine %q — did you mean %q?", p, q.Engine, close)
			}
			return fmt.Errorf("unknown protocol %q on engine %q", p, q.Engine)
		}
		if seen[p] {
			return fmt.Errorf("protocol %q requested twice", p)
		}
		seen[p] = true
		if p == core.Clean && q.DimMin < 2 {
			return fmt.Errorf("protocol %q needs dim_min >= 2 (the coordinated schedule's orders exist from d=2)", p)
		}
	}
	seenSeed := map[int64]bool{}
	for _, sd := range q.Seeds {
		if seenSeed[sd] {
			// Same error shape as duplicate protocols: a duplicate seed
			// would inflate the run count against MaxRuns and emit
			// duplicate records.
			return fmt.Errorf("seed %d requested twice", sd)
		}
		seenSeed[sd] = true
	}
	if q.AdversarialLatency < 0 {
		return fmt.Errorf("adversarial_latency %d is negative", q.AdversarialLatency)
	}
	if q.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms %d is negative", q.DeadlineMS)
	}
	if n := q.runs(); n > lim.MaxRuns {
		return fmt.Errorf("campaign expands to %d runs, server limit is %d", n, lim.MaxRuns)
	}
	// core decides what each engine runs: dimensions, fault kinds, and
	// a plan's fit to the topology. A link target valid on H_8 may name
	// a host outside H_4, so every dimension of the range is checked.
	for d := q.DimMin; d <= q.DimMax; d++ {
		for _, p := range q.Protocols {
			spec := core.Spec{Strategy: p, Dim: d, Engine: q.Engine, Faults: q.Faults}
			if err := core.Check(spec); err != nil {
				return fmt.Errorf("at d=%d: %w", d, err)
			}
		}
	}
	return nil
}

// runs is the expansion size of the normalized request.
func (q *Request) runs() int {
	return (q.DimMax - q.DimMin + 1) * len(q.Protocols) * len(q.Seeds)
}

// Expand lists the campaign's runs in canonical input order —
// dimension-major, then the protocols as requested, then seeds — the
// order results are reported in, independent of scheduling.
func (q *Request) Expand() []RunSpec {
	specs := make([]RunSpec, 0, q.runs())
	for d := q.DimMin; d <= q.DimMax; d++ {
		for _, p := range q.Protocols {
			for _, s := range q.Seeds {
				specs = append(specs, RunSpec{
					Dim:                d,
					Protocol:           p,
					Engine:             q.Engine,
					Seed:               s,
					AdversarialLatency: q.AdversarialLatency,
					Plan:               q.Faults,
				})
			}
		}
	}
	return specs
}
