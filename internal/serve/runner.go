package serve

import (
	"encoding/json"
	"fmt"

	"hypersearch/internal/core"
	"hypersearch/internal/envpool"
	"hypersearch/internal/metrics"
	"hypersearch/internal/netarena"
	"hypersearch/internal/netsim/faultlink"
	"hypersearch/internal/strategy"
)

// RunRecord is the service's per-run result: the paper's cost summary
// plus, for network runs, the wire accounting. Records are what the
// journal persists, the cache memoizes, and the stream carries — and
// because runs are deterministic, a record is byte-identical whether
// it came from a fresh simulation, the cache, or a journal replay.
type RunRecord struct {
	Dim      int    `json:"d"`
	Protocol string `json:"protocol"`
	Engine   string `json:"engine"`
	Seed     int64  `json:"seed"`

	// Cached marks a record served from the result cache instead of a
	// fresh simulation. It is presentation metadata: it is stripped
	// before caching, journaling, and serial-equivalence comparison.
	Cached bool `json:"cached,omitempty"`

	Result metrics.Result `json:"result"`
	Net    *NetStats      `json:"net,omitempty"` // network engine only
}

// approxBytes estimates the record's resident size for the cache's
// byte budget as its canonical JSON length — the same bytes the
// journal and the stream pay for it.
func (r RunRecord) approxBytes() int64 {
	b, err := json.Marshal(r)
	if err != nil {
		return cacheEntryOverhead // unreachable: records marshal by construction
	}
	return int64(len(b))
}

// NetStats is the wire-level accounting of a network-engine run.
type NetStats struct {
	AgentMessages  int64             `json:"agent_messages"`
	BeaconMessages int64             `json:"beacon_messages"`
	BeaconBits     int64             `json:"beacon_bits"`
	Link           faultlink.Summary `json:"link"`
}

// fleet is one campaign executor's per-worker simulation state: a DES
// environment pool and a netsim arena per sched worker. An executor
// runs one campaign at a time and sched.MapW runs one task at a time
// per worker, so fleet state needs no locking — the same contract
// experiments.sourcePools relies on.
type fleet struct {
	pools  []*envpool.Pool
	arenas []*netarena.Arena
}

func newFleet(workers int) *fleet {
	f := &fleet{
		pools:  make([]*envpool.Pool, workers),
		arenas: make([]*netarena.Arena, workers),
	}
	for i := 0; i < workers; i++ {
		f.pools[i] = envpool.New()
		f.arenas[i] = netarena.New()
	}
	return f
}

// run executes one spec on worker w's pooled state. A panic inside the
// simulation propagates (sched converts it to a *PanicError and fails
// the campaign); the Release is then skipped, so the poisoned
// environment or fabric is dropped from the pool — never reused — and
// the next Acquire builds a fresh replacement.
func (f *fleet) run(w int, spec RunSpec) (RunRecord, error) {
	return executeSpec(f.pools[w], f.arenas[w], spec)
}

// executeSpec is the single simulation entry point shared by the
// service path and the serial reference path, so "byte-identical to
// the batch path" is a property of scheduling and caching, not of two
// divergent run implementations. DES environments come from src: the
// fleet's pools, or fresh environments for the serial path.
func executeSpec(src strategy.Source, arena *netarena.Arena, spec RunSpec) (RunRecord, error) {
	rec := RunRecord{Dim: spec.Dim, Protocol: spec.Protocol, Engine: spec.Engine, Seed: spec.Seed}
	cs := core.Spec{
		Strategy:           spec.Protocol,
		Dim:                spec.Dim,
		Engine:             spec.Engine,
		Seed:               spec.Seed,
		AdversarialLatency: spec.AdversarialLatency,
		Faults:             spec.Plan,
	}
	switch spec.Engine {
	case EngineDES, "":
		res, env, err := core.RunWith(cs, src)
		if err != nil {
			return rec, err
		}
		src.Release(env)
		rec.Engine = EngineDES
		rec.Result = res
	case EngineNetwork:
		st, err := core.RunNetwork(cs, arena)
		if err != nil {
			return rec, err
		}
		rec.Result = st.Result
		rec.Net = &NetStats{
			AgentMessages:  st.AgentMessages,
			BeaconMessages: st.BeaconMessages,
			BeaconBits:     st.BeaconBits,
			Link:           st.Link,
		}
	default:
		return rec, fmt.Errorf("serve: unknown engine %q", spec.Engine)
	}
	return rec, nil
}

// SerialRecords executes the request's expansion one run at a time on
// fresh environments — the repo's classic batch path, no scheduler, no
// cache, no service. The load-test harness compares every campaign the
// service completes against this reference byte-for-byte; determinism
// demands equality. A fresh environment's simulator retires its
// process goroutines when its run returns, so repeated calls leave
// none parked behind (a pool's environments keep theirs for reuse).
func SerialRecords(req *Request) ([]RunRecord, error) {
	q := *req // normalize a copy; the caller's request stays as submitted
	q.Normalize()
	arena := netarena.New()
	specs := q.Expand()
	out := make([]RunRecord, 0, len(specs))
	for _, spec := range specs {
		rec, err := executeSpec(strategy.Fresh{}, arena, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
