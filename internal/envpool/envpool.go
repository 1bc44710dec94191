// Package envpool pools strategy execution environments so sweeps
// reuse them across runs instead of rebuilding the hypercube,
// broadcast tree, board and trace buffers every time — the dominant
// cost of a swept run now that DES event dispatch is allocation-free.
//
// Sharing contract (see ALGORITHMS.md, "Environment reset contract"):
//
//   - hypercube.Hypercube and heapqueue.Tree are immutable after
//     construction, so one pair per dimension is shared read-only by
//     every environment the pool hands out — including concurrently,
//     across pools, via the process-wide topology cache.
//   - board.Board, trace.Log, the per-node signals, role counters and
//     scratch lists are mutable per-run state; Acquire resets them in
//     O(n) before reuse.
//   - An environment whose run did not complete (no Result taken —
//     typically a panic mid-simulation) is poisoned: Release drops it
//     instead of pooling it, because its queue and signals may still
//     hold actors mid-program.
//
// A Pool is NOT safe for concurrent use. Parallel sweeps give each
// sched worker its own Pool (see experiments): workers then reuse
// environments without any locking on the hot path, and only the
// topology cache — read-mostly, guarded by an RWMutex — is shared.
package envpool

import (
	"sync"

	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/strategy"
)

// topo is the immutable per-dimension topology pair.
type topo struct {
	h  *hypercube.Hypercube
	bt *heapqueue.Tree
}

// topoKey distinguishes the two topology representations: one
// dimension can be cached both materialized (O(n·d) adjacency, shared
// by small-d sweeps) and implicit (O(1), XOR-computed, what big boards
// use), and the two must not collide.
type topoKey struct {
	d        int
	implicit bool
}

// topoCache shares topology pairs process-wide: building H_d and T(d)
// is O(n·d) (or O(1) implicit) and read-only afterwards, so even
// environments in different per-worker pools share one copy per
// dimension and representation.
var topoCache = struct {
	sync.RWMutex
	m map[topoKey]topo
}{m: map[topoKey]topo{}}

// Topology returns the shared immutable hypercube and broadcast tree
// for dimension d, building them on first use. The representation is
// chosen by size, matching hypercube.ForDim: materialized up to
// hypercube.MaterializeLimit, implicit beyond — which is what lets the
// pool serve d>24 at all.
func Topology(d int) (*hypercube.Hypercube, *heapqueue.Tree) {
	return topologyFor(d, d > hypercube.MaterializeLimit)
}

func topologyFor(d int, implicit bool) (*hypercube.Hypercube, *heapqueue.Tree) {
	key := topoKey{d: d, implicit: implicit}
	topoCache.RLock()
	t, ok := topoCache.m[key]
	topoCache.RUnlock()
	if ok {
		return t.h, t.bt
	}
	topoCache.Lock()
	defer topoCache.Unlock()
	if t, ok = topoCache.m[key]; ok {
		return t.h, t.bt
	}
	if implicit {
		t = topo{h: hypercube.Implicit(d), bt: heapqueue.Implicit(d)}
	} else {
		t = topo{h: hypercube.New(d), bt: heapqueue.New(d)}
	}
	topoCache.m[key] = t
	return t.h, t.bt
}

// Pool hands out reusable environments, at most one cached per
// dimension (a sweep worker runs one simulation at a time, so deeper
// stacks would only hold memory). It implements strategy.Source.
type Pool struct {
	envs map[int]*strategy.Env
}

// New returns an empty pool.
func New() *Pool { return &Pool{envs: map[int]*strategy.Env{}} }

// Acquire returns an environment for dimension d configured with
// opts: a pooled one reset in O(n) when available, otherwise a fresh
// one on the shared topology. The caller owns it until Release.
func (p *Pool) Acquire(d int, opts strategy.Options) *strategy.Env {
	if e := p.envs[d]; e != nil {
		delete(p.envs, d)
		e.Reset(opts)
		return e
	}
	h, bt := Topology(d)
	return strategy.NewEnvOn(h, bt, opts)
}

// Release returns an environment to the pool. Poisoned environments —
// those whose run never took a Result, i.e. panicked or was abandoned
// mid-simulation — are dropped: actors still queued or parked would
// resume mid-program on the next run, so they must never be reused.
func (p *Pool) Release(e *strategy.Env) {
	if e == nil || !e.Completed() {
		return
	}
	p.envs[e.H.Dim()] = e
}

var _ strategy.Source = (*Pool)(nil)
