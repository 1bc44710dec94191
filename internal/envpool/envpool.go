// Package envpool pools strategy execution environments so sweeps
// reuse them across runs instead of rebuilding the board, trace
// buffers and strategy scratch every time — the dominant cost of a
// swept run now that DES event dispatch is allocation-free.
//
// Sharing contract (see ALGORITHMS.md, "Environment reset contract"):
//
//   - hypercube.Hypercube and heapqueue.Tree hold only d and compute
//     every query from the node's bits, so each environment builds its
//     own pair in O(1) and nothing is shared.
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
// environments without any locking.
package envpool

import (
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/strategy"
)

// Topology returns the hypercube and broadcast tree of dimension d. It
// remains for the benchmark module, which calls it.
func Topology(d int) (*hypercube.Hypercube, *heapqueue.Tree) {
	return hypercube.New(d), heapqueue.New(d)
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
// one. The caller owns it until Release.
func (p *Pool) Acquire(d int, opts strategy.Options) *strategy.Env {
	if e := p.envs[d]; e != nil {
		delete(p.envs, d)
		e.Reset(opts)
		return e
	}
	return strategy.NewEnv(d, opts)
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
