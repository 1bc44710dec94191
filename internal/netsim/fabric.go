package netsim

import (
	"sync"
	"sync/atomic"
	"time"

	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
)

// Fabric is the reusable network fabric of one hypercube dimension:
// everything a netsim run builds per execution that is not the run's
// logical content — mailboxes, per-host scratch, validator ledgers and
// replay scratch, and the wire-fault layer's link/ledger state. A
// Fabric follows the envpool sharing contract (see ALGORITHMS.md,
// "Network arena reset contract"):
//
//   - the topology (hypercube + broadcast tree) is immutable and may
//     be shared process-wide (NewFabricOn accepts the envpool copy);
//   - all mutable state is reset in O(n) at the start of the next run;
//   - a run that panicked leaves the fabric poisoned (Completed stays
//     false), so pools must drop it — blocked host goroutines may
//     still hold references into its mailboxes and ledgers;
//   - every wall-clock timer a run schedules is registered with a
//     quiescence barrier, and the run drains the barrier before
//     returning, so no timer can outlive its run and touch a fabric
//     that has been handed to the next one.
//
// A Fabric is NOT safe for concurrent use: it hosts one run at a time.
type Fabric struct {
	d  int
	h  *hypercube.Hypercube
	bt *heapqueue.Tree

	net  *network  // visibility/cloning wiring, built on first use
	cnet *cleanNet // coordinated wiring, built on first use

	striped *stripedValidator
	ids     []int // boot-time agent id scratch

	completed bool
}

// NewFabric builds a fresh fabric with its own private topology.
func NewFabric(d int) *Fabric {
	return NewFabricOn(hypercube.New(d), heapqueue.New(d))
}

// NewFabricOn builds a fabric over a shared immutable topology pair
// (typically envpool.Topology's), the netsim analogue of
// strategy.NewEnvOn.
func NewFabricOn(h *hypercube.Hypercube, bt *heapqueue.Tree) *Fabric {
	return &Fabric{d: h.Dim(), h: h, bt: bt}
}

// Dim returns the fabric's hypercube dimension.
func (f *Fabric) Dim() int { return f.d }

// Completed reports whether the fabric's last run finished. A fabric
// whose run panicked mid-flight reports false and must not be pooled.
func (f *Fabric) Completed() bool { return f.completed }

// Quiesce blocks until every wall-clock timer scheduled by the
// fabric's runs — delivery latencies and the wire-fault layer's
// retransmit/delay/duplicate timers — has fired and returned. The Run
// functions quiesce before harvesting stats, so this is a no-op
// double-check for pools that want the guarantee explicit.
func (f *Fabric) Quiesce() {
	if f.net != nil {
		f.net.quiesce()
	}
	if f.cnet != nil {
		f.cnet.quiesce()
	}
}

// PendingTimers reports how many scheduled timers across the fabric's
// wiring have not yet completed; zero whenever no run is in flight.
func (f *Fabric) PendingTimers() int64 {
	var n int64
	if f.net != nil {
		n += f.net.timers.pending.Load()
		if f.net.flPool != nil {
			n += f.net.flPool.PendingTimers()
		}
	}
	if f.cnet != nil {
		n += f.cnet.timers.pending.Load()
		if f.cnet.flPool != nil {
			n += f.cnet.flPool.PendingTimers()
		}
	}
	return n
}

// begin marks a run in flight: the fabric stays poisoned until the
// run completes, so a panic anywhere in between keeps it out of pools.
func (f *Fabric) begin() { f.completed = false }

// complete marks the run finished; the fabric may be pooled again.
func (f *Fabric) complete() { f.completed = true }

// validator returns the run's invariant checker: the pooled striped
// validator reset for a new run, or a fresh one from the test hook.
func (f *Fabric) validator(cfg Config) validator {
	if cfg.newValidator != nil {
		return cfg.newValidator(f.h)
	}
	if f.striped == nil {
		f.striped = newStripedValidator(f.h)
	} else {
		f.striped.reset()
	}
	return f.striped
}

// bootIDs returns the length-n agent id scratch slice.
func (f *Fabric) bootIDs(n int) []int {
	if cap(f.ids) < n {
		f.ids = make([]int, n)
	}
	f.ids = f.ids[:n]
	return f.ids
}

// visNetwork returns the visibility/cloning wiring reset for a new
// run: mailboxes reopened with bounded retained capacity, message
// counters zeroed, and the wire-fault layer re-armed when the plan
// asks for it.
func (f *Fabric) visNetwork(cfg Config, val validator) *network {
	n := f.net
	if n == nil {
		n = &network{
			h: f.h, bt: f.bt,
			boxes:   make([]*Mailbox, f.h.Order()),
			scratch: make([]hostScratch, f.h.Order()),
		}
		for v := range n.boxes {
			n.boxes[v] = NewMailbox()
		}
		f.net = n
	} else {
		for _, q := range n.boxes {
			q.reset()
		}
	}
	n.cfg = cfg
	n.val = val
	n.agentMsgs.Store(0)
	n.beaconMsgs.Store(0)
	n.wireFaults()
	return n
}

// cleanNetwork returns the coordinated wiring reset for a new run.
func (f *Fabric) cleanNetwork(cfg Config, val validator) *cleanNet {
	c := f.cnet
	if c == nil {
		c = &cleanNet{
			h: f.h, bt: f.bt,
			boxes:   make([]*cleanMailbox, f.h.Order()),
			scratch: make([]cleanScratch, f.h.Order()),
		}
		for v := range c.boxes {
			c.boxes[v] = newCleanMailbox()
		}
		f.cnet = c
	} else {
		for _, q := range c.boxes {
			q.reset()
		}
	}
	c.cfg = cfg
	c.val = val
	c.moves.Store(0)
	c.syncMoves.Store(0)
	c.wireFaults()
	return c
}

// hostScratch is one visibility/cloning host's reusable protocol
// state; runHost re-arms it at host start, so the fabric-level reset
// stays O(1) per host.
type hostScratch struct {
	rng      hostRNG
	gathered []int  // agents stationed here this phase
	ready    uint64 // bitmask over SmallerNeighbours: beacon seen
}

// cleanScratch is one coordinated host's reusable state.
type cleanScratch struct {
	rng hostRNG
	st  cleanHost
}

// timerSet is a run's timer quiescence barrier: every time.AfterFunc
// the engine schedules registers at schedule time and deregisters only
// after its callback returns, and wait blocks until the count drains.
// Joining the host goroutines proves the protocol finished; draining
// the barrier proves no delivery is still in flight on a wall-clock
// timer — without it a delayed Send is a benign straggler on a
// throwaway network but a use-after-reuse on a pooled one.
type timerSet struct {
	wg      sync.WaitGroup
	pending atomic.Int64 // observable mirror of the WaitGroup count
}

// after schedules fn on a wall-clock timer under the barrier.
func (t *timerSet) after(d time.Duration, fn func()) {
	t.pending.Add(1)
	t.wg.Add(1)
	time.AfterFunc(d, func() {
		defer func() {
			t.pending.Add(-1)
			t.wg.Done()
		}()
		fn()
	})
}

// wait blocks until every scheduled timer has fired and returned. The
// engines' sends never chain timers, and wait is only called after
// the host goroutines have joined, so no new registration can race the
// drain.
func (t *timerSet) wait() { t.wg.Wait() }
