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
// logical content — one wiring (mailboxes, per-host scratch, the
// wire-fault layer's link/ledger state and the timer barrier) that
// visibility, cloning and CLEAN runs share, and the validator ledgers
// and replay scratch. A Fabric follows the envpool sharing contract
// (see ALGORITHMS.md, "Network arena reset contract"):
//
//   - the topology (hypercube + broadcast tree) holds only d and
//     computes every query from the node's bits, so it costs O(1);
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

	net *network // the one wiring of every protocol, built on first use

	striped *stripedValidator
	ids     []int // boot-time agent id scratch

	completed bool
}

// NewFabric builds a fresh fabric for dimension d.
func NewFabric(d int) *Fabric {
	return &Fabric{d: d, h: hypercube.New(d), bt: heapqueue.New(d)}
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
}

// PendingTimers reports how many scheduled timers on the fabric's
// wiring have not yet completed; zero whenever no run is in flight.
func (f *Fabric) PendingTimers() int64 {
	if f.net == nil {
		return 0
	}
	n := f.net.timers.pending.Load()
	if f.net.flPool != nil {
		n += f.net.flPool.PendingTimers()
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

// protocol is one message-passing program for Fabric.run: the loop
// every host goroutine runs and the boot that injects the placed team
// at the homebase.
type protocol struct {
	name   string
	stream uint64          // the hosts' latency stream tag
	team   func(int) int64 // agents placed at the homebase on H_d
	host   func(n *network, v int, sc *hostScratch)
	boot   func(n *network, ids []int)
}

// run is the one run skeleton of the three protocols: place the team,
// wire the network, boot the homebase, start one goroutine per host,
// join them, drain the timer barrier and harvest the Stats.
func (f *Fabric) run(cfg Config, p *protocol) Stats {
	f.begin()
	val := f.validator(cfg)
	ids := f.bootIDs(int(p.team(f.d)))
	for i := range ids {
		ids[i] = val.place()
	}
	if f.d == 0 {
		val.terminate(ids[0], 0)
		s := val.stats(0, 0)
		s.Strategy = p.name
		f.complete()
		return s
	}

	n := f.wire(cfg, val, p)
	// Boot injections bypass the fault layer: there is no link into
	// host 0's console, so the initial placement is reliable. Booting
	// before the hosts start changes nothing a host can observe, since
	// no host sends to the homebase before hearing from it.
	p.boot(n, ids)
	var wg sync.WaitGroup
	wg.Add(f.h.Order())
	for v := 0; v < f.h.Order(); v++ {
		go n.runHost(&wg, v)
	}
	wg.Wait()
	// Quiesce before harvesting: joining the hosts proves the protocol
	// finished, draining the timer barrier proves no wall-clock
	// delivery (a late duplicate copy, say) is still in flight into
	// the mailboxes and ledgers the next run will reuse.
	n.quiesce()
	s := val.stats(n.agentMsgs.Load(), n.beaconMsgs.Load())
	s.Strategy = p.name
	s.SyncMoves = n.syncMoves.Load()
	s.AgentMoves = s.TotalMoves - s.SyncMoves
	if n.fl != nil {
		s.Link = n.fl.SummaryStats()
	}
	f.complete()
	return s
}

// wire returns the fabric's wiring reset for a run of p: mailboxes
// reopened with bounded retained capacity, message counters zeroed,
// and the wire-fault layer re-armed when the plan asks for it.
func (f *Fabric) wire(cfg Config, val validator, p *protocol) *network {
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
	n.cfg, n.val, n.proto = cfg, val, p
	n.agentMsgs.Store(0)
	n.beaconMsgs.Store(0)
	n.syncMoves.Store(0)
	n.wireFaults()
	return n
}

// hostScratch is one host's reusable protocol state; runHost re-arms
// it at host start, so the fabric-level reset stays O(1) per host.
// Visibility and cloning use gathered and ready, CLEAN gathered and
// the rest.
type hostScratch struct {
	rng       hostRNG
	gathered  []int      // agents stationed here this phase
	ready     uint64     // bitmask over smaller neighbours: beacon seen
	pool      []int      // CLEAN root: parked cleaners
	sync      *syncState // CLEAN: the synchronizer, while it is here
	shutdowns int        // CLEAN: Shutdown messages heard (retire at d)
	closed    bool       // CLEAN: this host has forwarded the shutdown
}

// rearm resets the scratch for host v's next run, keeping slice
// capacity.
func (sc *hostScratch) rearm(seed int64, v int, stream uint64) {
	*sc = hostScratch{rng: newHostRNG(seed, v, stream), gathered: sc.gathered[:0], pool: sc.pool[:0]}
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
