package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hypersearch/internal/bits"
	"hypersearch/internal/board"
	"hypersearch/internal/combin"
	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/trace"
)

// VisibilityName identifies the concurrent visibility run in results.
const VisibilityName = "visibility-goroutines"

// whiteboard field names used by the visibility agents.
const (
	fieldAgents  = "agents"  // agents currently gathered on the node
	fieldPlanned = "planned" // 1 once some agent published the dispatch plan
	fieldQuota   = "quota."  // per-child remaining dispatch quota (suffix: child index)
)

// RunVisibility executes CLEAN WITH VISIBILITY with one goroutine per
// agent. Each agent runs the identical local program of Section 4.2:
// gather on a node, wait until the complement is present and every
// smaller neighbour is clean or guarded (read under the node's
// visibility), claim a child slot on the whiteboard, and move.
//
// cfg.Faults injects stalls, latency spikes, whiteboard lock
// starvation, and lost visibility wakeups; given a plan, a periodic
// re-broadcaster (the visibility model's watchdog) heals the lost
// wakeups. Crash faults are rejected: the local rule has no order
// ledger to reconstruct a dead agent's duty from, so crash recovery is
// the coordinated runtime's province.
func RunVisibility(d int, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	inj, err := cfg.injector()
	if err != nil {
		return Report{}, err
	}
	if cfg.Faults != nil && cfg.Faults.RequiresRecovery() {
		return Report{}, fmt.Errorf("runtime: crash faults require the coordinated runtime (RunClean); the visibility local rule is not crash-recoverable")
	}
	w := newWorld(d, cfg, inj)
	team := int(combin.VisibilityAgents(d))
	w.initAgents(team, team)
	w.wb.At(0).Write(w.fAgents, int64(team))

	if d == 0 {
		w.mu.Lock()
		w.terminateAllLocked()
		w.mu.Unlock()
		return w.report(VisibilityName, team, 0), nil
	}

	var quit chan struct{}
	if inj != nil {
		quit = make(chan struct{})
		go w.rebroadcaster(quit)
	}
	var wg sync.WaitGroup
	for i := 0; i < team; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.agentProgram(i, rand.New(rand.NewSource(deriveSeed(cfg.Seed, uint64(i)))))
		}(i)
	}
	wg.Wait()
	if inj != nil {
		close(quit)
	}
	return w.report(VisibilityName, team, 0), nil
}

// rebroadcaster periodically wakes every waiter, so a wakeup swallowed
// by the fault injector only costs time, never liveness.
func (w *world) rebroadcaster(quit chan struct{}) {
	t := time.NewTicker(w.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-quit:
			return
		case <-t.C:
			w.mu.Lock()
			w.cond.Broadcast()
			w.mu.Unlock()
		}
	}
}

// agentProgram is the local rule one agent executes until it retires
// on a broadcast-tree leaf, with fault hooks on every move and
// broadcast.
func (w *world) agentProgram(id int, rng *rand.Rand) {
	at := 0
	for {
		w.mu.Lock()
		k := w.bt.Type(at)
		if k == 0 {
			// Leaf: terminate in place.
			w.b.Terminate(id, w.step)
			w.record(trace.Event{Time: w.step, Kind: trace.Terminate, Agent: id, From: at, To: at})
			w.step++
			w.exited[id] = true
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		}
		required := heapqueue.AgentsRequired(k)
		// The gather condition must latch: once any member of the
		// complement observes it and publishes the dispatch plan,
		// members that re-check later (after peers already departed,
		// shrinking the count) must still pass. "planned" is that
		// latch.
		for !(w.wb.At(at).Read(w.fPlanned) == 1 ||
			(w.wb.At(at).Read(w.fAgents) == required && w.smallerReadyLocked(at))) {
			w.cond.Wait()
		}
		target := w.claimSlotLocked(at, k)
		w.mu.Unlock()

		act := w.action(faults.MoveCtx{Agent: id})
		w.sleepUnits(act.Delay)
		sleepLatency(rng, w.cfg.MaxLatency)

		w.mu.Lock()
		w.wb.At(at).Add(w.fAgents, -1)
		w.wb.At(target).Add(w.fAgents, 1)
		w.b.Move(id, target, w.step)
		w.record(trace.Event{Time: w.step, Kind: trace.Move, Agent: id, From: at, To: target, Role: "cleaner"})
		w.step++
		if act.Hold > 0 && w.cfg.FaultUnit > 0 {
			time.Sleep(time.Duration(act.Hold) * w.cfg.FaultUnit)
		}
		w.broadcastLocked()
		w.mu.Unlock()
		at = target
	}
}

// smallerReadyLocked is the visibility read: every smaller neighbour
// of v is clean or guarded. Caller holds w.mu.
func (w *world) smallerReadyLocked(v int) bool {
	ready := true
	w.h.VisitSmallerNeighbours(v, func(u int) bool {
		ready = w.b.StateOf(u) != board.Contaminated
		return ready
	})
	return ready
}

// claimSlotLocked atomically claims one dispatch slot on v's
// whiteboard, publishing the plan on first access, and returns the
// claimed child. Caller holds w.mu.
func (w *world) claimSlotLocked(v, k int) int {
	wb := w.wb.At(v)
	if wb.Read(w.fPlanned) == 0 {
		wb.Write(w.fPlanned, 1)
		for i, q := range heapqueue.DispatchPlan(k) {
			wb.Write(w.fQuota[i], q)
		}
	}
	// Quota slot i belongs to the child across label m(v)+1+i.
	msb := bits.Msb(bits.Node(v))
	for i := 0; i < k; i++ {
		if wb.Read(w.fQuota[i]) > 0 {
			wb.Add(w.fQuota[i], -1)
			return w.h.Neighbour(v, msb+1+i)
		}
	}
	panic(fmt.Sprintf("runtime: node %d has no free dispatch slot", v))
}

// quotaField names the per-child dispatch-quota fields; interned once
// in newWorld.
func quotaField(i int) string { return fmt.Sprintf("%s%d", fieldQuota, i) }
