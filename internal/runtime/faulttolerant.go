package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hypersearch/internal/faults"
)

// The crash-recovery protocol of the coordinated runtime: an order
// ledger every walk is recorded on before it starts, per-agent leases
// renewed by heartbeats and sampled by a watchdog, fencing of expired
// agents, and reassignment of their unfinished walks to spares. Only a
// run given a fault plan starts the heartbeats and the watchdog.

// Whiteboard fields of the recovery protocol, all on the homebase
// board (the root is clean from the start and every agent can reach
// it, so it doubles as the durable registry of the paper's model).
const (
	fieldCk    = "ck"          // synchronizer checkpoint: completed steps
	fieldEpoch = "sync.epoch." // re-election CAS field, one per epoch
	fieldLease = "lease."      // per-agent heartbeat counter
)

// Field names for the per-agent and per-epoch dynamic fields. The
// per-agent lease fields are interned once in initAgents, so the
// heartbeat and watchdog loops never hash a field name.
func leaseField(id int) string  { return fmt.Sprintf("%s%d", fieldLease, id) }
func epochField(e int64) string { return fmt.Sprintf("%s%d", fieldEpoch, e) }

// order is one ledger entry: a walk some agent owes the search. The
// destination plus the walker's board position fully determine the
// remaining path (tree paths for outbound work, clear-bits-first
// shortest paths for homeward walks), which is what makes a crashed
// walk reconstructible.
type order struct {
	key      string
	assignee int
	dst      int
	register bool // true: report to at[dst]; false: walk home to the pool
	done     bool
}

// noteCrash is the injected crash: the agent's goroutines stop, its
// heartbeat ceases, and nothing else is cleaned up — detection is the
// watchdog's job, through the expiring lease.
func (w *world) noteCrash(id int) {
	w.stopHeartbeat(id)
	w.mu.Lock()
	w.crashes++
	w.mu.Unlock()
}

func (w *world) stopHeartbeat(id int) {
	w.hbOnce[id].Do(func() { close(w.hbQuit[id]) })
}

// finish marks a clean exit: the lease stops being monitored.
func (w *world) finish(id int) {
	w.mu.Lock()
	w.exited[id] = true
	w.mu.Unlock()
	w.stopHeartbeat(id)
}

// heartbeat renews the agent's lease on the homebase whiteboard. It
// runs on its own goroutine so a stalled (but live) agent is never
// mistaken for a crashed one — liveness and progress are separate.
func (w *world) heartbeat(id int) {
	t := time.NewTicker(w.cfg.HeartbeatEvery)
	defer t.Stop()
	var n int64
	for {
		select {
		case <-w.hbQuit[id]:
			return
		case <-t.C:
			n++
			w.wb.At(0).Write(w.fLease[id], n)
		}
	}
}

// lease is the watchdog's view of one agent's heartbeat: the last
// value it read and how long it has watched that value stay unchanged.
type lease struct {
	val    int64
	silent time.Duration
}

// watchdog samples every lease each heartbeat period and declares an
// agent dead once its lease has been silent for LeaseTTL. It also
// re-broadcasts the world condition every tick, healing any wakeups
// the fault injector swallowed.
func (w *world) watchdog(quit chan struct{}) {
	seen := make([]lease, len(w.hbQuit))
	last := time.Now()
	t := time.NewTicker(w.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-quit:
			return
		case <-t.C:
		}
		w.mu.Lock()
		done := w.doneFlag
		w.cond.Broadcast()
		w.mu.Unlock()
		if done {
			return
		}
		now := time.Now()
		w.sampleLeases(seen, now.Sub(last))
		last = now
	}
}

// sampleLeases reads every lease once, gap after the previous sample,
// and fences each agent whose lease has stayed silent for LeaseTTL.
// Silence is counted only while the watchdog runs: a gap is capped at
// two heartbeat periods, because a longer one means the whole process
// stood still (a GC pause, a descheduled host), the heartbeats
// included, and is no evidence against any agent. Counting it would
// let one long stall fence every live agent at once.
func (w *world) sampleLeases(seen []lease, gap time.Duration) {
	gap = min(gap, 2*w.cfg.HeartbeatEvery)
	for id := range seen {
		v := w.wb.At(0).Read(w.fLease[id])
		if v != seen[id].val {
			seen[id] = lease{val: v}
			continue
		}
		if seen[id].silent += gap; seen[id].silent >= w.cfg.LeaseTTL {
			w.declareDead(id)
		}
	}
}

// declareDead fences an expired agent and starts recovery: a dead
// synchronizer opens a new election epoch; a dead worker's incomplete
// outbound orders are reassigned to spares, which re-execute them from
// the root along the (still clean) broadcast-tree paths.
func (w *world) declareDead(id int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.doneFlag || w.dead[id] || w.exited[id] {
		return
	}
	w.dead[id] = true
	w.inbox[id] = nil
	if id == w.syncID {
		w.epoch++
		w.needSync = true
		if len(w.spares) == 0 {
			panic("runtime: synchronizer crashed with no spares left to re-elect; raise Config.Spares")
		}
	} else {
		keys := make([]string, 0, 4)
		for key, ord := range w.ledger {
			if ord.assignee == id && !ord.done && ord.register {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			ord := w.ledger[key]
			s := w.takeSpareLocked()
			ord.assignee = s
			w.inbox[s] = append(w.inbox[s], key)
			w.reassigned++
		}
	}
	w.cond.Broadcast()
}

func (w *world) takeSpareLocked() int {
	if len(w.spares) == 0 {
		panic("runtime: spare pool exhausted during recovery; raise Config.Spares")
	}
	s := w.spares[0]
	w.spares = w.spares[1:]
	w.sparesUsed++
	return s
}

// poolInboundLocked reports whether some live agent still holds an
// incomplete homeward order and will therefore rejoin the root pool.
func (w *world) poolInboundLocked() bool {
	for _, ord := range w.ledger {
		if !ord.done && !ord.register && ord.assignee >= 0 && !w.dead[ord.assignee] {
			return true
		}
	}
	return false
}

// takeWorkerLocked draws an idle agent from the root pool. When the
// pool is empty it waits for inbound returners rather than racing them
// against the spare reserve — drafting a spare just because a returner
// is a few scheduler ticks from home would make the spare count depend
// on wall-clock timing. A spare is drafted only once the pool can no
// longer refill (every homeward walker is done or dead). Returns false
// if the caller is fenced while waiting.
func (w *world) takeWorkerLocked(caller int) (int, bool) {
	if !w.awaitLocked(caller, func() bool {
		return len(w.pool) > 0 || (!w.poolInboundLocked() && len(w.spares) > 0)
	}) {
		return -1, false
	}
	if len(w.pool) > 0 {
		a := w.pool[len(w.pool)-1]
		w.pool = w.pool[:len(w.pool)-1]
		return a, true
	}
	return w.takeSpareLocked(), true
}

// popLiveAtLocked removes and returns a live agent standing on x, or
// -1 when only crashed bodies remain (they keep guarding x but cannot
// walk; a spare must take over their onward duty).
func (w *world) popLiveAtLocked(x int) int {
	agents := w.at[x]
	for i := len(agents) - 1; i >= 0; i-- {
		a := agents[i]
		if w.dead[a] {
			continue
		}
		w.at[x] = append(agents[:i], agents[i+1:]...)
		return a
	}
	return -1
}

// issueLocked records an order on the ledger and posts it to the
// assignee's inbox. An assignee of -1 records a vacuously complete
// order — the work is moot, e.g. a dead leaf agent that stays behind
// as a permanent guard.
func (w *world) issueLocked(key string, assignee, dst int, register bool) *order {
	ord := &order{key: key, assignee: assignee, dst: dst, register: register}
	w.ledger[key] = ord
	if assignee < 0 {
		ord.done = true
	} else {
		w.inbox[assignee] = append(w.inbox[assignee], key)
	}
	w.broadcastLocked()
	return ord
}

// execute walks one order. The remaining path is reconstructed from
// the agent's current position and the order's destination: outbound
// orders follow the broadcast-tree path from the root (of which the
// walker's position is always a prefix node — spares start at the
// root, escorted cleaners at the destination's parent), homeward
// orders the clear-bits-first shortest path. Returns false if the
// agent crashed or was fenced mid-walk.
func (w *world) execute(id int, ord *order, rng *rand.Rand) bool {
	w.mu.Lock()
	pos, _ := w.b.Position(id)
	w.mu.Unlock()
	var path []int
	if ord.register {
		tp := w.bt.PathFromRoot(ord.dst)
		i := indexOf(tp, pos)
		if i < 0 {
			panic(fmt.Sprintf("runtime: agent %d at %d is off the tree path to %d (order %s)", id, pos, ord.dst, ord.key))
		}
		path = tp[i:]
	} else {
		path = w.h.ShortestPath(pos, ord.dst)
	}
	for _, v := range path[1:] {
		act := w.action(faults.MoveCtx{Agent: id, OrderKey: ord.key})
		if act.Crash {
			w.noteCrash(id)
			return false
		}
		w.sleepUnits(act.Delay)
		sleepLatency(rng, w.cfg.MaxLatency)
		if !w.applyMove(id, v, act.Hold, false, "cleaner") {
			return false
		}
	}
	w.mu.Lock()
	ord.done = true
	if ord.register {
		w.at[ord.dst] = append(w.at[ord.dst], id)
	} else {
		w.pool = append(w.pool, id)
	}
	w.broadcastLocked()
	w.mu.Unlock()
	return true
}

func indexOf(path []int, v int) int {
	for i, p := range path {
		if p == v {
			return i
		}
	}
	return -1
}

// workerLoop is the local program of every non-synchronizer agent:
// serve orders from the inbox; spares additionally stand for election
// when the watchdog opens a new synchronizer epoch.
func (w *world) workerLoop(id int, spare bool, rng *rand.Rand) {
	w.mu.Lock()
	for {
		switch {
		case w.dead[id]:
			w.mu.Unlock()
			w.stopHeartbeat(id)
			return
		case len(w.inbox[id]) > 0:
			key := w.inbox[id][0]
			w.inbox[id] = w.inbox[id][1:]
			ord := w.ledger[key]
			w.mu.Unlock()
			if !w.execute(id, ord, rng) {
				return // crashed (lease expires) or fenced (already declared)
			}
			w.mu.Lock()
		case spare && w.needSync && w.inReserveLocked(id):
			e := w.epoch
			w.mu.Unlock()
			won := w.wb.At(0).CompareAndSwap(w.wb.Field(epochField(e)), 0, int64(id)+1)
			w.mu.Lock()
			if won && w.needSync && w.epoch == e {
				w.needSync = false
				w.syncID = id
				w.removeSpareLocked(id)
				w.sparesUsed++
				w.reelections++
				w.cond.Broadcast()
				w.mu.Unlock()
				w.syncProgram(id, rng)
				return
			}
			for w.needSync && w.epoch == e && !w.dead[id] {
				w.cond.Wait()
			}
		case w.doneFlag:
			w.mu.Unlock()
			w.finish(id)
			return
		default:
			w.cond.Wait()
		}
	}
}

// inReserveLocked reports whether id is still an undrafted spare. Only
// reserve spares may stand for synchronizer re-election: a drafted
// spare may be standing guard on a frontier node, and abandoning that
// post to run the synchronizer program would recontaminate the region
// behind it.
func (w *world) inReserveLocked(id int) bool {
	for _, s := range w.spares {
		if s == id {
			return true
		}
	}
	return false
}

func (w *world) removeSpareLocked(id int) {
	for i, s := range w.spares {
		if s == id {
			w.spares = append(w.spares[:i], w.spares[i+1:]...)
			return
		}
	}
}

// removeFromPoolLocked drops id from the root pool (the elected
// synchronizer stops being assignable).
func (w *world) removeFromPoolLocked(id int) {
	for i, a := range w.pool {
		if a == id {
			w.pool = append(w.pool[:i], w.pool[i+1:]...)
			return
		}
	}
}
