package runtime

import (
	"fmt"
	"math/rand"

	"hypersearch/internal/faults"
)

// The synchronizer program is a deterministic list of resumable steps,
// checkpointed on the homebase whiteboard: after completing step i the
// synchronizer writes ck=i+1, so a re-elected successor skips the
// finished prefix and replays only the step in flight. Replays are
// safe because every order a step issues is recorded on the ledger
// first (issue-if-absent) and completions are awaited by ledger state,
// not by transient channels.
type syncStep struct {
	kind  int
	node  int // escort0: root child; node: the level node x
	level int
	idx   int // escort0: child index (key material)
}

const (
	stepEscort0  = iota // phase 0: escort one cleaner to a root child
	stepDispatch        // step 2.1: couriers to every type-T(k) node, k >= 2
	stepNode            // steps 2.2/2.3: process one node of the level walk
	stepHome            // return to the root between levels
)

// buildSteps lays out the whole CLEAN schedule for this dimension.
func (w *world) buildSteps() []syncStep {
	d := w.h.Dim()
	var steps []syncStep
	for i, c := range w.bt.Children(0) {
		steps = append(steps, syncStep{kind: stepEscort0, node: c, idx: i})
	}
	for l := 1; l <= d-1; l++ {
		steps = append(steps, syncStep{kind: stepDispatch, level: l})
		for _, x := range w.h.NodesAtLevel(l) {
			steps = append(steps, syncStep{kind: stepNode, node: x, level: l})
		}
		steps = append(steps, syncStep{kind: stepHome, level: l})
	}
	return steps
}

// syncProgram runs (or resumes) the synchronizer role from the
// whiteboard checkpoint. On a crash or fencing mid-step it simply
// returns; the watchdog's re-election hands the remainder, ledger and
// all, to a spare.
func (w *world) syncProgram(id int, rng *rand.Rand) {
	steps := w.buildSteps()
	start := int(w.wb.At(0).Read(w.fCk))
	for i := start; i < len(steps); i++ {
		if !w.execStep(id, steps[i], rng) {
			return
		}
		w.wb.At(0).Write(w.fCk, int64(i+1))
	}
	w.mu.Lock()
	w.doneFlag = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.finish(id)
}

// execStep runs one step, tolerating partial prior execution. Returns
// false when the synchronizer crashed or was fenced.
func (w *world) execStep(id int, st syncStep, rng *rand.Rand) bool {
	switch st.kind {
	case stepEscort0:
		key := fmt.Sprintf("p0.e%d", st.idx)
		return w.issueAndAwait(id, key, st.node, fromPool) && w.escortRoundTrip(id, 0, st.node, rng)

	case stepDispatch:
		if !w.syncWalkTo(id, 0, rng) {
			return false
		}
		for _, x := range w.h.NodesAtLevel(st.level) {
			k := w.bt.Type(x)
			for i := 0; i < k-1; i++ {
				key := fmt.Sprintf("d%d.x%d.c%d", st.level, x, i)
				w.mu.Lock()
				if _, ok := w.ledger[key]; !ok {
					a, alive := w.takeWorkerLocked(id)
					if !alive {
						w.mu.Unlock()
						return false
					}
					w.issueLocked(key, a, x, true)
				}
				w.mu.Unlock()
			}
		}
		return true

	case stepNode:
		return w.execNodeStep(id, st, rng)

	case stepHome:
		return w.syncWalkTo(id, 0, rng)
	}
	panic("runtime: unknown synchronizer step")
}

// execNodeStep walks the synchronizer to x and performs step 2.2/2.3
// there: release a leaf's cleaner homeward, or await the complement
// and send one cleaner down each broadcast-tree edge.
func (w *world) execNodeStep(id int, st syncStep, rng *rand.Rand) bool {
	x := st.node
	if !w.syncWalkTo(id, x, rng) {
		return false
	}
	k := w.bt.Type(x)
	if k == 0 {
		key := fmt.Sprintf("w%d.x%d.home", st.level, x)
		w.mu.Lock()
		if _, ok := w.ledger[key]; !ok {
			// A dead leaf agent stays behind as a permanent guard; the
			// order is then vacuously complete (assignee -1).
			w.issueLocked(key, w.popLiveAtLocked(x), 0, false)
		}
		w.mu.Unlock()
		return true
	}
	// Await the full complement before the first escort only: on a
	// resumed step the already-issued escorts have consumed part of it.
	firstKey := fmt.Sprintf("w%d.x%d.e0", st.level, x)
	w.mu.Lock()
	if _, ok := w.ledger[firstKey]; !ok {
		if !w.awaitLocked(id, func() bool { return len(w.at[x]) >= k }) {
			w.mu.Unlock()
			return false
		}
	}
	w.mu.Unlock()
	for j, child := range w.bt.Children(x) {
		key := fmt.Sprintf("w%d.x%d.e%d", st.level, x, j)
		if !w.issueAndAwait(id, key, child, fromNode(x)) || !w.escortRoundTrip(id, x, child, rng) {
			return false
		}
	}
	return true
}

// Assignee pickers for issueAndAwait. They run under w.mu.
type picker func(w *world, caller int) (assignee int, alive bool)

func fromPool(w *world, caller int) (int, bool) {
	return w.takeWorkerLocked(caller)
}

// fromNode prefers a live cleaner standing on x and falls back to a
// spare when only crashed bodies remain there.
func fromNode(x int) picker {
	return func(w *world, caller int) (int, bool) {
		if a := w.popLiveAtLocked(x); a >= 0 {
			return a, true
		}
		return w.takeSpareLocked(), true
	}
}

// issueAndAwait issues an outbound order (if this step's replay has
// not already) and blocks until it completes. Returns false if the
// synchronizer is fenced while waiting.
func (w *world) issueAndAwait(id int, key string, dst int, pick picker) bool {
	w.mu.Lock()
	ord, ok := w.ledger[key]
	if !ok {
		a, alive := pick(w, id)
		if !alive {
			w.mu.Unlock()
			return false
		}
		ord = w.issueLocked(key, a, dst, true)
	}
	okDone := w.awaitLocked(id, func() bool { return ord.done })
	w.mu.Unlock()
	return okDone
}

// escortRoundTrip is the synchronizer's half of an escort: once the
// cleaner has landed on child, the synchronizer walks the edge from x
// and back, the same two moves the DES makes escorting in lockstep. A
// resumed step repeats the round trips of its already-landed escorts;
// they cross clean, guarded nodes only.
func (w *world) escortRoundTrip(id, x, child int, rng *rand.Rand) bool {
	return w.syncWalkTo(id, child, rng) && w.syncWalkTo(id, x, rng)
}

// syncWalkTo moves the synchronizer itself to dst along the
// clear-bits-first shortest path, which stays inside the already-clean
// region. Returns false on an injected crash or fencing.
func (w *world) syncWalkTo(id, dst int, rng *rand.Rand) bool {
	w.mu.Lock()
	pos, _ := w.b.Position(id)
	w.mu.Unlock()
	for _, v := range w.h.ShortestPath(pos, dst)[1:] {
		act := w.action(faults.MoveCtx{Agent: id, Sync: true})
		if act.Crash {
			w.noteCrash(id)
			return false
		}
		w.sleepUnits(act.Delay)
		sleepLatency(rng, w.cfg.MaxLatency)
		if !w.applyMove(id, v, act.Hold, true, "synchronizer") {
			return false
		}
	}
	return true
}
