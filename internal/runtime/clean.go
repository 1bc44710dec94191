package runtime

import (
	"math/rand"
	"sync"

	"hypersearch/internal/combin"
)

// CleanName identifies the concurrent coordinated run in results.
const CleanName = "clean-goroutines"

// fieldSync is the root-whiteboard field agents race on to elect the
// synchronizer: "the first that gains access will become the
// synchronizer" — realized as a compare-and-swap under the
// whiteboard's mutual exclusion.
const fieldSync = "synchronizer"

// RunClean executes Algorithm CLEAN with real goroutines: the team
// races a whiteboard CAS election, the winner runs the checkpointed
// synchronizer program and the rest serve the orders it records on
// the ledger. The synchronizer lets each escorted cleaner cross first
// and then walks the edge and back itself — the DES's moves, with
// strictly safer interleavings.
//
// cfg.Faults injects deterministic adversity. Given a plan, every
// agent maintains a lease the watchdog monitors: a crashed cleaner's
// walk is reconstructed from the order ledger and reassigned to a
// spare; a crashed synchronizer triggers a CAS re-election among the
// spares, and the winner resumes from the whiteboard checkpoint. The
// search completes with the surviving team as long as spares cover
// the crashes.
func RunClean(d int, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	inj, err := cfg.injector()
	if err != nil {
		return Report{}, err
	}
	w := newWorld(d, cfg, inj)
	team := int(combin.CleanTeamSize(d))
	// A plan with crashes provisions one spare per crash and one more;
	// any other run, none.
	spares := 0
	if inj != nil && inj.Crashes() > 0 {
		spares = inj.Crashes() + 1
	}
	total := team + spares
	w.initAgents(total, team)

	if d == 0 {
		w.mu.Lock()
		w.terminateAllLocked()
		w.mu.Unlock()
		return w.report(CleanName, team, spares), nil
	}

	var wdQuit chan struct{}
	if inj != nil {
		wdQuit = make(chan struct{})
		go w.watchdog(wdQuit)
		for i := 0; i < total; i++ {
			go w.heartbeat(i)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, uint64(i))))
			w.agentMain(i, i >= team, rng)
		}(i)
	}
	wg.Wait()
	if inj != nil {
		close(wdQuit)
		for i := 0; i < total; i++ {
			w.stopHeartbeat(i)
		}
	}

	w.mu.Lock()
	w.terminateAllLocked()
	w.mu.Unlock()
	return w.report(CleanName, team, spares), nil
}

// agentMain races the initial election (workers only — spares stay in
// reserve) and then runs the won role.
func (w *world) agentMain(id int, spare bool, rng *rand.Rand) {
	if !spare && w.wb.At(0).CompareAndSwap(w.fSync, 0, int64(id)+1) {
		w.mu.Lock()
		w.syncID = id
		w.removeFromPoolLocked(id)
		w.mu.Unlock()
		w.syncProgram(id, rng)
		return
	}
	w.workerLoop(id, spare, rng)
}
