// Package runtime executes the paper's strategies as genuinely
// concurrent Go programs: every agent is a goroutine, nodes carry
// mutual-exclusion whiteboards, and per-move latencies are injected by
// a seeded randomized scheduler — the asynchronous model of Section 2
// made literal. The discrete-event engine (internal/strategy) is the
// metrics reference; this package demonstrates that the algorithms,
// coded as local agent programs, stay correct under real preemption
// (run the tests with -race) and, given a fault plan, under injected
// crashes, stalls, lock starvation and lost wakeups.
package runtime

import (
	"math/rand"
	"sync"
	"time"

	"hypersearch/internal/board"
	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/metrics"
	"hypersearch/internal/trace"
	"hypersearch/internal/whiteboard"
)

// Config controls a runtime execution. Seed is the only source of
// randomness: every stream (per-agent schedulers, watchdog) is derived
// from it with deriveSeed, so equal configs replay equal runs.
type Config struct {
	Seed       int64         // randomized-scheduler seed
	MaxLatency time.Duration // per-move sleep is uniform in [0, MaxLatency]
	Record     bool          // keep a structured trace (logical-clock timestamps)

	Faults *faults.Plan // deterministic fault plan (nil = fault-free)

	// Recovery timing. The heartbeats, the lease watchdog and the
	// visibility re-broadcaster run only when Faults is set: a
	// fault-free run has nothing to recover from, so it can never
	// fence an agent it has no spare for.
	HeartbeatEvery time.Duration // lease heartbeat period (0 = 2ms)
	LeaseTTL       time.Duration // watchdog declares an agent dead after this silence (0 = 250ms)
	FaultUnit      time.Duration // wall-clock length of one fault delay unit (0 = 100µs)
}

// Defaults for the runtime's timing knobs. LeaseTTL is two orders of
// magnitude above the heartbeat so a live-but-slow agent (GC pause,
// race-detector overhead) is never fenced spuriously.
const (
	defaultHeartbeat = 2 * time.Millisecond
	defaultLeaseTTL  = 250 * time.Millisecond
	defaultFaultUnit = 100 * time.Microsecond
)

// withDefaults fills the zero timing knobs.
func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = defaultHeartbeat
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = defaultLeaseTTL
	}
	if c.FaultUnit < 0 {
		c.FaultUnit = 0
	} else if c.FaultUnit == 0 {
		c.FaultUnit = defaultFaultUnit
	}
	return c
}

// injector validates the config's plan and compiles it; a nil plan is
// a fault-free run and yields a nil injector.
func (c Config) injector() (*faults.Injector, error) {
	if c.Faults == nil {
		return nil, nil
	}
	if err := c.Faults.Validate(); err != nil {
		return nil, err
	}
	return faults.NewInjector(c.Faults), nil
}

// Report is the outcome of a runtime execution.
type Report struct {
	Result metrics.Result
	Log    *trace.Log // nil unless Config.Record

	Team        int // paper team size
	Spares      int // extra agents provisioned for recovery
	Crashes     int // injected crashes that fired
	Reassigned  int // orders re-executed by a spare
	Reelections int // synchronizer CAS re-elections
	SparesUsed  int // spares drafted into service
}

// world is the shared state of one concurrent run. The board and the
// recovery protocol's replicated state — the order ledger, per-node
// agent registry, root pool, spare pool, fencing flags, and the
// synchronizer epoch — are guarded by mu; cond broadcasts on every
// board change so local agent programs can re-evaluate their
// conditions. The homebase whiteboard holds the fields recovery reads
// back (leases, the synchronizer checkpoint and election CAS) that the
// paper's model would store on node whiteboards.
type world struct {
	mu   sync.Mutex
	cond *sync.Cond

	h  *hypercube.Hypercube
	bt *heapqueue.Tree
	b  *board.Board
	wb *whiteboard.Store

	// Whiteboard fields are interned once here, at store construction;
	// the agents' Read/Write/CAS hot paths then index by ID and never
	// hash a field name again.
	fSync    whiteboard.Field
	fCk      whiteboard.Field
	fAgents  whiteboard.Field
	fPlanned whiteboard.Field
	fQuota   []whiteboard.Field // per broadcast-tree child index

	cfg Config
	inj *faults.Injector // nil: fault-free run
	log *trace.Log

	step      int64 // logical clock: one tick per board action
	syncMoves int64

	inbox  [][]string
	ledger map[string]*order
	at     map[int][]int
	pool   []int
	spares []int

	dead   []bool // fenced by the watchdog
	exited []bool // returned cleanly (lease no longer monitored)

	fLease []whiteboard.Field // per-agent heartbeat fields, interned in initAgents

	syncID   int
	epoch    int64
	needSync bool
	doneFlag bool

	hbQuit []chan struct{}
	hbOnce []sync.Once

	crashes     int
	reassigned  int
	reelections int
	sparesUsed  int
}

func newWorld(d int, cfg Config, inj *faults.Injector) *world {
	h := hypercube.New(d)
	w := &world{
		h:      h,
		bt:     heapqueue.New(d),
		b:      board.New(h, 0),
		wb:     whiteboard.NewStore(h.Order()),
		cfg:    cfg,
		inj:    inj,
		ledger: map[string]*order{},
		at:     map[int][]int{},
		syncID: -1,
	}
	w.cond = sync.NewCond(&w.mu)
	w.fSync = w.wb.Field(fieldSync)
	w.fCk = w.wb.Field(fieldCk)
	w.fAgents = w.wb.Field(fieldAgents)
	w.fPlanned = w.wb.Field(fieldPlanned)
	w.fQuota = make([]whiteboard.Field, d)
	for i := range w.fQuota {
		w.fQuota[i] = w.wb.Field(quotaField(i))
	}
	if cfg.Record {
		w.log = &trace.Log{}
	}
	return w
}

// initAgents places total agents on the homebase (recording the trace)
// and splits them into the working pool (0..team-1) and spares.
func (w *world) initAgents(total, team int) {
	w.inbox = make([][]string, total)
	w.dead = make([]bool, total)
	w.exited = make([]bool, total)
	w.hbQuit = make([]chan struct{}, total)
	w.hbOnce = make([]sync.Once, total)
	w.fLease = make([]whiteboard.Field, total)
	for i := 0; i < total; i++ {
		w.fLease[i] = w.wb.Field(leaseField(i))
	}
	w.mu.Lock()
	for i := 0; i < total; i++ {
		id := w.b.Place(w.step)
		w.record(trace.Event{Time: w.step, Kind: trace.Place, Agent: id, To: 0, Role: roleFor(i, team)})
		w.step++
		w.hbQuit[i] = make(chan struct{})
		if i < team {
			w.pool = append(w.pool, id)
		} else {
			w.spares = append(w.spares, id)
		}
	}
	w.mu.Unlock()
}

func roleFor(i, team int) string {
	if i < team {
		return "cleaner"
	}
	return "spare"
}

func (w *world) record(e trace.Event) {
	if w.log != nil {
		w.log.Append(e)
	}
}

// sleepLatency injects the adversarial scheduler's delay; rng is owned
// by the calling goroutine.
func sleepLatency(rng *rand.Rand, max time.Duration) {
	if max <= 0 {
		return
	}
	time.Sleep(time.Duration(rng.Int63n(int64(max) + 1)))
}

// action consults the injector for one move; a nil injector is a
// fault-free run.
func (w *world) action(ctx faults.MoveCtx) faults.Action {
	if w.inj == nil {
		return faults.Action{}
	}
	return w.inj.BeforeMove(ctx)
}

func (w *world) sleepUnits(units int64) {
	if units > 0 && w.cfg.FaultUnit > 0 {
		time.Sleep(time.Duration(units) * w.cfg.FaultUnit)
	}
}

// broadcastLocked wakes every waiter unless the injector swallows the
// wakeup (the watchdog's periodic re-broadcast keeps the run live).
func (w *world) broadcastLocked() {
	if w.inj != nil && w.inj.DropWakeup() {
		return
	}
	w.cond.Broadcast()
}

// applyMove performs one fenced, traced board move. A positive hold
// simulates whiteboard lock starvation: the mutex is held for that
// long with every other agent shut out. Returns false when the agent
// was fenced by the watchdog and must stop acting.
func (w *world) applyMove(id, to int, hold int64, sync bool, role string) bool {
	w.mu.Lock()
	if w.dead[id] {
		w.mu.Unlock()
		return false
	}
	from, _ := w.b.Position(id)
	w.b.Move(id, to, w.step)
	if sync {
		w.syncMoves++
	}
	w.record(trace.Event{Time: w.step, Kind: trace.Move, Agent: id, From: from, To: to, Role: role})
	w.step++
	if hold > 0 && w.cfg.FaultUnit > 0 {
		time.Sleep(time.Duration(hold) * w.cfg.FaultUnit)
	}
	w.broadcastLocked()
	w.mu.Unlock()
	return true
}

// awaitLocked blocks until cond holds, returning false if the agent is
// fenced first. Caller holds w.mu.
func (w *world) awaitLocked(id int, cond func() bool) bool {
	for {
		if w.dead[id] {
			return false
		}
		if cond() {
			return true
		}
		w.cond.Wait()
	}
}

// terminateAllLocked retires every still-active agent in place,
// recording the trace. Crashed bodies stay as permanent guards.
func (w *world) terminateAllLocked() {
	for id := 0; id < w.b.Agents(); id++ {
		if v, active := w.b.Position(id); active {
			w.b.Terminate(id, w.step)
			w.record(trace.Event{Time: w.step, Kind: trace.Terminate, Agent: id, From: v, To: v})
			w.step++
		}
	}
}

// report assembles the final summary; real-time runs have no virtual
// makespan, so Result.Makespan is left zero (the trace's logical clock
// is Log.Makespan).
func (w *world) report(name string, team, spares int) Report {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.b.Result(name)
	r.Dim = w.h.Dim()
	r.AgentMoves, r.SyncMoves = r.TotalMoves-w.syncMoves, w.syncMoves
	r.Makespan = 0
	return Report{
		Result:      r,
		Log:         w.log,
		Team:        team,
		Spares:      spares,
		Crashes:     w.crashes,
		Reassigned:  w.reassigned,
		Reelections: w.reelections,
		SparesUsed:  w.sparesUsed,
	}
}
