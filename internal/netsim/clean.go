package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hypersearch/internal/combin"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/netsim/faultlink"
)

// CleanName identifies the message-passing CLEAN run in results.
const CleanName = "clean-netsim"

// Message kinds of the coordinated protocol (disjoint from the
// visibility protocol's kinds; the two protocols use separate mailbox
// types).
const (
	// CourierHop carries a source-routed cleaner one hop; on an escort
	// leg the synchronizer rides in the same message ("the
	// synchronizer guides one agent to level l+1"), which makes the
	// pair's landing atomic exactly as in the other engines.
	CourierHop MessageKind = iota + 16
	// SyncHop carries the synchronizer alone (walks, bounces).
	SyncHop
	// Shutdown floods the network when the search completes; every
	// host forwards it once and retires after hearing it from each
	// neighbour.
	Shutdown
)

// cleanMessage is the coordinated protocol's wire format.
type cleanMessage struct {
	Kind  MessageKind
	From  int
	Agent int
	Route []int      // CourierHop: remaining hops, next first
	Sync  *syncState // escorting synchronizer, or SyncHop payload
}

// syncState is the synchronizer's complete knowledge; it travels with
// the agent, so no host ever holds global state.
type syncState struct {
	ID       int     // the synchronizer's agent id
	Phase    int     // level currently being cleaned into
	Dest     int     // travel destination (multi-hop), -1 when arrived
	BounceTo int     // return leg of an escort, -1 none
	Stop     int     // current stop, -1 between stops
	Stops    []int   // remaining stops of the phase, lexicographic
	Escorts  []int   // remaining children to escort at the stop
	Extras   [][]int // courier routes still to dispatch from the root
	Final    bool    // heading home to finish the search
}

// RunClean executes Algorithm CLEAN as a pure message-passing system:
// hosts share no memory, cleaners are source-routed messages, the
// synchronizer migrates with its program and rides the same message as
// the cleaner it guides on every escort leg. Costs are identical to
// the other two engines; only the realization differs.
func RunClean(d int, cfg Config) Stats { return RunCleanOn(NewFabric(d), cfg) }

// RunCleanOn executes Algorithm CLEAN on a caller-owned fabric,
// reusing its mailboxes, scratch and validator; like RunOn, it drains
// the timer quiescence barrier before returning.
func RunCleanOn(f *Fabric, cfg Config) Stats {
	f.begin()
	d := f.d
	team := int(combin.CleanTeamSize(d))

	val := f.validator(cfg)
	ids := f.bootIDs(team)
	for i := range ids {
		ids[i] = val.place()
	}
	if d == 0 {
		val.terminate(ids[0], 0)
		s := val.stats(0, 0)
		s.Strategy = CleanName
		f.complete()
		return s
	}

	c := f.cleanNetwork(cfg, val)
	c.syncID = ids[0]
	c.pool = ids[1:]

	var wg sync.WaitGroup
	wg.Add(f.h.Order())
	for v := 0; v < f.h.Order(); v++ {
		go c.host(&wg, v)
	}

	// Boot: the synchronizer "arrives" at the root with phase 0 ready.
	c.boxes[0].Send(cleanMessage{
		Kind: SyncHop, From: 0, Agent: c.syncID,
		Sync: &syncState{
			ID: c.syncID, Phase: 0, Dest: -1, BounceTo: -1,
			Stop: 0, Escorts: f.bt.Children(0),
		},
	})
	wg.Wait()
	c.quiesce()
	s := val.stats(c.moves.Load(), 0)
	s.Strategy = CleanName
	s.SyncMoves = c.syncMoves.Load()
	s.AgentMoves = s.TotalMoves - s.SyncMoves
	s.BeaconMessages = 0 // the coordinated protocol needs no beacons
	s.BeaconBits = 0
	if c.fl != nil {
		s.Link = c.fl.SummaryStats()
	}
	f.complete()
	return s
}

// cleanNet is the shared wiring; hosts communicate only via mailboxes.
// Like network, it lives inside a Fabric and is reused across runs.
type cleanNet struct {
	h       *hypercube.Hypercube
	bt      *heapqueue.Tree
	cfg     Config
	val     validator
	boxes   []*cleanMailbox
	scratch []cleanScratch
	syncID  int
	pool    []int // boot-time pool membership (root-local thereafter)

	// fl is the active wire-fault layer (nil on the fault-free path);
	// flPool is the pooled instance it aliases, as in network.
	fl     *faultlink.Layer[cleanMessage]
	flPool *faultlink.Layer[cleanMessage]

	timers timerSet // quiescence barrier over delivery timers

	moves     atomic.Int64
	syncMoves atomic.Int64
}

// wireFaults interposes the wire-fault layer on the coordinated
// protocol for delivery faults (drop, dup, delay, partition). Host
// crashes — plain or cascading — are rejected for this engine: the
// synchronizer's program and the cleaners themselves ride the
// messages, so an amnesia crash plus ledger replay would re-forward
// agents that already moved on, which no recovery contract covers.
// The visibility engines, whose host state is rebuildable soft state,
// remain the crash/cascade testbed.
func (c *cleanNet) wireFaults() {
	if err := c.cfg.Faults.ValidateForHosts(c.h.Order()); err != nil {
		panic(fmt.Errorf("netsim: %w", err))
	}
	if !c.cfg.Faults.HasLinkFaults() {
		c.fl = nil
		return
	}
	if c.cfg.Faults.HasHostCrashFaults() {
		panic(fmt.Errorf("netsim: plan %q carries host-crash/cascade faults, which the %s engine does not support — protocol state rides the messages and cannot be replayed; use the visibility engines", c.cfg.Faults.Name, CleanName))
	}
	if c.flPool == nil {
		c.flPool = faultlink.New(c.cfg.Faults, c.h.Order(), faultlink.Options{},
			func(to, _ int, _ bool, m cleanMessage) {
				// Without host crashes there are no ledger replays, and
				// protocol causality (the shutdown flood starts only
				// after every cleaner is home) means no frame can chase
				// a closed mailbox: deliver loudly.
				c.boxes[to].Send(m)
			},
			func(to int) {
				panic(fmt.Sprintf("netsim: crash callback fired for host %d on the %s engine — host-crash plans are rejected at config time", to, CleanName))
			})
	} else {
		c.flPool.Reset(c.cfg.Faults)
	}
	c.fl = c.flPool
}

// quiesce drains the run's delivery timers and, when faulted, the wire
// layer's retransmit/delay/duplicate timers.
func (c *cleanNet) quiesce() {
	c.timers.wait()
	if c.fl != nil {
		c.fl.Quiesce()
	}
}

// cleanHost is one host's local state.
type cleanHost struct {
	pool      []int // parked cleaners (root only)
	gathered  []int // cleaners stationed here for the current phase
	sync      *syncState
	shutdowns int // Shutdown messages heard (retire at deg)
	closed    bool
}

// reset re-arms the host state for a new run, keeping slice capacity.
func (st *cleanHost) reset() {
	st.pool = st.pool[:0]
	st.gathered = st.gathered[:0]
	st.sync = nil
	st.shutdowns = 0
	st.closed = false
}

// host runs one host's event loop and joins the run's WaitGroup
// (closure-free spawn, like network.visHost).
func (c *cleanNet) host(wg *sync.WaitGroup, v int) {
	defer wg.Done()
	c.runHost(v)
}

func (c *cleanNet) runHost(v int) {
	sc := &c.scratch[v]
	sc.rng = newHostRNG(c.cfg.Seed, v, streamClean)
	rng := &sc.rng
	st := &sc.st
	st.reset()
	if v == 0 {
		st.pool = append(st.pool, c.pool...)
	}
	for {
		m, ok := c.boxes[v].Recv()
		if !ok {
			break
		}
		switch m.Kind {
		case CourierHop:
			c.onCourier(rng, v, st, m)
		case SyncHop:
			c.val.arrive(m.Agent, m.From, v)
			st.sync = m.Sync
			if st.sync.Dest == v {
				st.sync.Dest = -1
			}
		case Shutdown:
			st.shutdowns++
			if !st.closed {
				st.closed = true
				c.floodShutdown(rng, v)
			}
			if st.shutdowns == c.h.Dim() {
				c.boxes[v].Close()
			}
			continue
		default:
			panic(fmt.Sprintf("netsim: clean host %d got message kind %d", v, m.Kind))
		}
		c.advance(rng, v, st)
	}
}

// onCourier lands or forwards a source-routed cleaner; an escorting
// synchronizer lands with it.
func (c *cleanNet) onCourier(rng *hostRNG, v int, st *cleanHost, m cleanMessage) {
	c.val.arrive(m.Agent, m.From, v)
	if len(m.Route) > 0 {
		next := m.Route[0]
		c.val.depart(m.Agent, v)
		c.moves.Add(1)
		c.send(rng, next, cleanMessage{
			Kind: CourierHop, From: v, Agent: m.Agent, Route: m.Route[1:],
		})
		return
	}
	if v == 0 {
		st.pool = append(st.pool, m.Agent)
	} else {
		st.gathered = append(st.gathered, m.Agent)
	}
	if m.Sync != nil {
		c.val.arrive(m.Sync.ID, m.From, v)
		st.sync = m.Sync
		if st.sync.Dest == v {
			st.sync.Dest = -1
		}
	}
}

// advance runs the synchronizer program as far as host-local state
// allows; it is re-entered on every arrival at this host.
func (c *cleanNet) advance(rng *hostRNG, v int, st *cleanHost) {
	s := st.sync
	if s == nil {
		return
	}
	// Travel leg: keep hopping toward Dest.
	if s.Dest >= 0 && s.Dest != v {
		path := c.h.ShortestPath(v, s.Dest)
		c.hopSync(rng, v, path[1], st)
		return
	}
	s.Dest = -1
	// Bounce leg: escorted a cleaner down, now return to the stop.
	if s.BounceTo >= 0 {
		dst := s.BounceTo
		s.BounceTo = -1
		s.Dest = dst
		c.hopSync(rng, v, dst, st) // the child is adjacent to the stop
		return
	}
	// Root duties: dispatch couriers while the pool lasts.
	if v == 0 && len(s.Extras) > 0 {
		for len(st.pool) > 0 && len(s.Extras) > 0 {
			a := st.pool[len(st.pool)-1]
			st.pool = st.pool[:len(st.pool)-1]
			route := s.Extras[0]
			s.Extras = s.Extras[1:]
			c.val.depart(a, v)
			c.moves.Add(1)
			c.send(rng, route[0], cleanMessage{
				Kind: CourierHop, From: v, Agent: a, Route: route[1:],
			})
		}
		if len(s.Extras) > 0 {
			return // wait for returners to refill the pool
		}
	}
	// Final leg: wait for every returner, then flood the shutdown.
	if s.Final {
		if v != 0 {
			panic("netsim: final leg away from the root")
		}
		if len(st.pool) != c.expectedFinalPool() {
			return // returners still walking home
		}
		st.sync = nil
		st.shutdowns = 0
		st.closed = true
		c.floodShutdown(rng, v)
		return
	}
	// Stop duties.
	if s.Stop == v {
		k := c.bt.Type(v)
		if k == 0 {
			// Leaf: release the guard homeward and move on.
			if len(st.gathered) != 1 {
				panic(fmt.Sprintf("netsim: leaf %d holds %d cleaners", v, len(st.gathered)))
			}
			a := st.gathered[0]
			st.gathered = st.gathered[:0]
			route := c.h.ShortestPath(v, 0)
			c.val.depart(a, v)
			c.moves.Add(1)
			c.send(rng, route[1], cleanMessage{
				Kind: CourierHop, From: v, Agent: a, Route: route[2:],
			})
			c.nextStop(rng, v, st, s)
			return
		}
		if len(s.Escorts) == 0 {
			c.nextStop(rng, v, st, s)
			return
		}
		// Complement check: the stationed guard plus couriers (the
		// root's complement is its pool).
		have := len(st.gathered)
		if v == 0 {
			have = len(st.pool)
		}
		if have < len(s.Escorts) {
			return // couriers still inbound
		}
		child := s.Escorts[0]
		s.Escorts = s.Escorts[1:]
		var a int
		if v == 0 {
			a = st.pool[len(st.pool)-1]
			st.pool = st.pool[:len(st.pool)-1]
		} else {
			a = st.gathered[len(st.gathered)-1]
			st.gathered = st.gathered[:len(st.gathered)-1]
		}
		// The cleaner and the synchronizer travel as one message: the
		// guided descent of step 2.2.
		c.val.depart(a, v)
		c.moves.Add(1)
		s.Dest = child
		s.BounceTo = v
		sync := st.sync
		st.sync = nil
		c.val.depart(sync.ID, v)
		c.syncMoves.Add(1)
		c.send(rng, child, cleanMessage{
			Kind: CourierHop, From: v, Agent: a, Sync: sync,
		})
		return
	}
	// Arrived somewhere that is not the stop: only legal at the root
	// between phases, where nextStop routes onward.
	c.nextStop(rng, v, st, s)
}

// floodShutdown sends the shutdown flood from v to all d neighbours,
// in label order.
func (c *cleanNet) floodShutdown(rng *hostRNG, v int) {
	for i := 1; i <= c.h.Dim(); i++ {
		c.send(rng, c.h.Neighbour(v, i), cleanMessage{Kind: Shutdown, From: v})
	}
}

// nextStop advances the program once the current stop (if any) is
// complete.
func (c *cleanNet) nextStop(rng *hostRNG, v int, st *cleanHost, s *syncState) {
	if len(s.Stops) > 0 {
		s.Stop = s.Stops[0]
		s.Stops = s.Stops[1:]
		s.Escorts = c.bt.Children(s.Stop)
		s.Dest = s.Stop
		if s.Dest == v {
			// Never happens on the hypercube (consecutive stops
			// differ), but keep the program total.
			s.Dest = -1
			c.advance(rng, v, st)
			return
		}
		path := c.h.ShortestPath(v, s.Dest)
		c.hopSync(rng, v, path[1], st)
		return
	}
	if s.Phase >= c.h.Dim()-1 {
		s.Final = true
		s.Stop = -1
		if v == 0 {
			c.advance(rng, v, st)
			return
		}
		s.Dest = 0
		path := c.h.ShortestPath(v, 0)
		c.hopSync(rng, v, path[1], st)
		return
	}
	// Prepare the next phase and head home for couriers.
	l := s.Phase + 1
	s.Phase = l
	s.Stop = -1
	s.Stops = c.h.NodesAtLevel(l)
	s.Extras = nil
	for _, x := range s.Stops {
		k := c.bt.Type(x)
		for i := 0; i < k-1; i++ {
			route := c.bt.PathFromRoot(x)
			s.Extras = append(s.Extras, route[1:])
		}
	}
	if v == 0 {
		c.advance(rng, v, st)
		return
	}
	s.Dest = 0
	path := c.h.ShortestPath(v, 0)
	c.hopSync(rng, v, path[1], st)
}

// expectedFinalPool is the pool size once every cleaner except the
// level-d guard has walked home: team - synchronizer - 1.
func (c *cleanNet) expectedFinalPool() int {
	return int(combin.CleanTeamSize(c.h.Dim())) - 2
}

// hopSync migrates the synchronizer one hop; the state rides along.
func (c *cleanNet) hopSync(rng *hostRNG, from, to int, st *cleanHost) {
	s := st.sync
	st.sync = nil
	c.val.depart(s.ID, from)
	c.syncMoves.Add(1)
	c.send(rng, to, cleanMessage{Kind: SyncHop, From: from, Agent: s.ID, Sync: s})
}

// send delivers a coordinated-protocol message with link latency,
// routing through the wire-fault layer when the plan interposes one.
func (c *cleanNet) send(rng *hostRNG, to int, m cleanMessage) {
	lat := time.Duration(0)
	if c.cfg.MaxLatency > 0 {
		lat = time.Duration(rng.Int63n(int64(c.cfg.MaxLatency) + 1))
	}
	if c.fl != nil {
		c.fl.Send(m.From, to, lat, m)
		return
	}
	if lat == 0 {
		c.boxes[to].Send(m)
		return
	}
	c.timers.after(lat, func() { c.boxes[to].Send(m) })
}
