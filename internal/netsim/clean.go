package netsim

import (
	"fmt"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
)

// CleanName identifies the message-passing CLEAN run in results.
const CleanName = "clean-netsim"

// syncState is the synchronizer's complete knowledge; it travels with
// the agent, so no host ever holds global state. Its cursors run over
// the level in bits.NextAtLevel (lexicographic) order and over a
// stop's tree edges, as the DES synchronizer's do; a cursor at or past
// n has run off the level's end.
type syncState struct {
	ID       int  // the synchronizer's agent id
	Phase    int  // level currently being cleaned into
	Dest     int  // travel destination (multi-hop), -1 when arrived
	BounceTo int  // return leg of an escort, -1 none
	Stop     int  // current stop, -1 between stops
	Edge     int  // next tree edge to escort down at the stop: the child is Stop | 1<<Edge
	Next     int  // the phase's next stop
	Extra    int  // the level node the root's next courier goes to
	Extras   int  // couriers Extra still needs (a type-T(k) node needs k-1)
	Final    bool // heading home to finish the search
}

// RunClean executes Algorithm CLEAN as a pure message-passing system:
// hosts share no memory, cleaners are messages forwarded hop by hop
// toward their destination, the synchronizer migrates with its program
// and rides the same message as the cleaner it guides on every escort
// leg. Costs are identical to the other two engines; only the
// realization differs.
func RunClean(d int, cfg Config) Stats { return RunCleanOn(NewFabric(d), cfg) }

// RunCleanOn executes Algorithm CLEAN on a caller-owned fabric,
// reusing its wiring and validator; like RunOn, it drains the timer
// quiescence barrier before returning. It takes delivery faults (drop,
// dup, delay, partition) and rejects host crashes — plain or
// cascading — before the run: the synchronizer's program and the
// cleaners themselves ride the messages, so an amnesia crash plus
// ledger replay would re-forward agents that already moved on, which
// no recovery contract covers. The visibility engines, whose host
// state is rebuildable soft state, remain the crash/cascade testbed.
func RunCleanOn(f *Fabric, cfg Config) Stats {
	if cfg.Faults.HasHostCrashFaults() {
		panic(fmt.Errorf("netsim: plan %q carries host-crash/cascade faults, which the %s engine does not support — protocol state rides the messages and cannot be replayed; use the visibility engines", cfg.Faults.Name, CleanName))
	}
	return f.run(cfg, &cleanProtocol)
}

// cleanProtocol boots the synchronizer at the root with phase 0 ready
// and parks the other cleaners in the root's pool; each host runs
// cleanHost.
var cleanProtocol = protocol{
	name: CleanName, stream: streamClean, team: combin.CleanTeamSize,
	host: (*network).cleanHost, boot: (*network).bootClean,
}

// bootClean hands the root its pool and the synchronizer, ids[0].
func (n *network) bootClean(ids []int) {
	n.pool = ids[1:]
	n.boxes[0].Send(Message{
		Kind: SyncHop, From: 0, Agent: ids[0],
		Sync: &syncState{
			ID: ids[0], Phase: 0, Dest: -1, BounceTo: -1,
			Stop: 0, Edge: 0, Next: n.h.Order(), Extra: n.h.Order(),
		},
	})
}

// cleanHost is one host's CLEAN loop: it lands or forwards couriers,
// runs the synchronizer's program while the synchronizer is here, and
// retires after hearing the shutdown flood from every neighbour.
func (n *network) cleanHost(v int, sc *hostScratch) {
	if v == 0 {
		sc.pool = append(sc.pool, n.pool...)
	}
	for {
		m, ok := n.boxes[v].Recv()
		if !ok {
			return
		}
		switch m.Kind {
		case CourierHop:
			n.onCourier(v, sc, m)
		case SyncHop:
			n.val.arrive(m.Agent, m.From, v)
			sc.sync = m.Sync
			if sc.sync.Dest == v {
				sc.sync.Dest = -1
			}
		case Shutdown:
			sc.shutdowns++
			if !sc.closed {
				sc.closed = true
				n.floodShutdown(&sc.rng, v)
			}
			if sc.shutdowns == n.h.Dim() {
				n.boxes[v].Close()
			}
			continue
		default:
			panic(fmt.Sprintf("netsim: clean host %d got message kind %d", v, m.Kind))
		}
		n.advance(v, sc)
	}
}

// onCourier lands or forwards a cleaner bound for m.Dest along the
// canonical shortest path (from the root, the tree path down); an
// escorting synchronizer lands with it.
func (n *network) onCourier(v int, sc *hostScratch, m Message) {
	n.val.arrive(m.Agent, m.From, v)
	if m.Dest != v {
		n.val.depart(m.Agent, v)
		n.sendCourier(&sc.rng, v, m.Agent, m.Dest)
		return
	}
	if v == 0 {
		sc.pool = append(sc.pool, m.Agent)
	} else {
		sc.gathered = append(sc.gathered, m.Agent)
	}
	if m.Sync != nil {
		n.val.arrive(m.Sync.ID, m.From, v)
		sc.sync = m.Sync
		if sc.sync.Dest == v {
			sc.sync.Dest = -1
		}
	}
}

// advance runs the synchronizer program as far as host-local state
// allows; it is re-entered on every arrival at this host.
func (n *network) advance(v int, sc *hostScratch) {
	s := sc.sync
	if s == nil {
		return
	}
	// Travel leg: keep hopping toward Dest.
	if s.Dest >= 0 && s.Dest != v {
		n.hopSync(v, n.h.NextHopToward(v, s.Dest), sc)
		return
	}
	s.Dest = -1
	// Bounce leg: escorted a cleaner down, now return to the stop.
	if s.BounceTo >= 0 {
		dst := s.BounceTo
		s.BounceTo = -1
		s.Dest = dst
		n.hopSync(v, dst, sc) // the child is adjacent to the stop
		return
	}
	// Root duties: dispatch couriers while the pool lasts.
	if v == 0 && s.Extra < n.h.Order() {
		for len(sc.pool) > 0 && s.Extra < n.h.Order() {
			a := sc.pool[len(sc.pool)-1]
			sc.pool = sc.pool[:len(sc.pool)-1]
			n.val.depart(a, v)
			n.sendCourier(&sc.rng, v, a, s.Extra)
			s.Extras--
			n.skipServed(s)
		}
		if s.Extra < n.h.Order() {
			return // wait for returners to refill the pool
		}
	}
	// Final leg: wait for every returner, then flood the shutdown.
	if s.Final {
		if v != 0 {
			panic("netsim: final leg away from the root")
		}
		if len(sc.pool) != n.expectedFinalPool() {
			return // returners still walking home
		}
		sc.sync = nil
		sc.shutdowns = 0
		sc.closed = true
		n.floodShutdown(&sc.rng, v)
		return
	}
	// Stop duties.
	if s.Stop == v {
		k := n.bt.Type(v)
		if k == 0 {
			// Leaf: release the guard homeward and move on.
			if len(sc.gathered) != 1 {
				panic(fmt.Sprintf("netsim: leaf %d holds %d cleaners", v, len(sc.gathered)))
			}
			a := sc.gathered[0]
			sc.gathered = sc.gathered[:0]
			n.val.depart(a, v)
			n.sendCourier(&sc.rng, v, a, 0)
			n.nextStop(v, sc, s)
			return
		}
		if s.Edge >= n.h.Dim() {
			n.nextStop(v, sc, s)
			return
		}
		// Complement check: the stationed guard plus couriers (the
		// root's complement is its pool).
		have := len(sc.gathered)
		if v == 0 {
			have = len(sc.pool)
		}
		if have < n.h.Dim()-s.Edge {
			return // couriers still inbound
		}
		child := s.Stop | 1<<s.Edge
		s.Edge++
		var a int
		if v == 0 {
			a = sc.pool[len(sc.pool)-1]
			sc.pool = sc.pool[:len(sc.pool)-1]
		} else {
			a = sc.gathered[len(sc.gathered)-1]
			sc.gathered = sc.gathered[:len(sc.gathered)-1]
		}
		// The cleaner and the synchronizer travel as one message: the
		// guided descent of step 2.2.
		n.val.depart(a, v)
		s.Dest = child
		s.BounceTo = v
		sync := sc.sync
		sc.sync = nil
		n.val.depart(sync.ID, v)
		n.send(&sc.rng, child, Message{
			Kind: CourierHop, From: v, Agent: a, Dest: child, Sync: sync,
		})
		return
	}
	// Arrived somewhere that is not the stop: only legal at the root
	// between phases, where nextStop routes onward.
	n.nextStop(v, sc, s)
}

// floodShutdown sends the shutdown flood from v to all d neighbours,
// in label order.
func (n *network) floodShutdown(rng *hostRNG, v int) {
	for i := 1; i <= n.h.Dim(); i++ {
		n.send(rng, n.h.Neighbour(v, i), Message{Kind: Shutdown, From: v})
	}
}

// nextStop advances the program once the current stop (if any) is
// complete.
func (n *network) nextStop(v int, sc *hostScratch, s *syncState) {
	if s.Next < n.h.Order() {
		s.Stop = s.Next
		s.Next = int(bits.NextAtLevel(bits.Node(s.Stop)))
		s.Edge = bits.Msb(bits.Node(s.Stop))
		s.Dest = s.Stop
		if s.Dest == v {
			// Never happens on the hypercube (consecutive stops
			// differ), but keep the program total.
			s.Dest = -1
			n.advance(v, sc)
			return
		}
		n.hopSync(v, n.h.NextHopToward(v, s.Dest), sc)
		return
	}
	if s.Phase >= n.h.Dim()-1 {
		s.Final = true
		s.Stop = -1
		if v == 0 {
			n.advance(v, sc)
			return
		}
		s.Dest = 0
		n.hopSync(v, n.h.NextHopToward(v, 0), sc)
		return
	}
	// Prepare the next phase and head home for couriers.
	l := s.Phase + 1
	s.Phase = l
	s.Stop = -1
	s.Next = 1<<l - 1
	s.Extra, s.Extras = s.Next, n.bt.Type(s.Next)-1
	n.skipServed(s)
	if v == 0 {
		n.advance(v, sc)
		return
	}
	s.Dest = 0
	n.hopSync(v, n.h.NextHopToward(v, 0), sc)
}

// skipServed moves the courier cursor on from level nodes that need no
// further courier, past the level's end once none does.
func (n *network) skipServed(s *syncState) {
	for s.Extras <= 0 && s.Extra < n.h.Order() {
		if s.Extra = int(bits.NextAtLevel(bits.Node(s.Extra))); s.Extra < n.h.Order() {
			s.Extras = n.bt.Type(s.Extra) - 1
		}
	}
}

// expectedFinalPool is the pool size once every cleaner except the
// level-d guard has walked home: team - synchronizer - 1.
func (n *network) expectedFinalPool() int {
	return int(combin.CleanTeamSize(n.h.Dim())) - 2
}

// sendCourier sends cleaner a, departed from v, one hop toward dest.
func (n *network) sendCourier(rng *hostRNG, v, a, dest int) {
	n.send(rng, n.h.NextHopToward(v, dest), Message{Kind: CourierHop, From: v, Agent: a, Dest: dest})
}

// hopSync migrates the synchronizer one hop; the state rides along.
func (n *network) hopSync(from, to int, sc *hostScratch) {
	s := sc.sync
	sc.sync = nil
	n.val.depart(s.ID, from)
	n.send(&sc.rng, to, Message{Kind: SyncHop, From: from, Agent: s.ID, Sync: s})
}
