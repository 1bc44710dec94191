// Package netsim executes the paper's strategies as literal
// distributed systems: every hypercube host is a goroutine, links carry
// randomized latency, and agents migrate between hosts as messages.
// Three protocols run on one wiring:
//
//   - CLEAN WITH VISIBILITY (Run), where — exactly as Section 4 of the
//     paper suggests — the "visibility" of neighbour states is
//     realized by each host sending a single bit to its neighbours when
//     it becomes guarded ("this capability could be easily achieved if
//     the agents ... send a message (e.g., a single bit) to their
//     neighbouring nodes");
//   - the Section-5 cloning variant (RunCloning), which sends one agent
//     down each broadcast-tree edge;
//   - Algorithm CLEAN (RunClean), whose cleaners are messages forwarded
//     hop by hop toward their destination and whose synchronizer
//     migrates with its program.
//
// There is no shared memory between hosts: coordination is purely
// message-passing (the per-host whiteboard is host-local state). A
// sharded validator records every agent event and replays the run
// onto a board to check the global invariants.
//
// When Config.Faults carries link faults, every message crosses the
// wire-fault layer (internal/netsim/faultlink): frames can be dropped
// (healed by the layer's sequence-numbered ack/retransmit ARQ),
// duplicated (discarded by receiver dedup), delayed past successors
// (held and released in order), and a receiving host can crash — it
// loses its soft protocol state and rebuilds it from the layer's
// order ledger, with Replay-marked messages that skip validator and
// accounting effects and re-sent beacons collapsed by the idempotent
// sender. CLEAN's protocol state rides its messages, so it takes
// delivery faults only and rejects host crashes. Boot injections to
// the homebase bypass the layer: host 0's console is the one reliable
// component, exactly like the initial placement in the runtime
// engines.
//
// Every run executes on a Fabric — the pooled network arena holding
// one wiring (mailboxes, per-host scratch, the wire-fault layer and
// the timer barrier) that the three protocols share, and the
// validator ledgers. Run builds a private throwaway fabric; RunOn
// executes on a caller-owned (typically netarena-pooled) one, reusing
// all of it.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hypersearch/internal/bits"
	"hypersearch/internal/combin"
	"hypersearch/internal/faults"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/metrics"
	"hypersearch/internal/netsim/faultlink"
)

// Name identifies the engine in results.
const Name = "visibility-netsim"

// MessageKind distinguishes the message types on the wire.
type MessageKind uint8

// The wire protocols. Visibility and cloning migrate agents and
// beacon one bit; CLEAN hops couriers and the synchronizer and ends
// with a shutdown flood.
const (
	// AgentArrival carries one migrating agent.
	AgentArrival MessageKind = iota
	// GuardedBeacon is the paper's single bit: "my node is guarded
	// (and will be clean when I leave)". One per (host, neighbour).
	GuardedBeacon
	// HostRestart is the wire-fault layer's crash marker: the host
	// drops its soft protocol state and rebuilds it from the
	// Replay-marked ledger redeliveries that follow immediately.
	HostRestart
	// CourierHop carries a cleaner one hop toward its Dest; on an escort
	// leg the synchronizer rides in the same message ("the
	// synchronizer guides one agent to level l+1"), which makes the
	// pair's landing atomic exactly as in the other engines.
	CourierHop
	// SyncHop carries the synchronizer alone (walks, bounces).
	SyncHop
	// Shutdown floods the network when the search completes; every
	// host forwards it once and retires after hearing it from each
	// neighbour.
	Shutdown
)

// Message is what travels on a link.
type Message struct {
	Kind   MessageKind
	Replay bool       // ledger redelivery after a crash: skip validator/accounting effects
	From   int        // sending host
	Agent  int        // AgentArrival, CourierHop, SyncHop: the migrating agent's id
	Dest   int        // CourierHop: the cleaner's destination
	Sync   *syncState // SyncHop payload, or the synchronizer riding an escort courier
}

// Config controls a network execution.
type Config struct {
	Seed       int64
	MaxLatency time.Duration // per-link-delivery latency in [0, MaxLatency]

	// Faults, when it carries link faults, routes every message
	// through the wire-fault layer. Non-link faults in the plan are
	// ignored by this engine (they drive the DES/runtime injector).
	Faults *faults.Plan

	// newValidator lets tests substitute a validator (e.g. the dual
	// checker comparing the striped validator with the single-mutex
	// reference on one run).
	newValidator func(*hypercube.Hypercube) validator
}

// Stats extends the cost summary with wire-level accounting.
type Stats struct {
	metrics.Result
	AgentMessages  int64 // migrations (equals moves)
	BeaconMessages int64 // single-bit notifications
	BeaconBits     int64 // payload bits carried by beacons (1 each)

	// Link is the wire-fault accounting; zero without link faults.
	// Only faultlink's deterministic counters appear here, so Stats
	// stays comparable and byte-identical across reruns.
	Link faultlink.Summary
}

// Run executes CLEAN WITH VISIBILITY on H_d as a message-passing
// system on a fresh throwaway fabric and returns the run statistics.
func Run(d int, cfg Config) Stats { return RunOn(NewFabric(d), cfg) }

// RunOn executes CLEAN WITH VISIBILITY on the fabric's hypercube,
// reusing the fabric's wiring and validator. The caller owns the
// fabric; after RunOn returns every timer the run scheduled has
// drained (the quiescence barrier), so the fabric may immediately
// host the next run.
func RunOn(f *Fabric, cfg Config) Stats { return f.run(cfg, &visibilityProtocol) }

// visibilityProtocol boots the whole team into the homebase as
// arrivals; each host runs visibilityHost.
var visibilityProtocol = protocol{
	name: Name, stream: streamVisibility, team: combin.VisibilityAgents,
	host: (*network).visibilityHost, boot: (*network).bootTeam,
}

// network is a Fabric's one wiring, shared by the three protocols
// (hosts otherwise share nothing). It is reused across runs: mailboxes
// reopen, scratch re-arms per host, and the wire-fault layer resets
// under the new plan.
type network struct {
	h       *hypercube.Hypercube
	bt      *heapqueue.Tree
	cfg     Config
	val     validator
	proto   *protocol // the run's program, read by every host goroutine
	boxes   []*Mailbox
	scratch []hostScratch
	pool    []int // CLEAN: boot-time pool membership (root-local thereafter)

	// fl is the active wire-fault layer (nil on the fault-free path);
	// flPool is the pooled instance it aliases, kept across runs so a
	// faulted run after a clean one reuses the link/ledger maps.
	fl     *faultlink.Layer[Message]
	flPool *faultlink.Layer[Message]

	timers timerSet // quiescence barrier over fault-free delivery timers

	agentMsgs  atomic.Int64 // agent migrations: arrivals and courier hops
	beaconMsgs atomic.Int64 // guarded beacons admitted to the wire
	syncMoves  atomic.Int64 // synchronizer hops, alone or riding an escort
}

// wireFaults interposes the wire-fault layer when the plan asks for
// it. The plan is validated against this topology first — a link
// target naming a host outside 2^d would silently never fire, so it is
// rejected here at engine-config time. Every first delivery uses Send,
// which panics on a closed mailbox: no protocol retires a host while a
// frame it still needs is in flight, so a first frame chasing a
// retired host is a protocol bug. Ledger replays and crash markers use
// TrySend: at a host that has dispatched and retired they are simply
// dropped.
func (n *network) wireFaults() {
	if err := n.cfg.Faults.ValidateForHosts(n.h.Order()); err != nil {
		panic(fmt.Errorf("netsim: %w", err))
	}
	if !n.cfg.Faults.HasLinkFaults() {
		n.fl = nil
		return
	}
	if n.flPool == nil {
		n.flPool = faultlink.New(n.cfg.Faults, n.h.Order(), faultlink.Options{},
			func(to, _ int, replay bool, m Message) {
				if !replay {
					n.boxes[to].Send(m)
					return
				}
				m.Replay = true
				n.boxes[to].TrySend(m)
			},
			func(to int) {
				n.boxes[to].TrySend(Message{Kind: HostRestart, From: to})
			})
	} else {
		n.flPool.Reset(n.cfg.Faults)
	}
	n.fl = n.flPool
}

// quiesce drains every wall-clock timer the run scheduled: the
// engine's own delivery timers and, when faulted, the wire layer's
// retransmit/delay/duplicate timers.
func (n *network) quiesce() {
	n.timers.wait()
	if n.fl != nil {
		n.fl.Quiesce()
	}
}

// send counts the message and delivers it after the link's randomized
// latency, through the wire-fault layer when the plan interposes one;
// rng is owned by the sending host. Agent arrivals and courier hops
// count as agent messages, and every hop carrying the synchronizer as
// a synchronizer move.
func (n *network) send(rng *hostRNG, to int, m Message) {
	lat := time.Duration(0)
	if n.cfg.MaxLatency > 0 {
		lat = time.Duration(rng.Int63n(int64(n.cfg.MaxLatency) + 1))
	}
	if m.Kind == GuardedBeacon && n.fl != nil {
		// A host rebuilt after a crash blindly re-sends the beacons it
		// already sent; the sender collapses them, and only admitted
		// frames count as messages. Agent dispatches are always first
		// sends — a host crash happens before its dispatch, and the
		// rebuilt host dispatches exactly once — so they use the plain
		// path.
		if n.fl.SendIdempotent(m.From, to, "beacon", lat, m) {
			n.beaconMsgs.Add(1)
		}
		return
	}
	switch m.Kind {
	case AgentArrival, CourierHop:
		n.agentMsgs.Add(1)
	case GuardedBeacon:
		n.beaconMsgs.Add(1)
	}
	if m.Sync != nil {
		n.syncMoves.Add(1)
	}
	switch {
	case n.fl != nil:
		n.fl.Send(m.From, to, lat, m)
	case lat == 0:
		n.boxes[to].Send(m)
	default:
		n.timers.after(lat, func() { n.boxes[to].Send(m) })
	}
}

// runHost is one host goroutine: it re-arms the host's scratch, runs
// the protocol's host loop and joins the run's WaitGroup. Each go
// statement allocates one closure capturing (n, wg, v); the program is
// read from the wiring rather than passed in, which keeps that closure
// at three words.
func (n *network) runHost(wg *sync.WaitGroup, v int) {
	defer wg.Done()
	sc := &n.scratch[v]
	sc.rearm(n.cfg.Seed, v, n.proto.stream)
	n.proto.host(n, v, sc)
}

// bootTeam injects the placed team into the homebase as arrivals.
func (n *network) bootTeam(ids []int) {
	for _, id := range ids {
		n.boxes[0].Send(Message{Kind: AgentArrival, From: 0, Agent: id})
	}
}

// visibilityHost is one host's event loop: the local program of
// Section 4.2 driven entirely by arrivals and beacons.
func (n *network) visibilityHost(v int, sc *hostScratch) {
	rng := &sc.rng
	k := n.bt.Type(v)
	required := int(heapqueue.AgentsRequired(k))
	msb := bits.Msb(bits.Node(v))
	allReady := readyMask(msb)
	dispatched := false

	// The root has no smaller neighbours and may dispatch immediately
	// once its complement arrives; everyone else waits for beacons.
	for {
		m, ok := n.boxes[v].Recv()
		if !ok {
			return
		}
		if dispatched {
			// Retired: only a crash marker or ledger replays can trail
			// the dispatch-triggering message in the drain; the host's
			// protocol obligations are already discharged.
			continue
		}
		switch m.Kind {
		case AgentArrival:
			if !m.Replay {
				n.val.arrive(m.Agent, m.From, v)
			}
			sc.gathered = append(sc.gathered, m.Agent)
			if len(sc.gathered) == required {
				n.beaconDependents(rng, v)
			}
		case GuardedBeacon:
			sc.ready |= readyBit(v, msb, m.From)
		case HostRestart:
			// Amnesia crash: lose the soft protocol state. The wire
			// layer replays every delivered frame right behind this
			// marker; replays rebuild gathered/ready without touching
			// the validator, and any re-sent beacons collapse in the
			// idempotent sender.
			sc.gathered = sc.gathered[:0]
			sc.ready = 0
			continue
		default:
			panic(fmt.Sprintf("netsim: host %d got unknown message kind %d", v, m.Kind))
		}
		if len(sc.gathered) < required {
			continue
		}
		if sc.ready != allReady {
			continue
		}
		dispatched = true
		if k == 0 {
			n.val.terminate(sc.gathered[0], v)
			n.boxes[v].Close()
			continue
		}
		// Dispatch the complement down the broadcast tree and retire
		// this host: with the children notified, no further message
		// can matter here. Child i is of type T(k-1-i) and takes its
		// complement.
		for i := 0; i < k; i++ {
			child := v | 1<<(msb+i)
			for j := heapqueue.AgentsRequired(k - 1 - i); j > 0; j-- {
				a := sc.gathered[len(sc.gathered)-1]
				sc.gathered = sc.gathered[:len(sc.gathered)-1]
				n.val.depart(a, v)
				n.send(rng, child, Message{Kind: AgentArrival, From: v, Agent: a})
			}
		}
		n.boxes[v].Close()
	}
}

// readyMask is the "all smaller neighbours have beaconed" bitmask for
// a host with k smaller neighbours (k <= d < 64).
func readyMask(k int) uint64 { return uint64(1)<<uint(k) - 1 }

// readyBit is the ready-mask bit a guarded beacon from neighbour u
// sets at host v: bit label-1 when u is one of v's smaller neighbours
// (label(v,u) <= m(v), given as msb), else none.
func readyBit(v, msb, u int) uint64 {
	if l := bits.Label(bits.Node(v), bits.Node(u)); l <= msb {
		return 1 << uint(l-1)
	}
	return 0
}

// beaconDependents sends one guarded beacon from the newly guarded v
// to every neighbour that waits on its state — the neighbours y for
// which v is a *smaller* neighbour (label(v,y) <= m(y)) — in label
// order. Others have already retired their mailboxes and never read
// v's state.
func (n *network) beaconDependents(rng *hostRNG, v int) {
	for i := 1; i <= n.h.Dim(); i++ {
		if w := v ^ 1<<(i-1); i <= bits.Msb(bits.Node(w)) {
			n.send(rng, w, Message{Kind: GuardedBeacon, From: v})
		}
	}
}
