package netsim

import (
	"fmt"

	"hypersearch/internal/bits"
)

// CloningName identifies the message-passing cloning run in results.
const CloningName = "cloning-netsim"

// RunCloning executes the Section-5 cloning variant on the network
// engine: a single agent message seeds the homebase; every host that
// gathers its (single) arrival and sees its smaller neighbours ready
// clones locally — cloning costs no messages — and sends exactly one
// agent down each broadcast-tree edge. Total agent migrations: n-1,
// the minimum possible, making the variant the message-optimal
// realization of the visibility model.
func RunCloning(d int, cfg Config) Stats { return RunCloningOn(NewFabric(d), cfg) }

// RunCloningOn executes the cloning variant on a caller-owned fabric,
// reusing its wiring and validator; like RunOn, it drains the timer
// quiescence barrier before returning.
func RunCloningOn(f *Fabric, cfg Config) Stats { return f.run(cfg, &cloningProtocol) }

// cloningProtocol boots one seed agent into the homebase; each host
// runs cloningHost.
var cloningProtocol = protocol{
	name: CloningName, stream: streamCloning, team: func(int) int64 { return 1 },
	host: (*network).cloningHost, boot: (*network).bootTeam,
}

// cloningHost is the local cloning rule: one arrival, clone for the
// children, beacon the dependents. The gathered scratch doubles as the
// movers list at dispatch.
func (n *network) cloningHost(v int, sc *hostScratch) {
	rng := &sc.rng
	msb := bits.Msb(bits.Node(v))
	allReady := readyMask(msb)
	incumbent := -1
	dispatched := false

	for {
		m, ok := n.boxes[v].Recv()
		if !ok {
			return
		}
		if dispatched {
			// Retired: only crash markers and replays can trail the
			// dispatch trigger in the drain.
			continue
		}
		switch m.Kind {
		case AgentArrival:
			if !m.Replay {
				n.val.arrive(m.Agent, m.From, v)
			}
			incumbent = m.Agent
			n.beaconDependents(rng, v)
		case GuardedBeacon:
			sc.ready |= readyBit(v, msb, m.From)
		case HostRestart:
			// Amnesia crash: the ledger replay behind this marker
			// rebuilds incumbent/ready; re-beacons collapse in the
			// idempotent sender.
			incumbent = -1
			sc.ready = 0
			continue
		default:
			panic(fmt.Sprintf("netsim: cloning host %d got message kind %d", v, m.Kind))
		}
		if incumbent < 0 || sc.ready != allReady {
			continue
		}
		dispatched = true
		k := n.bt.Type(v) // v's children are v | 1<<(msb+i), i < k
		if k == 0 {
			n.val.terminate(incumbent, v)
			n.boxes[v].Close()
			continue
		}
		// The incumbent continues to the first child; clones take the
		// rest. Cloning is host-local: no messages, no latency.
		movers := append(sc.gathered[:0], incumbent)
		for i := 1; i < k; i++ {
			movers = append(movers, n.val.clone(v))
		}
		sc.gathered = movers
		for i, a := range movers {
			n.val.depart(a, v)
			n.send(rng, v|1<<(msb+i), Message{Kind: AgentArrival, From: v, Agent: a})
		}
		n.boxes[v].Close()
	}
}
