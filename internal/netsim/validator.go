package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hypersearch/internal/bits"
	"hypersearch/internal/board"
	"hypersearch/internal/hypercube"
)

// validator observes every agent lifecycle event of a network run and
// checks the global invariants (monotonicity, contiguity, capture).
// The engines run the striped implementation; tests substitute others
// through Config.newValidator. The atomic-move semantics are shared by
// every implementation: an agent departs its host and arrives at the
// destination when the arrival message is processed; between depart
// and arrive it is "on the link", which the board models by keeping it
// on the source until arrival.
type validator interface {
	place() int
	clone(at int) int
	depart(agent, from int)
	arrive(agent, from, to int)
	terminate(agent, at int)
	stats(agentMsgs, beaconMsgs int64) Stats
}

// buildStats assembles a validator's Stats from a fully-applied board.
// The board's agents are the team; its clock never leaves 0, so the
// makespan stays 0.
func buildStats(b *board.Board, agentMsgs, beaconMsgs int64) Stats {
	r := b.Result(Name)
	r.Dim = bits.Dim(r.Nodes)
	return Stats{
		Result:         r,
		AgentMessages:  agentMsgs,
		BeaconMessages: beaconMsgs,
		BeaconBits:     beaconMsgs, // one bit each, by construction
	}
}

// valOp is one recorded lifecycle event in a stripe ledger.
type valOp struct {
	seq   int64
	kind  opKind
	agent int
	from  int
	to    int
}

type opKind uint8

const (
	opPlace opKind = iota
	opClone
	opDepart
	opArrive
	opTerminate
)

// stripe is one shard of the striped validator's ledger. Padding keeps
// neighbouring stripes off one cache line.
type stripe struct {
	mu  sync.Mutex
	ops []valOp
	_   [40]byte
}

// maxStripes bounds the stripe count; past this, contention is spread
// thin enough that more shards only cost memory.
const maxStripes = 64

// stripedValidator shards event recording over power-of-two stripes
// of the node index: hosts append to a per-stripe ledger under a
// per-stripe lock, and the invariants are checked once, at stats()
// time, by merging the ledgers in global sequence order and replaying
// them onto a fresh board. Hosts in different stripes never contend,
// which is what lets the visibility run complete at d=12 even under
// the race detector. Correctness argument (see ALGORITHMS.md): every
// event takes a global sequence
// number from one atomic counter *during* the event — after its
// preconditions hold on the calling host, before the host acts on its
// consequences — so the sequence order is a linearization of the run:
// it respects program order on every host and the happens-before
// created by each message (depart is sequenced before the matching
// arrive because the arrival message is only sent after depart
// returns). stats() merges the per-stripe ledgers in sequence order
// and replays them onto a fresh board; since a single-mutex validator
// applies events to its board in *some* linearization of the same run,
// and the board is deterministic given an event order, the replay
// checks exactly the invariants such a validator checks — only
// deferred to stats() time instead of inline. The single-mutex
// reference lives in validator_test.go, where the dual validator
// compares the two event by event.
type stripedValidator struct {
	h       *hypercube.Hypercube
	seq     atomic.Int64
	created atomic.Int64 // next agent id (board ids are assigned at replay)
	mask    int
	stripes []stripe

	// stats()-time replay scratch, reused across pooled runs. The
	// replay board resets to exactly the fresh-board state, so a pooled
	// validator's Stats are byte-identical to a fresh validator's.
	merged  []valOp
	replay  *board.Board
	ids     []int
	pending map[int]int
}

func newStripedValidator(h *hypercube.Hypercube) *stripedValidator {
	n := 1
	for n < maxStripes && n < h.Order() {
		n <<= 1
	}
	return &stripedValidator{h: h, mask: n - 1, stripes: make([]stripe, n)}
}

// reset re-arms a pooled striped validator in O(stripes): counters
// restart from zero and every ledger truncates keeping its capacity.
func (v *stripedValidator) reset() {
	v.seq.Store(0)
	v.created.Store(0)
	for i := range v.stripes {
		v.stripes[i].ops = v.stripes[i].ops[:0]
	}
}

// record stamps the op with the next global sequence number and
// appends it to node's stripe.
func (v *stripedValidator) record(node int, op valOp) {
	op.seq = v.seq.Add(1)
	st := &v.stripes[node&v.mask]
	st.mu.Lock()
	st.ops = append(st.ops, op)
	st.mu.Unlock()
}

func (v *stripedValidator) place() int {
	id := int(v.created.Add(1)) - 1
	v.record(0, valOp{kind: opPlace, agent: id, to: 0})
	return id
}

func (v *stripedValidator) clone(at int) int {
	id := int(v.created.Add(1)) - 1
	v.record(at, valOp{kind: opClone, agent: id, to: at})
	return id
}

func (v *stripedValidator) depart(agent, from int) {
	v.record(from, valOp{kind: opDepart, agent: agent, from: from})
}

func (v *stripedValidator) arrive(agent, from, to int) {
	v.record(to, valOp{kind: opArrive, agent: agent, from: from, to: to})
}

func (v *stripedValidator) terminate(agent, at int) {
	v.record(at, valOp{kind: opTerminate, agent: agent, to: at})
}

// stats merges the ledgers and replays them. Callers must have joined
// every host goroutine first (the Run functions wg.Wait before stats),
// so the ledgers are complete; the stripe locks are still taken to
// keep the harvest well-ordered under the race detector.
func (v *stripedValidator) stats(agentMsgs, beaconMsgs int64) Stats {
	ops := v.merged[:0]
	for i := range v.stripes {
		st := &v.stripes[i]
		st.mu.Lock()
		ops = append(ops, st.ops...)
		st.mu.Unlock()
	}
	v.merged = ops
	slices.SortFunc(ops, func(a, b valOp) int { return cmp.Compare(a.seq, b.seq) })

	if v.replay == nil {
		v.replay = board.New(v.h, 0)
	} else {
		v.replay.Reset()
	}
	b := v.replay
	if n := int(v.created.Load()); cap(v.ids) < n {
		v.ids = make([]int, n)
	} else {
		v.ids = v.ids[:n]
	}
	ids := v.ids // recorded agent id -> board id
	if v.pending == nil {
		v.pending = make(map[int]int)
	} else {
		clear(v.pending)
	}
	pending := v.pending
	for _, op := range ops {
		switch op.kind {
		case opPlace:
			ids[op.agent] = b.Place(0)
		case opClone:
			ids[op.agent] = b.Clone(op.to, 0)
		case opDepart:
			pending[op.agent] = op.from
		case opArrive:
			if src, ok := pending[op.agent]; ok {
				delete(pending, op.agent)
				if src != op.from {
					panic(fmt.Sprintf("netsim: agent %d departed %d but arrived from %d", op.agent, src, op.from))
				}
				b.Move(ids[op.agent], op.to, 0)
				continue
			}
			// Boot-time arrival at the homebase: already there.
			if op.to != b.Home() {
				panic(fmt.Sprintf("netsim: arrival of non-migrating agent %d at %d", op.agent, op.to))
			}
		case opTerminate:
			b.Terminate(ids[op.agent], 0)
		}
	}
	return buildStats(b, agentMsgs, beaconMsgs)
}
