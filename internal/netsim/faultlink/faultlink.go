// Package faultlink is the netsim wire-fault layer: it sits between a
// sender host and the receiver's mailbox and applies the link faults of
// an internal/faults Plan — frame drops, duplications, delays, and
// receiver host crashes — while running the recovery machinery that
// makes the protocols survive them.
//
// # Sequence numbers and the ARQ protocol
//
// Every directed link (u,v) numbers its logical frames 1,2,3,... in the
// sender's program order. Because each link has exactly one sending
// host, the assignment is deterministic: frame k on a link is always
// the same protocol message, regardless of OS scheduling. Fault
// triggers count these sequence numbers, never wall-clock, which is
// what lets one seeded JSON plan drive identical fault schedules on
// every run.
//
// Loss recovery is a sender-side ARQ (automatic repeat request): each
// transmission attempt of a frame carries (seq, attempt), the receiver
// acknowledges admission, and an unacknowledged attempt is resent after
// a deterministic exponential backoff (RetransmitBase << attempt). The
// implementation collapses the ack round-trip: the only loss in the
// system is injected, so the layer knows at send time whether attempt
// n of frame k is dropped, and schedules the retransmission exactly
// then. The observable schedule — which attempts exist, when they fire
// relative to each other — is identical to a real timeout-driven ARQ
// whose timer equals the backoff, with no nondeterministic timer races.
// A link-drop fault may swallow at most MaxLinkRetransmits-2 attempts
// per frame (enforced by Plan.Validate), so delivery always succeeds
// within the budget; exceeding it panics as a plan bug.
//
// # In-order release, duplicates
//
// The receiver side of each link admits frames in sequence order:
// out-of-order frames (reordered past successors by link-delay) are
// held in a reorder buffer and released when the gap closes, and
// duplicate copies (link-dup, or a retransmission racing a late ack in
// a real ARQ) are discarded by sequence number. Hosts therefore see
// each logical frame exactly once, in per-link order — the same
// delivery contract the fault-free mailbox gives them.
//
// # Host crashes and the order ledger
//
// A host-crash fault fires when frame At of its link is admitted: the
// receiving host loses its soft protocol state (amnesia), while the
// layer's per-host order ledger — every frame the host has been
// delivered, in admission order — survives, exactly like the
// whiteboard order ledger that runtime.RunClean replays after an
// agent crash. The layer invokes the crash callback and then redelivers
// the full ledger with replay=true; the host rebuilds its state from
// the replay, and engines skip validator/accounting effects for
// replayed frames so no agent move or beacon is double-counted.
// Re-sends the rebuilt host issues (beacons it already sent before the
// crash) are collapsed by SendIdempotent, so recovery adds zero logical
// frames: the wire schedule downstream of a crash is identical to the
// crash-free one.
//
// # Partitions
//
// A partition fault cuts a declared set of links — or the subcube
// boundary cut:dim=k — atomically: the same frame window [At, Until]
// applies to every member link, and a caught frame is parked in the
// cut until the partition heals, Delay logical units later. The heal
// replays each link's backlog in per-link sequence order: parked
// frames re-enter flight on the quiescence-tracked timers and the
// receiver's in-order release admits them exactly as the ARQ admits a
// retransmitted frame — nothing is lost, everything is late. Frames
// past the window that physically arrive during the outage wait in
// the reorder buffer behind the parked ones, so no traffic is
// admitted across the cut before the backlog.
//
// # Cascades
//
// A cascade fault is a host crash under correlated failure: it fires
// exactly like host-crash at frame At of its link, and if the crashed
// host's ledger replay redelivers at least Threshold entries — the
// recovery load crossing the bar — the named neighbour hosts in
// Victims crash too, in order, each with its own ledger replay.
// Victim crashes run after the primary's ledger lock is released and
// take one host lock at a time, so cascades never deadlock against
// concurrent admissions.
//
// # Logical wire time
//
// WireTime is the layer's logical clock: a deterministic Δtime bill
// advanced in frame admission order. Every admitted frame charges the
// logical duration the plan injected into it — RetransmitUnits <<
// (n-1) for each dropped attempt n, the link-delay units it carried
// in flight, and the partition heal window it sat out. The charge is
// a pure function of (link, seq), so the total is independent of the
// physical interleaving: wall-clock backoff and delay timers realize
// the schedule, but the accounting never reads them. A fault-free
// frame bills zero, which makes WireTime exactly the recovery cost of
// the plan.
//
// # Determinism contract
//
// Of the wire counters, Frames, Drops, Retransmits, Dups, Crashes,
// Partitioned, Cascades and WireTime are pure functions of the plan
// and the protocol (Summary returns exactly these); Held,
// DupsDiscarded, Deduped and Replays depend on physical arrival
// interleavings and are exposed for diagnostics only. One caveat:
// a cascade's threshold decision reads the primary host's full order
// ledger, so it is deterministic exactly when every frame the host
// admitted before the trigger arrived on the faulted link itself (a
// single-fed host, e.g. any host whose only smaller neighbour is the
// sender). Plans that point cascades at multi-fed hosts get
// best-effort secondary crashes and forfeit the byte-identical
// Summary guarantee.
package faultlink

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hypersearch/internal/faults"
)

// Options tunes the wall-clock side of the layer. The zero value picks
// defaults that keep small-d test campaigns fast.
type Options struct {
	// RetransmitBase is the ARQ backoff base: attempt n of a frame is
	// resent RetransmitBase << (n-1) after the drop. Default 50µs.
	RetransmitBase time.Duration
	// DelayUnit converts a link-delay or partition fault's Delay
	// (engine units) into wall time. Default 1µs.
	DelayUnit time.Duration
	// RetransmitUnits is the logical-clock cost of the first backoff:
	// attempt n of a dropped frame bills RetransmitUnits << (n-1)
	// WireTime units. Default 50, mirroring the RetransmitBase /
	// DelayUnit wall-clock ratio.
	RetransmitUnits int64
}

func (o Options) withDefaults() Options {
	if o.RetransmitBase <= 0 {
		o.RetransmitBase = 50 * time.Microsecond
	}
	if o.DelayUnit <= 0 {
		o.DelayUnit = time.Microsecond
	}
	if o.RetransmitUnits <= 0 {
		o.RetransmitUnits = 50
	}
	return o
}

// Summary is the schedule-independent subset of the wire counters: the
// fields byte-identical across reruns of the same seeded plan. It is
// comparable with == so engines can embed it in comparable stats.
type Summary struct {
	Frames      int64 // logical frames admitted to the wire
	Drops       int64 // transmission attempts swallowed by link-drop
	Retransmits int64 // ARQ resends (one per drop, by construction)
	Dups        int64 // duplicate copies injected by link-dup
	Crashes     int64 // host-crash and primary cascade crashes fired
	Partitioned int64 // frames caught in a partition cut's backlog
	Cascades    int64 // secondary crashes fired by tripped cascades
	WireTime    int64 // logical Δtime bill: backoff + delay + heal units, in admission order
}

// WireStats is the full wire accounting: Summary plus the
// schedule-dependent diagnostic counters.
type WireStats struct {
	Summary
	Transmissions int64 // attempts put on the wire (= Frames + Drops)
	Deduped       int64 // idempotent sends collapsed at the sender
	DupsDiscarded int64 // copies discarded by receiver dedup
	Held          int64 // frames buffered out of order
	Replays       int64 // ledger entries redelivered after crashes
}

// wireFault is the compiled form of one link fault. A partition fault
// compiles to one record per member directed link, all carrying the
// same window and heal delay — the "atomic cut" is exactly this shared
// schedule.
type wireFault struct {
	kind      faults.Kind
	from, to  int
	at        int64
	until     int64
	times     int   // link-drop: attempts swallowed per matching frame
	delay     int64 // link-delay: extra flight units; partition: heal window units
	threshold int   // cascade: replay volume tripping the secondaries
	victims   []int // cascade: hosts crashed when the threshold trips
}

// Layer applies a plan's link faults to a message-passing engine whose
// payloads are T. deliver hands an admitted frame to the receiving
// host (replay=true for ledger redeliveries after a crash); crash
// tells host `to` it has lost its soft state, and is always followed
// by the full-ledger replay before any newer frame is admitted.
type Layer[T any] struct {
	opts    Options
	deliver func(to, from int, replay bool, payload T)
	crash   func(to int)
	faults  []wireFault

	mu    sync.Mutex
	links map[int64]*link[T]

	hosts []hostState[T]

	// timers is the quiescence barrier over the layer's wall-clock
	// machinery: every time.AfterFunc (retransmit backoff, delayed
	// flight, duplicate copy) registers here and Quiesce blocks until
	// all of them have fired and returned. pendingTimers mirrors the
	// same count observably for tests.
	timers        sync.WaitGroup
	pendingTimers atomic.Int64

	frames        atomic.Int64
	transmissions atomic.Int64
	drops         atomic.Int64
	retransmits   atomic.Int64
	dups          atomic.Int64
	crashes       atomic.Int64
	partitioned   atomic.Int64
	cascades      atomic.Int64
	wireTime      atomic.Int64
	deduped       atomic.Int64
	dupsDiscarded atomic.Int64
	held          atomic.Int64
	replays       atomic.Int64
}

// link is the per-directed-link state. Lock order: Layer.mu > link.mu
// > hostState.mu; the deliver callback runs under link.mu+hostState.mu
// and must not call back into the layer.
type link[T any] struct {
	mu       sync.Mutex
	from, to int
	nextSeq  int64            // last assigned frame number
	once     map[string]int64 // idempotency key -> admitted frame
	expect   int64            // next frame to release in order
	held     map[int64]T      // reorder buffer: frame -> payload
}

// hostState is the receiver-side order ledger of one host.
type hostState[T any] struct {
	mu     sync.Mutex
	ledger []ledgerEntry[T]
}

type ledgerEntry[T any] struct {
	from    int
	payload T
}

// New compiles the plan's link faults into a layer over `hosts` hosts.
// A nil plan (or one without link faults) yields a pass-through layer.
// It panics on an invalid plan, mirroring faults.NewInjector, so
// engines can assume wire hooks never fail.
func New[T any](plan *faults.Plan, hosts int, opts Options,
	deliver func(to, from int, replay bool, payload T), crash func(to int)) *Layer[T] {
	l := &Layer[T]{
		opts:    opts.withDefaults(),
		deliver: deliver,
		crash:   crash,
		links:   make(map[int64]*link[T]),
		hosts:   make([]hostState[T], hosts),
	}
	l.faults = compileFaults(plan, hosts)
	return l
}

// compileFaults validates the plan and compiles its link faults into
// trigger records, expanding each partition into one record per member
// directed link. A nil plan compiles to none (pass-through layer).
// Faults naming hosts outside the topology are a config bug, rejected
// here (panicking, mirroring faults.NewInjector) rather than compiled
// into triggers that could never fire.
func compileFaults(plan *faults.Plan, hosts int) []wireFault {
	if plan == nil {
		return nil
	}
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	d := 0
	for 1<<(d+1) <= hosts {
		d++
	}
	var wfs []wireFault
	for _, f := range plan.LinkFaults() {
		wf := wireFault{
			kind: f.Kind,
			at:   int64(f.At), until: int64(f.Until),
			times: f.Times, delay: f.Delay,
			threshold: f.Threshold, victims: f.Victims,
		}
		if wf.until == 0 {
			wf.until = wf.at
		}
		if wf.kind == faults.LinkDrop && wf.times == 0 {
			wf.times = 1
		}
		if f.Kind == faults.Partition {
			links, err := faults.PartitionLinks(f.Target, d)
			if err != nil {
				panic(fmt.Errorf("faultlink: %w", err))
			}
			for _, lk := range links {
				member := wf
				member.from, member.to = lk[0], lk[1]
				wfs = append(wfs, member)
			}
			continue
		}
		from, to, err := faults.ParseLinkTarget(f.Target)
		if err != nil {
			panic(err) // unreachable: Validate parsed it already
		}
		if from >= hosts || to >= hosts {
			panic(fmt.Errorf("faultlink: fault target %q names a host outside the %d-host layer — it could never fire", f.Target, hosts))
		}
		for _, v := range f.Victims {
			if v >= hosts {
				panic(fmt.Errorf("faultlink: cascade victim %d outside the %d-host layer", v, hosts))
			}
		}
		wf.from, wf.to = from, to
		wfs = append(wfs, wf)
	}
	return wfs
}

// Reset re-arms a quiesced layer for a new run under a new plan:
// sequence counters restart from frame 1, the idempotency, reorder and
// ledger state of the previous run is discarded (capacity kept), and
// the wire counters zero. Callers must have joined the previous run's
// hosts and called Quiesce first — a still-flying timer would admit a
// stale frame into the new run's ledgers.
func (l *Layer[T]) Reset(plan *faults.Plan) {
	l.faults = compileFaults(plan, len(l.hosts))
	l.mu.Lock()
	for _, lk := range l.links {
		lk.mu.Lock()
		lk.nextSeq = 0
		lk.expect = 1
		clear(lk.once)
		clear(lk.held)
		lk.mu.Unlock()
	}
	l.mu.Unlock()
	for i := range l.hosts {
		h := &l.hosts[i]
		h.mu.Lock()
		clear(h.ledger) // release payload references
		h.ledger = h.ledger[:0]
		h.mu.Unlock()
	}
	l.frames.Store(0)
	l.transmissions.Store(0)
	l.drops.Store(0)
	l.retransmits.Store(0)
	l.dups.Store(0)
	l.crashes.Store(0)
	l.partitioned.Store(0)
	l.cascades.Store(0)
	l.wireTime.Store(0)
	l.deduped.Store(0)
	l.dupsDiscarded.Store(0)
	l.held.Store(0)
	l.replays.Store(0)
}

// after schedules fn under the quiescence barrier. The count is taken
// at schedule time and dropped only after fn returns, so a chained
// reschedule (a retransmit arming the next attempt from inside its
// callback) keeps the counter above zero for the whole chain — Quiesce
// can never observe a momentary zero between links of a chain.
func (l *Layer[T]) after(d time.Duration, fn func()) {
	l.pendingTimers.Add(1)
	l.timers.Add(1)
	time.AfterFunc(d, func() {
		defer func() {
			l.pendingTimers.Add(-1)
			l.timers.Done()
		}()
		fn()
	})
}

// Quiesce blocks until every timer the layer has scheduled has fired
// and returned. A duplicate copy is not needed for protocol completion,
// so its timer can outlive the run that scheduled it; engines must
// Quiesce after joining their hosts and before the layer's state is
// harvested or recycled.
func (l *Layer[T]) Quiesce() { l.timers.Wait() }

// PendingTimers reports how many scheduled timers have not yet
// completed; zero after Quiesce, by construction.
func (l *Layer[T]) PendingTimers() int64 { return l.pendingTimers.Load() }

// Send admits one logical frame from -> to and transmits it with the
// given base latency plus whatever the plan injects.
func (l *Layer[T]) Send(from, to int, latency time.Duration, payload T) {
	lk := l.linkFor(from, to)
	lk.mu.Lock()
	lk.nextSeq++
	seq := lk.nextSeq
	lk.mu.Unlock()
	l.frames.Add(1)
	l.transmit(lk, seq, 1, latency, payload)
}

// SendIdempotent admits the frame only if no frame with the same key
// was already admitted on this link; it reports whether the frame was
// admitted, so callers can keep their message accounting in step (a
// collapsed re-send is not a message). This is the re-beacon path:
// after a crash a rebuilt host blindly re-sends its beacons, and the
// sender-side dedup makes recovery add zero wire frames.
func (l *Layer[T]) SendIdempotent(from, to int, key string, latency time.Duration, payload T) bool {
	lk := l.linkFor(from, to)
	lk.mu.Lock()
	if _, sent := lk.once[key]; sent {
		lk.mu.Unlock()
		l.deduped.Add(1)
		return false
	}
	lk.nextSeq++
	seq := lk.nextSeq
	if lk.once == nil {
		lk.once = make(map[string]int64)
	}
	lk.once[key] = seq
	lk.mu.Unlock()
	l.frames.Add(1)
	l.transmit(lk, seq, 1, latency, payload)
	return true
}

// Stats snapshots the wire counters.
func (l *Layer[T]) Stats() WireStats {
	return WireStats{
		Summary: Summary{
			Frames:      l.frames.Load(),
			Drops:       l.drops.Load(),
			Retransmits: l.retransmits.Load(),
			Dups:        l.dups.Load(),
			Crashes:     l.crashes.Load(),
			Partitioned: l.partitioned.Load(),
			Cascades:    l.cascades.Load(),
			WireTime:    l.wireTime.Load(),
		},
		Transmissions: l.transmissions.Load(),
		Deduped:       l.deduped.Load(),
		DupsDiscarded: l.dupsDiscarded.Load(),
		Held:          l.held.Load(),
		Replays:       l.replays.Load(),
	}
}

// SummaryStats snapshots only the deterministic counters.
func (l *Layer[T]) SummaryStats() Summary { return l.Stats().Summary }

func (l *Layer[T]) linkFor(from, to int) *link[T] {
	key := int64(from)<<32 | int64(to)
	l.mu.Lock()
	lk := l.links[key]
	if lk == nil {
		lk = &link[T]{from: from, to: to, expect: 1}
		l.links[key] = lk
	}
	l.mu.Unlock()
	return lk
}

// verdict folds every matching fault over one transmission attempt:
// whether it is dropped, whether a duplicate copy is injected, and how
// many extra flight units it carries. It is a pure function of
// (link, seq, attempt), which is what keeps the fault schedule
// deterministic.
func (l *Layer[T]) verdict(lk *link[T], seq int64, attempt int) (drop, dup bool, delay int64) {
	for _, f := range l.faults {
		if f.from != lk.from || f.to != lk.to || seq < f.at || seq > f.until {
			continue
		}
		switch f.kind {
		case faults.LinkDrop:
			if attempt <= f.times {
				drop = true
			}
		case faults.LinkDup:
			dup = true
		case faults.LinkDelay:
			delay += f.delay
		case faults.Partition:
			// A caught frame sits in the cut for the heal window; the
			// park is realized as delayed flight so the backlog re-enters
			// on quiescence-tracked timers, and the receiver's in-order
			// release keeps per-link order across the heal.
			delay += f.delay
		}
	}
	return drop, dup, delay
}

// frameCost is the logical Δtime bill of frame seq on lk: the sum of
// the backoff units of every dropped attempt plus the injected delay
// (link-delay and partition heal) the surviving attempt carries. It is
// a pure function of (link, seq) — evaluated from the same verdicts
// that drive the physical schedule but reading none of its wall-clock
// timers — so the accumulated WireTime is interleaving-independent.
func (l *Layer[T]) frameCost(lk *link[T], seq int64) int64 {
	var cost int64
	for attempt := 1; ; attempt++ {
		drop, _, delay := l.verdict(lk, seq, attempt)
		if !drop {
			return cost + delay
		}
		cost += l.opts.RetransmitUnits << (attempt - 1)
	}
}

// partitionHit reports whether frame seq on lk was caught in a
// partition cut's window.
func (l *Layer[T]) partitionHit(lk *link[T], seq int64) bool {
	for _, f := range l.faults {
		if f.kind == faults.Partition && f.from == lk.from && f.to == lk.to &&
			seq >= f.at && seq <= f.until {
			return true
		}
	}
	return false
}

// crashFaultAt returns the host-crash or cascade fault fired by
// admitting frame seq on lk, or nil. No fired flag is needed: each
// (link, seq) is admitted exactly once, so a one-shot trigger cannot
// re-fire.
func (l *Layer[T]) crashFaultAt(lk *link[T], seq int64) *wireFault {
	for i := range l.faults {
		f := &l.faults[i]
		if (f.kind == faults.HostCrash || f.kind == faults.Cascade) &&
			f.from == lk.from && f.to == lk.to && f.at == seq {
			return f
		}
	}
	return nil
}

// transmit puts attempt n of frame seq on the wire.
func (l *Layer[T]) transmit(lk *link[T], seq int64, attempt int, latency time.Duration, payload T) {
	if attempt > faults.MaxLinkRetransmits {
		panic(fmt.Sprintf("faultlink: frame %d on link %d-%d exceeded %d transmissions — plan validation should have bounded this",
			seq, lk.from, lk.to, faults.MaxLinkRetransmits))
	}
	l.transmissions.Add(1)
	drop, dup, delay := l.verdict(lk, seq, attempt)
	if drop {
		l.drops.Add(1)
		l.retransmits.Add(1)
		backoff := l.opts.RetransmitBase << (attempt - 1)
		l.after(backoff, func() { l.transmit(lk, seq, attempt+1, latency, payload) })
		return
	}
	flight := latency + time.Duration(delay)*l.opts.DelayUnit
	if flight == 0 {
		l.receive(lk, seq, payload)
	} else {
		l.after(flight, func() { l.receive(lk, seq, payload) })
	}
	if dup {
		l.dups.Add(1)
		// The copy flies the same route a beat behind the original;
		// whichever lands first is admitted, the other discarded.
		l.after(flight+l.opts.DelayUnit, func() { l.receive(lk, seq, payload) })
	}
}

// receive is the receiver side of the link: dedup by sequence number,
// hold out-of-order frames, and release in-order runs.
func (l *Layer[T]) receive(lk *link[T], seq int64, payload T) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if seq < lk.expect {
		l.dupsDiscarded.Add(1)
		return
	}
	if seq > lk.expect {
		if _, holding := lk.held[seq]; holding {
			l.dupsDiscarded.Add(1)
			return
		}
		if lk.held == nil {
			lk.held = make(map[int64]T)
		}
		lk.held[seq] = payload
		l.held.Add(1)
		return
	}
	// In order: admit it, then drain any consecutive held successors.
	for {
		l.admit(lk, lk.expect, payload)
		lk.expect++
		next, ok := lk.held[lk.expect]
		if !ok {
			return
		}
		delete(lk.held, lk.expect)
		payload = next
	}
}

// admit delivers frame seq to the receiving host: WireTime billing,
// ledger append, the deliver callback, and — if a host-crash or
// cascade fault fires here — the crash callback followed by the
// full-ledger replay, then any tripped cascade victims. Holding
// hostState.mu across crash + replay makes them atomic with respect to
// admissions from the host's other links; victim crashes run after the
// primary's lock is released, one host lock at a time, so no two
// hostState locks are ever held together.
func (l *Layer[T]) admit(lk *link[T], seq int64, payload T) {
	l.wireTime.Add(l.frameCost(lk, seq))
	if l.partitionHit(lk, seq) {
		l.partitioned.Add(1)
	}
	h := &l.hosts[lk.to]
	h.mu.Lock()
	h.ledger = append(h.ledger, ledgerEntry[T]{from: lk.from, payload: payload})
	l.deliver(lk.to, lk.from, false, payload)
	var victims []int
	if wf := l.crashFaultAt(lk, seq); wf != nil {
		l.crashes.Add(1)
		l.crash(lk.to)
		for _, e := range h.ledger {
			l.replays.Add(1)
			l.deliver(lk.to, e.from, true, e.payload)
		}
		if wf.kind == faults.Cascade && len(h.ledger) >= wf.threshold {
			victims = wf.victims
		}
	}
	h.mu.Unlock()
	for _, v := range victims {
		l.cascades.Add(1)
		l.crashHost(v)
	}
}

// crashHost crashes host v as a cascade secondary: the crash callback
// followed by v's own full-ledger replay, under v's hostState lock.
func (l *Layer[T]) crashHost(v int) {
	h := &l.hosts[v]
	h.mu.Lock()
	l.crash(v)
	for _, e := range h.ledger {
		l.replays.Add(1)
		l.deliver(v, e.from, true, e.payload)
	}
	h.mu.Unlock()
}
