// Package faults defines seeded, fully deterministic fault plans for
// the agent runtimes, the discrete-event engine, and the netsim wire:
// agent crashes at a given step, stalls, move-latency spikes,
// whiteboard lock starvation, lost visibility wakeups, and — for the
// message-passing engine — per-link frame drops, duplications, delays
// and host crashes. A Plan is declarative data; an Injector compiles
// it into the hooks the engines consult on every move, broadcast, and
// (for the DES kernel) every dispatched event, while
// netsim/faultlink compiles the same plan's link faults into its wire
// hooks — one JSON grammar drives every engine.
//
// Determinism contract: triggers count deterministic quantities — a
// role's move sequence ("sync"), an order's edge sequence
// ("order:<key>"), an agent's own moves ("agent:<id>"), a directed
// link's logical frame sequence ("link:<u>-<v>") — so the same plan
// always fires at the same point of the computation regardless of OS
// scheduling. Crash faults are restricted to the "sync" and "order:"
// targets because only those have schedule-independent move
// sequences; host-crash faults are restricted to "link:" targets
// because a link's frame sequence is fixed by the sender's program
// order; delay-only faults (stall, spike, starve, lost wakeups) may
// use any target since they never change which moves happen, only
// when.
package faults

import (
	"fmt"
	mathbits "math/bits"
	"strconv"
	"strings"
	"sync"
)

// Kind labels a fault.
type Kind string

// The fault kinds of the robustness model.
const (
	Crash        Kind = "crash"         // target stops executing at its At-th move
	Stall        Kind = "stall"         // target pauses Delay units before its At-th move
	LatencySpike Kind = "latency-spike" // moves At..Until of the target each take +Delay units
	LockStarve   Kind = "lock-starve"   // target holds the engine lock Delay units during its At-th move
	LostWakeup   Kind = "lost-wakeup"   // broadcasts At..Until are dropped (watchdog must heal)
	KernelLag    Kind = "kernel-lag"    // DES kernel: events in virtual window [From,To) are deferred to To

	// Link-fault kinds, consumed by the netsim wire layer
	// (internal/netsim/faultlink); the move/broadcast/kernel hooks of
	// this package's Injector ignore them. All four trigger on the
	// target link's logical frame sequence numbers, never wall-clock.
	LinkDrop  Kind = "link-drop"  // frames At..Until each lose their first Times transmissions (ack/retransmit heals)
	LinkDup   Kind = "link-dup"   // frames At..Until are delivered twice (receiver dedup discards the copy)
	LinkDelay Kind = "link-delay" // frames At..Until take +Delay units in flight (reordering past successors)
	HostCrash Kind = "host-crash" // receiving host loses its soft state at delivery of frame At (ledger replay heals)

	// Correlated link-fault kinds. A partition cuts a declared *set*
	// of links atomically: on every member link, frames At..Until are
	// parked in the link's backlog and released — in per-link order —
	// only when the partition heals, Delay logical units later. A
	// cascade is a host crash whose recovery load spreads: it fires
	// like host-crash at frame At of its link, and if the crashed
	// host's ledger replay volume reaches Threshold entries, the named
	// neighbour hosts in Victims crash too.
	Partition Kind = "partition" // member-link frames At..Until are backlogged until the cut heals Delay units later
	Cascade   Kind = "cascade"   // host-crash at frame At; replay volume >= Threshold crashes every host in Victims
)

// Target sentinels. "agent:<id>" and "order:<key>" are parameterized.
const (
	TargetSync = "sync" // whichever agent currently holds the synchronizer role
	TargetAny  = "any"  // every move, counted globally
)

// MaxDelay bounds a single fault's delay so fuzzed plans cannot stall
// an engine for unbounded wall time.
const MaxDelay = 1 << 20

// MaxKernelLagEnd bounds a kernel-lag window's end. The DES defers
// every event in the window to its end and the run goes on from
// there, so an end near math.MaxInt64 would overflow the virtual
// clock at the next move; an end of at most 2^40 leaves the run
// nearly all of the clock's 2^63 range.
const MaxKernelLagEnd = 1 << 40

// MaxLinkRetransmits bounds the transmissions of one wire frame: a
// link-drop fault may swallow at most MaxLinkRetransmits-2 attempts,
// so every frame still delivers within the budget and the wire layer
// can treat budget exhaustion as a plan bug rather than a live state.
const MaxLinkRetransmits = 8

// MaxCascadeVictims bounds the secondary crashes one cascade fault may
// name; a host has at most MaxDim neighbours anyway.
const MaxCascadeVictims = 30

// MaxPartitionLinks bounds the directed links one declared-set
// partition target may cut, so fuzzed plans stay parseable in bounded
// work. (A cut:dim boundary is bounded by the topology instead.)
const MaxPartitionLinks = 256

// Fault is one injected adversity.
type Fault struct {
	Kind Kind `json:"kind"`
	// Target selects whose counter triggers the fault: "sync",
	// "any", "agent:<id>", "order:<key>", or — for the link kinds —
	// "link:<u>-<v>" (the directed link from host u to host v).
	// Ignored by lost-wakeup (global broadcast counter) and
	// kernel-lag (virtual time).
	Target string `json:"target,omitempty"`
	At     int    `json:"at,omitempty"`    // 1-based trigger count
	Until  int    `json:"until,omitempty"` // window end for spikes / lost wakeups / link windows (default At)
	Delay  int64  `json:"delay,omitempty"` // delay in engine units
	Times  int    `json:"times,omitempty"` // link-drop: transmissions lost per matching frame (default 1)
	From   int64  `json:"from,omitempty"`  // kernel-lag: virtual window start
	To     int64  `json:"to,omitempty"`    // kernel-lag: virtual window end

	// Threshold is the cascade trigger: secondary crashes fire only
	// when the primary crash's ledger replay redelivers at least this
	// many entries (recovery load crossing the bar).
	Threshold int `json:"threshold,omitempty"`
	// Victims names the neighbour hosts a tripped cascade crashes, in
	// order. Every victim must be a hypercube neighbour of the faulted
	// link's receiving host.
	Victims []int `json:"victims,omitempty"`
}

// IsLink reports whether the fault is consumed by the wire layer
// rather than the move/broadcast/kernel hooks.
func (f Fault) IsLink() bool {
	switch f.Kind {
	case LinkDrop, LinkDup, LinkDelay, HostCrash, Partition, Cascade:
		return true
	}
	return false
}

// CrashesHosts reports whether the fault can wipe a receiving host's
// soft state: engines whose protocols cannot rebuild from a ledger
// replay (the coordinated netsim protocol, whose program state rides
// the messages themselves) must reject plans carrying one.
func (f Fault) CrashesHosts() bool { return f.Kind == HostCrash || f.Kind == Cascade }

// Plan is a named, seeded fault campaign for one run.
type Plan struct {
	Name   string  `json:"name,omitempty"`
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Crashes returns the number of crash faults, which bounds the spare
// agents a recovering runtime must provision.
func (p *Plan) Crashes() int {
	n := 0
	for _, f := range p.Faults {
		if f.Kind == Crash {
			n++
		}
	}
	return n
}

// RequiresRecovery reports whether the plan kills agents, i.e. whether
// it can only run on the crash-tolerant runtime.
func (p *Plan) RequiresRecovery() bool { return p.Crashes() > 0 }

// LinkFaults returns the faults consumed by the netsim wire layer.
// Safe on a nil plan.
func (p *Plan) LinkFaults() []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for _, f := range p.Faults {
		if f.IsLink() {
			out = append(out, f)
		}
	}
	return out
}

// HasLinkFaults reports whether the plan carries any wire-level fault.
// Safe on a nil plan, so engines can gate on it directly.
func (p *Plan) HasLinkFaults() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.IsLink() {
			return true
		}
	}
	return false
}

// HasHostCrashFaults reports whether the plan carries a wire fault
// that wipes a receiving host's soft state (host-crash or cascade).
// Safe on a nil plan. Engines whose protocols cannot rebuild from the
// order-ledger replay must reject such plans.
func (p *Plan) HasHostCrashFaults() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.CrashesHosts() {
			return true
		}
	}
	return false
}

// Validate checks the plan's structural rules; an Injector may only be
// built from a valid plan.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("faults: nil plan")
	}
	if len(p.Faults) > 256 {
		return fmt.Errorf("faults: %d faults exceeds the 256-fault cap", len(p.Faults))
	}
	for i, f := range p.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("faults: fault %d: %w", i, err)
		}
	}
	return nil
}

func (f Fault) validate() error {
	if f.Delay < 0 || f.Delay > MaxDelay {
		return fmt.Errorf("delay %d outside [0,%d]", f.Delay, MaxDelay)
	}
	switch f.Kind {
	case Crash:
		if strings.HasPrefix(f.Target, "order:") {
			if err := validTarget(f.Target); err != nil {
				return err
			}
		} else if f.Target != TargetSync {
			return fmt.Errorf("crash target %q: only %q and \"order:<key>\" have deterministic move sequences", f.Target, TargetSync)
		}
		if f.At < 1 {
			return fmt.Errorf("crash needs at >= 1, got %d", f.At)
		}
	case Stall, LockStarve:
		if err := validTarget(f.Target); err != nil {
			return err
		}
		if f.At < 1 {
			return fmt.Errorf("%s needs at >= 1, got %d", f.Kind, f.At)
		}
		if f.Delay == 0 {
			return fmt.Errorf("%s needs a positive delay", f.Kind)
		}
	case LatencySpike:
		if err := validTarget(f.Target); err != nil {
			return err
		}
		if f.At < 1 || (f.Until != 0 && f.Until < f.At) {
			return fmt.Errorf("spike window [%d,%d] invalid", f.At, f.Until)
		}
		if f.Delay == 0 {
			return fmt.Errorf("latency-spike needs a positive delay")
		}
	case LostWakeup:
		if f.At < 1 || (f.Until != 0 && f.Until < f.At) {
			return fmt.Errorf("lost-wakeup window [%d,%d] invalid", f.At, f.Until)
		}
	case KernelLag:
		if f.From < 0 || f.To <= f.From {
			return fmt.Errorf("kernel-lag window [%d,%d) invalid", f.From, f.To)
		}
		if f.To > MaxKernelLagEnd {
			return fmt.Errorf("kernel-lag window end %d exceeds %d", f.To, MaxKernelLagEnd)
		}
	case LinkDrop, LinkDup, LinkDelay, HostCrash, Cascade:
		from, to, err := ParseLinkTarget(f.Target)
		if err != nil {
			return err
		}
		if f.At < 1 || (f.Until != 0 && f.Until < f.At) {
			return fmt.Errorf("%s window [%d,%d] invalid", f.Kind, f.At, f.Until)
		}
		switch f.Kind {
		case LinkDrop:
			if f.Times < 0 || f.Times > MaxLinkRetransmits-2 {
				return fmt.Errorf("link-drop times %d outside [0,%d]", f.Times, MaxLinkRetransmits-2)
			}
		case LinkDelay:
			if f.Delay < 1 {
				return fmt.Errorf("link-delay needs a positive delay")
			}
		case HostCrash:
			if f.Until != 0 && f.Until != f.At {
				return fmt.Errorf("host-crash is one-shot; until %d must equal at %d (or be omitted)", f.Until, f.At)
			}
		case Cascade:
			if f.Until != 0 && f.Until != f.At {
				return fmt.Errorf("cascade is one-shot; until %d must equal at %d (or be omitted)", f.Until, f.At)
			}
			if f.Threshold < 1 {
				return fmt.Errorf("cascade needs threshold >= 1, got %d", f.Threshold)
			}
			if len(f.Victims) == 0 {
				return fmt.Errorf("cascade needs at least one victim host")
			}
			if len(f.Victims) > MaxCascadeVictims {
				return fmt.Errorf("cascade names %d victims, cap is %d", len(f.Victims), MaxCascadeVictims)
			}
			seen := make(map[int]bool, len(f.Victims))
			for _, v := range f.Victims {
				if v < 0 {
					return fmt.Errorf("cascade victim %d is negative", v)
				}
				if seen[v] {
					return fmt.Errorf("cascade victim %d named twice", v)
				}
				seen[v] = true
				if mathbits.OnesCount32(uint32(v^to)) != 1 {
					return fmt.Errorf("cascade victim %d is not a hypercube neighbour of crashed host %d", v, to)
				}
				if v == from {
					// A neighbour, but crashing the sender of the frame
					// that tripped the cascade would wipe the host whose
					// program order defines the link's frame sequence.
					return fmt.Errorf("cascade victim %d is the faulted link's sender", v)
				}
			}
		}
	case Partition:
		if _, err := parsePartitionTarget(f.Target); err != nil {
			return err
		}
		if f.At < 1 || (f.Until != 0 && f.Until < f.At) {
			return fmt.Errorf("partition window [%d,%d] invalid", f.At, f.Until)
		}
		if f.Delay < 1 {
			return fmt.Errorf("partition needs a positive heal delay")
		}
	default:
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
	return nil
}

// ParseLinkTarget decodes a "link:<u>-<v>" target into the directed
// link's endpoints.
func ParseLinkTarget(t string) (from, to int, err error) {
	rest, ok := strings.CutPrefix(t, "link:")
	if !ok {
		return 0, 0, fmt.Errorf("link fault needs a \"link:<u>-<v>\" target, got %q", t)
	}
	a, b, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, 0, fmt.Errorf("bad link target %q", t)
	}
	from, err = strconv.Atoi(a)
	if err == nil {
		to, err = strconv.Atoi(b)
	}
	if err != nil || from < 0 || to < 0 || from == to {
		return 0, 0, fmt.Errorf("bad link target %q", t)
	}
	return from, to, nil
}

// LinkTarget renders the canonical target string for a directed link.
func LinkTarget(from, to int) string { return fmt.Sprintf("link:%d-%d", from, to) }

// partitionTarget is the parsed form of a partition fault's target:
// either an explicit directed-link set or a dimension whose matching
// (the subcube boundary) is resolved against the topology later.
type partitionTarget struct {
	dim   int      // 1-based cut dimension, 0 for a declared link set
	links [][2]int // declared directed links (dim == 0)
}

// parsePartitionTarget decodes "cut:dim=<k>" (the dimension-k matching
// of the hypercube, both directions) or "links:<u>-<v>,<u>-<v>,..."
// (an explicit directed-link set).
func parsePartitionTarget(t string) (partitionTarget, error) {
	if rest, ok := strings.CutPrefix(t, "cut:dim="); ok {
		k, err := strconv.Atoi(rest)
		if err != nil || k < 1 {
			return partitionTarget{}, fmt.Errorf("bad partition target %q: want cut:dim=<k> with k >= 1", t)
		}
		return partitionTarget{dim: k}, nil
	}
	rest, ok := strings.CutPrefix(t, "links:")
	if !ok {
		return partitionTarget{}, fmt.Errorf("partition needs a \"cut:dim=<k>\" or \"links:<u>-<v>,...\" target, got %q", t)
	}
	parts := strings.Split(rest, ",")
	if len(parts) > MaxPartitionLinks {
		return partitionTarget{}, fmt.Errorf("partition target cuts %d links, cap is %d", len(parts), MaxPartitionLinks)
	}
	pt := partitionTarget{links: make([][2]int, 0, len(parts))}
	seen := make(map[[2]int]bool, len(parts))
	for _, p := range parts {
		from, to, err := ParseLinkTarget("link:" + p)
		if err != nil {
			return partitionTarget{}, fmt.Errorf("partition target %q: bad link %q", t, p)
		}
		lk := [2]int{from, to}
		if seen[lk] {
			return partitionTarget{}, fmt.Errorf("partition target %q names link %s twice", t, p)
		}
		seen[lk] = true
		pt.links = append(pt.links, lk)
	}
	return pt, nil
}

// CutDimTarget renders the partition target severing the dimension-k
// matching (1-based, matching the repo's bit-position convention): the
// 2^(d-1) undirected links whose endpoints differ exactly in bit k,
// cut in both directions.
func CutDimTarget(k int) string { return fmt.Sprintf("cut:dim=%d", k) }

// LinksTarget renders the partition target cutting an explicit set of
// directed links.
func LinksTarget(links [][2]int) string {
	var sb strings.Builder
	sb.WriteString("links:")
	for i, lk := range links {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d-%d", lk[0], lk[1])
	}
	return sb.String()
}

// IslandLinks returns the directed links isolating host v from its d
// hypercube neighbours — both directions of every incident edge — for
// use with LinksTarget: the "islanded host" partition cut.
func IslandLinks(v, d int) [][2]int {
	links := make([][2]int, 0, 2*d)
	for i := 1; i <= d; i++ {
		w := v ^ (1 << (i - 1))
		links = append(links, [2]int{v, w}, [2]int{w, v})
	}
	return links
}

// PartitionLinks resolves a partition fault's target to the concrete
// directed links it cuts on H_d. A cut:dim=k target expands to both
// directions of the dimension-k matching; a links: target is returned
// as declared. Every endpoint must fit the topology.
func PartitionLinks(target string, d int) ([][2]int, error) {
	pt, err := parsePartitionTarget(target)
	if err != nil {
		return nil, err
	}
	n := 1 << d
	if pt.dim > 0 {
		if pt.dim > d {
			return nil, fmt.Errorf("partition target %q cuts dimension %d of a %d-dimensional cube", target, pt.dim, d)
		}
		bit := 1 << (pt.dim - 1)
		links := make([][2]int, 0, n)
		for u := 0; u < n; u++ {
			if u&bit == 0 {
				links = append(links, [2]int{u, u | bit}, [2]int{u | bit, u})
			}
		}
		return links, nil
	}
	for _, lk := range pt.links {
		if lk[0] >= n || lk[1] >= n {
			return nil, fmt.Errorf("partition target %q: link %d-%d outside the %d-node topology", target, lk[0], lk[1], n)
		}
	}
	return pt.links, nil
}

// ValidateForHosts checks the plan against a concrete topology size on
// top of Validate: every link-fault endpoint, partition member link
// and cascade victim must name a host below `hosts`. Engines consult
// it at config time — a fault naming host 99 on an 8-node cube would
// otherwise compile to a trigger that can never fire and silently
// weaken the campaign.
func (p *Plan) ValidateForHosts(hosts int) error {
	if p == nil {
		return nil // engines treat a nil plan as fault-free pass-through
	}
	if err := p.Validate(); err != nil {
		return err
	}
	d := mathbits.Len(uint(hosts)) - 1
	for i, f := range p.Faults {
		if !f.IsLink() {
			continue
		}
		if f.Kind == Partition {
			if _, err := PartitionLinks(f.Target, d); err != nil {
				return fmt.Errorf("faults: fault %d: %w", i, err)
			}
			continue
		}
		from, to, err := ParseLinkTarget(f.Target)
		if err != nil {
			return fmt.Errorf("faults: fault %d: %w", i, err)
		}
		if from >= hosts || to >= hosts {
			return fmt.Errorf("faults: fault %d: target %q names a host outside the %d-node topology — it could never fire", i, f.Target, hosts)
		}
		if mathbits.OnesCount32(uint32(from^to)) != 1 {
			return fmt.Errorf("faults: fault %d: target %q is not a hypercube edge", i, f.Target)
		}
		for _, v := range f.Victims {
			if v >= hosts {
				return fmt.Errorf("faults: fault %d: cascade victim %d outside the %d-node topology", i, v, hosts)
			}
		}
	}
	return nil
}

func validTarget(t string) error {
	switch {
	case t == TargetSync || t == TargetAny:
		return nil
	case strings.HasPrefix(t, "agent:"):
		if _, err := strconv.Atoi(t[len("agent:"):]); err != nil {
			return fmt.Errorf("bad agent target %q", t)
		}
		return nil
	case strings.HasPrefix(t, "order:"):
		if t == "order:" {
			return fmt.Errorf("empty order key in target")
		}
		return nil
	default:
		return fmt.Errorf("unknown target %q", t)
	}
}

// MoveCtx identifies one move attempt to the injector.
type MoveCtx struct {
	Agent    int    // agent id
	Sync     bool   // the agent currently holds the synchronizer role
	OrderKey string // ledger key of the order being executed, if any
}

// Action is the injector's verdict for one move.
type Action struct {
	Crash bool  // the agent dies before making this move
	Delay int64 // units to sleep before the move, outside all locks
	Hold  int64 // units to hold the engine lock while applying the move
}

// Injector is the compiled, concurrency-safe form of a Plan. One
// injector serves exactly one run: it owns the per-target counters.
type Injector struct {
	mu     sync.Mutex
	faults []Fault
	fired  []bool

	anyMoves   int
	syncMoves  int
	agentMoves map[int]int
	orderEdges map[string]int
	broadcasts int
	firedCount int
}

// NewInjector compiles a validated plan. It panics on an invalid plan
// so engines can assume injector queries never fail.
func NewInjector(p *Plan) *Injector {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		faults:     append([]Fault(nil), p.Faults...),
		fired:      make([]bool, len(p.Faults)),
		agentMoves: map[int]int{},
		orderEdges: map[string]int{},
	}
}

// Crashes returns the number of crash faults in the compiled plan.
func (in *Injector) Crashes() int {
	n := 0
	for _, f := range in.faults {
		if f.Kind == Crash {
			n++
		}
	}
	return n
}

// Fired returns how many one-shot faults have triggered so far.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.firedCount
}

// BeforeMove advances the move counters for ctx and returns the
// combined action of every fault that triggers on this move.
func (in *Injector) BeforeMove(ctx MoveCtx) Action {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.anyMoves++
	if ctx.Sync {
		in.syncMoves++
	}
	in.agentMoves[ctx.Agent]++
	if ctx.OrderKey != "" {
		in.orderEdges[ctx.OrderKey]++
	}
	var act Action
	for i, f := range in.faults {
		n, ok := in.count(f.Target, ctx)
		if !ok {
			continue
		}
		switch f.Kind {
		case Crash:
			if !in.fired[i] && n == f.At {
				in.fired[i] = true
				in.firedCount++
				act.Crash = true
			}
		case Stall:
			if !in.fired[i] && n == f.At {
				in.fired[i] = true
				in.firedCount++
				act.Delay += f.Delay
			}
		case LockStarve:
			if !in.fired[i] && n == f.At {
				in.fired[i] = true
				in.firedCount++
				act.Hold += f.Delay
			}
		case LatencySpike:
			if n >= f.At && n <= f.window() {
				act.Delay += f.Delay
			}
		}
	}
	return act
}

// count resolves the trigger counter for a target in this context,
// reporting false when the fault does not apply to the move at all.
func (in *Injector) count(target string, ctx MoveCtx) (int, bool) {
	switch {
	case target == TargetAny || target == "":
		return in.anyMoves, true
	case target == TargetSync:
		if !ctx.Sync {
			return 0, false
		}
		return in.syncMoves, true
	case strings.HasPrefix(target, "agent:"):
		id, _ := strconv.Atoi(target[len("agent:"):])
		if ctx.Agent != id {
			return 0, false
		}
		return in.agentMoves[id], true
	case strings.HasPrefix(target, "order:"):
		key := target[len("order:"):]
		if ctx.OrderKey != key {
			return 0, false
		}
		return in.orderEdges[key], true
	default:
		return 0, false
	}
}

func (f Fault) window() int {
	if f.Until == 0 {
		return f.At
	}
	return f.Until
}

// DropWakeup advances the global broadcast counter and reports whether
// this broadcast should be swallowed. Engines that honour it must run
// a periodic re-broadcast (the watchdog) to stay live.
func (in *Injector) DropWakeup() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.broadcasts++
	for _, f := range in.faults {
		if f.Kind == LostWakeup && in.broadcasts >= f.At && in.broadcasts <= f.window() {
			return true
		}
	}
	return false
}

// KernelInterceptor returns a DES event interceptor deferring every
// event whose virtual time falls in a kernel-lag window to that
// window's end, or nil when the plan has no kernel-lag faults. A
// deferred event lands exactly at To, outside the half-open window, so
// it is never deferred twice by the same fault.
func (in *Injector) KernelInterceptor() func(at, seq int64) int64 {
	has := false
	for _, f := range in.faults {
		if f.Kind == KernelLag {
			has = true
			break
		}
	}
	if !has {
		return nil
	}
	return func(at, _ int64) int64 {
		var defer_ int64
		for _, f := range in.faults {
			if f.Kind == KernelLag && at >= f.From && at < f.To {
				if d := f.To - at; d > defer_ {
					defer_ = d
				}
			}
		}
		return defer_
	}
}
