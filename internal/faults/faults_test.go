package faults

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
	}{
		{"crash on any", Fault{Kind: Crash, Target: TargetAny, At: 1}},
		{"crash on agent", Fault{Kind: Crash, Target: "agent:3", At: 1}},
		{"crash without at", Fault{Kind: Crash, Target: TargetSync}},
		{"stall without delay", Fault{Kind: Stall, Target: TargetAny, At: 1}},
		{"stall without at", Fault{Kind: Stall, Target: TargetAny, Delay: 5}},
		{"starve bad target", Fault{Kind: LockStarve, Target: "nonsense", At: 1, Delay: 5}},
		{"spike inverted window", Fault{Kind: LatencySpike, Target: TargetAny, At: 9, Until: 3, Delay: 5}},
		{"spike without delay", Fault{Kind: LatencySpike, Target: TargetAny, At: 1}},
		{"lost-wakeup inverted window", Fault{Kind: LostWakeup, At: 9, Until: 3}},
		{"kernel-lag empty window", Fault{Kind: KernelLag, From: 5, To: 5}},
		{"kernel-lag negative start", Fault{Kind: KernelLag, From: -1, To: 5}},
		{"kernel-lag end overflowing the clock", Fault{Kind: KernelLag, From: 0, To: math.MaxInt64}},
		{"kernel-lag end past the bound", Fault{Kind: KernelLag, From: 0, To: MaxKernelLagEnd + 1}},
		{"unknown kind", Fault{Kind: "meteor", Target: TargetAny, At: 1}},
		{"negative delay", Fault{Kind: Stall, Target: TargetAny, At: 1, Delay: -1}},
		{"oversized delay", Fault{Kind: Stall, Target: TargetAny, At: 1, Delay: MaxDelay + 1}},
		{"empty order key", Fault{Kind: Crash, Target: "order:", At: 1}},
		{"bad agent id", Fault{Kind: Stall, Target: "agent:xyz", At: 1, Delay: 5}},
		{"link-drop non-link target", Fault{Kind: LinkDrop, Target: TargetAny, At: 1}},
		{"link-drop self loop", Fault{Kind: LinkDrop, Target: "link:2-2", At: 1}},
		{"link-drop negative host", Fault{Kind: LinkDrop, Target: "link:-1-2", At: 1}},
		{"link-drop without at", Fault{Kind: LinkDrop, Target: "link:0-1"}},
		{"link-drop inverted window", Fault{Kind: LinkDrop, Target: "link:0-1", At: 5, Until: 2}},
		{"link-drop over retransmit budget", Fault{Kind: LinkDrop, Target: "link:0-1", At: 1, Times: MaxLinkRetransmits - 1}},
		{"link-drop negative times", Fault{Kind: LinkDrop, Target: "link:0-1", At: 1, Times: -1}},
		{"link-delay without delay", Fault{Kind: LinkDelay, Target: "link:0-1", At: 1}},
		{"link-dup malformed target", Fault{Kind: LinkDup, Target: "link:01", At: 1}},
		{"host-crash window", Fault{Kind: HostCrash, Target: "link:0-1", At: 2, Until: 5}},
		{"host-crash sync target", Fault{Kind: HostCrash, Target: TargetSync, At: 1}},
		{"partition link target", Fault{Kind: Partition, Target: "link:0-1", At: 1, Delay: 10}},
		{"partition without delay", Fault{Kind: Partition, Target: "links:0-1,1-0", At: 1}},
		{"partition without at", Fault{Kind: Partition, Target: "links:0-1", Delay: 10}},
		{"partition inverted window", Fault{Kind: Partition, Target: "links:0-1", At: 5, Until: 2, Delay: 10}},
		{"partition zero dim", Fault{Kind: Partition, Target: "cut:dim=0", At: 1, Delay: 10}},
		{"partition bad dim", Fault{Kind: Partition, Target: "cut:dim=x", At: 1, Delay: 10}},
		{"partition bad link", Fault{Kind: Partition, Target: "links:0-1,2-2", At: 1, Delay: 10}},
		{"partition duplicate link", Fault{Kind: Partition, Target: "links:0-1,0-1", At: 1, Delay: 10}},
		{"cascade without threshold", Fault{Kind: Cascade, Target: "link:0-1", At: 2, Victims: []int{3}}},
		{"cascade without victims", Fault{Kind: Cascade, Target: "link:0-1", At: 2, Threshold: 2}},
		{"cascade window", Fault{Kind: Cascade, Target: "link:0-1", At: 2, Until: 5, Threshold: 2, Victims: []int{3}}},
		{"cascade non-neighbour victim", Fault{Kind: Cascade, Target: "link:0-1", At: 2, Threshold: 2, Victims: []int{6}}},
		{"cascade sender victim", Fault{Kind: Cascade, Target: "link:0-1", At: 2, Threshold: 2, Victims: []int{0}}},
		{"cascade duplicate victim", Fault{Kind: Cascade, Target: "link:0-1", At: 2, Threshold: 2, Victims: []int{3, 3}}},
		{"cascade negative victim", Fault{Kind: Cascade, Target: "link:0-1", At: 2, Threshold: 2, Victims: []int{-1}}},
	}
	for _, c := range cases {
		p := &Plan{Seed: 1, Faults: []Fault{c.fault}}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	big := &Plan{Seed: 1, Faults: make([]Fault, 257)}
	for i := range big.Faults {
		big.Faults[i] = Fault{Kind: LostWakeup, At: 1}
	}
	if err := big.Validate(); err == nil {
		t.Error("257-fault plan validated")
	}
	if err := (*Plan)(nil).Validate(); err == nil {
		t.Error("nil plan validated")
	}
}

func TestLinkFaultGrammar(t *testing.T) {
	plan := &Plan{Seed: 3, Faults: []Fault{
		{Kind: LinkDrop, Target: "link:0-5", At: 1, Until: 8, Times: 2},
		{Kind: LinkDup, Target: "link:5-0", At: 2},
		{Kind: LinkDelay, Target: "link:1-3", At: 1, Delay: 400},
		{Kind: HostCrash, Target: "link:0-5", At: 3},
		{Kind: Stall, Target: TargetAny, At: 1, Delay: 5},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatalf("valid link plan rejected: %v", err)
	}
	if !plan.HasLinkFaults() {
		t.Error("HasLinkFaults false on a plan with four link faults")
	}
	if got := len(plan.LinkFaults()); got != 4 {
		t.Errorf("LinkFaults returned %d faults, want 4", got)
	}
	if (*Plan)(nil).HasLinkFaults() {
		t.Error("nil plan reports link faults")
	}
	if (*Plan)(nil).LinkFaults() != nil {
		t.Error("nil plan returns link faults")
	}

	from, to, err := ParseLinkTarget(LinkTarget(12, 7))
	if err != nil || from != 12 || to != 7 {
		t.Errorf("ParseLinkTarget(LinkTarget(12,7)) = %d,%d,%v", from, to, err)
	}
	for _, bad := range []string{"", "link:", "link:3", "link:a-b", "link:1-1", "sync"} {
		if _, _, err := ParseLinkTarget(bad); err == nil {
			t.Errorf("ParseLinkTarget(%q) accepted", bad)
		}
	}

	// The move-hook injector must treat link faults as inert: they
	// belong to the wire layer, not the move counters.
	in := NewInjector(plan)
	for i := 0; i < 16; i++ {
		act := in.BeforeMove(MoveCtx{Agent: i, Sync: true})
		if act.Crash {
			t.Fatal("link fault crashed a move-hook agent")
		}
	}
	if plan.RequiresRecovery() {
		t.Error("link faults must not force the crash-tolerant runtime")
	}
}

func TestPartitionTargetGrammar(t *testing.T) {
	// cut:dim=k expands to both directions of the dimension-k matching.
	links, err := PartitionLinks(CutDimTarget(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 8 {
		t.Fatalf("cut:dim=2 on H_3 cut %d directed links, want 8", len(links))
	}
	for _, lk := range links {
		if lk[0]^lk[1] != 2 {
			t.Errorf("cut:dim=2 cut link %d-%d, not a dimension-2 edge", lk[0], lk[1])
		}
	}
	if _, err := PartitionLinks(CutDimTarget(4), 3); err == nil {
		t.Error("cut:dim=4 accepted on H_3")
	}

	// A declared set round-trips through LinksTarget.
	declared := [][2]int{{0, 1}, {1, 0}, {0, 2}}
	got, err := PartitionLinks(LinksTarget(declared), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, declared) {
		t.Errorf("LinksTarget round trip: got %v want %v", got, declared)
	}
	if _, err := PartitionLinks("links:0-9", 3); err == nil {
		t.Error("links:0-9 accepted on the 8-node cube")
	}

	// IslandLinks isolates a host in both directions.
	island := IslandLinks(0, 3)
	if len(island) != 6 {
		t.Fatalf("IslandLinks(0,3) returned %d links, want 6", len(island))
	}
	plan := &Plan{Seed: 1, Faults: []Fault{
		{Kind: Partition, Target: LinksTarget(island), At: 1, Until: 4, Delay: 100},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatalf("island partition plan rejected: %v", err)
	}
	if !plan.HasLinkFaults() {
		t.Error("partition plan reports no link faults")
	}
	if plan.HasHostCrashFaults() {
		t.Error("partition plan reports host-crash faults")
	}
}

func TestCascadeGrammar(t *testing.T) {
	plan := &Plan{Seed: 1, Faults: []Fault{
		{Kind: Cascade, Target: "link:0-1", At: 2, Threshold: 2, Victims: []int{3, 5}},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatalf("valid cascade plan rejected: %v", err)
	}
	if !plan.HasHostCrashFaults() {
		t.Error("cascade plan reports no host-crash faults")
	}
	if plan.RequiresRecovery() {
		t.Error("cascade faults must not force the crash-tolerant runtime")
	}
}

// TestValidateForHosts is the regression test for the silent-dead-fault
// bug: link targets naming hosts outside the configured topology used
// to compile into triggers that could never fire. They must now be
// rejected at engine-config time.
func TestValidateForHosts(t *testing.T) {
	good := &Plan{Seed: 1, Faults: []Fault{
		{Kind: LinkDrop, Target: "link:0-4", At: 1, Times: 2},
		{Kind: Partition, Target: CutDimTarget(3), At: 1, Delay: 50},
		{Kind: Cascade, Target: "link:0-1", At: 2, Threshold: 1, Victims: []int{3, 5}},
	}}
	if err := good.ValidateForHosts(8); err != nil {
		t.Fatalf("valid plan rejected for 8 hosts: %v", err)
	}

	cases := []struct {
		name  string
		fault Fault
	}{
		{"link host beyond order", Fault{Kind: LinkDrop, Target: "link:99-98", At: 1}},
		{"link to beyond order", Fault{Kind: LinkDup, Target: "link:0-8", At: 1}},
		{"non-edge link", Fault{Kind: LinkDrop, Target: "link:1-2", At: 1}},
		{"partition dim beyond cube", Fault{Kind: Partition, Target: "cut:dim=4", At: 1, Delay: 10}},
		{"partition link beyond order", Fault{Kind: Partition, Target: "links:0-8", At: 1, Delay: 10}},
		{"cascade victim beyond order", Fault{Kind: Cascade, Target: "link:0-1", At: 1, Threshold: 1, Victims: []int{9}}},
	}
	for _, c := range cases {
		p := &Plan{Seed: 1, Faults: []Fault{c.fault}}
		if err := p.ValidateForHosts(8); err == nil {
			t.Errorf("%s: accepted for 8 hosts", c.name)
		}
	}

	// Sanity: the same out-of-range plans pass the d-independent
	// Validate — the rejection is an engine-config concern.
	oob := &Plan{Seed: 1, Faults: []Fault{{Kind: LinkDrop, Target: "link:99-98", At: 1}}}
	if err := oob.Validate(); err != nil {
		t.Fatalf("d-independent Validate rejected an in-grammar plan: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	p := &Plan{Name: "mixed", Seed: 42, Faults: []Fault{
		{Kind: Crash, Target: "order:p0.e1", At: 1},
		{Kind: Crash, Target: TargetSync, At: 7},
		{Kind: Stall, Target: "agent:2", At: 3, Delay: 50},
		{Kind: LatencySpike, Target: TargetAny, At: 5, Until: 25, Delay: 10},
		{Kind: LostWakeup, At: 2, Until: 9},
		{Kind: KernelLag, From: 100, To: 250},
		{Kind: Partition, Target: "cut:dim=2", At: 1, Until: 6, Delay: 75},
		{Kind: Cascade, Target: "link:0-1", At: 2, Threshold: 2, Victims: []int{3, 5}},
	}}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, got)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"seed":1,"faults":[],"bogus":true}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseRejectsInvalidPlan(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"seed":1,"faults":[{"kind":"crash","target":"any","at":1}]}`))
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestInjectorCrashOneShot(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Faults: []Fault{
		{Kind: Crash, Target: "order:k", At: 2},
	}})
	ctx := MoveCtx{Agent: 0, OrderKey: "k"}
	if in.BeforeMove(ctx).Crash {
		t.Fatal("crashed on edge 1, wanted edge 2")
	}
	if !in.BeforeMove(ctx).Crash {
		t.Fatal("no crash on edge 2")
	}
	if in.BeforeMove(ctx).Crash {
		t.Fatal("crash fired twice")
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
	if in.Crashes() != 1 {
		t.Fatalf("Crashes() = %d, want 1", in.Crashes())
	}
}

func TestInjectorTargetIsolation(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Faults: []Fault{
		{Kind: Crash, Target: TargetSync, At: 2},
	}})
	// Non-sync moves must never advance the sync counter.
	for i := 0; i < 10; i++ {
		if in.BeforeMove(MoveCtx{Agent: i}).Crash {
			t.Fatal("sync crash fired on a worker move")
		}
	}
	if in.BeforeMove(MoveCtx{Agent: 0, Sync: true}).Crash {
		t.Fatal("fired on sync move 1")
	}
	if !in.BeforeMove(MoveCtx{Agent: 3, Sync: true}).Crash {
		t.Fatal("did not fire on sync move 2 (counter must follow the role, not the agent)")
	}
}

func TestInjectorSpikeWindow(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Faults: []Fault{
		{Kind: LatencySpike, Target: TargetAny, At: 2, Until: 3, Delay: 7},
	}})
	want := []int64{0, 7, 7, 0}
	for i, d := range want {
		if got := in.BeforeMove(MoveCtx{}).Delay; got != d {
			t.Fatalf("move %d: delay %d, want %d", i+1, got, d)
		}
	}
}

func TestInjectorStallAndStarveCombine(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Faults: []Fault{
		{Kind: Stall, Target: TargetAny, At: 1, Delay: 11},
		{Kind: LockStarve, Target: TargetAny, At: 1, Delay: 5},
	}})
	act := in.BeforeMove(MoveCtx{})
	if act.Delay != 11 || act.Hold != 5 {
		t.Fatalf("act = %+v, want Delay 11 Hold 5", act)
	}
}

func TestDropWakeupWindow(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Faults: []Fault{
		{Kind: LostWakeup, At: 2, Until: 3},
	}})
	want := []bool{false, true, true, false}
	for i, drop := range want {
		if got := in.DropWakeup(); got != drop {
			t.Fatalf("broadcast %d: drop=%v, want %v", i+1, got, drop)
		}
	}
}

func TestKernelInterceptor(t *testing.T) {
	none := NewInjector(&Plan{Seed: 1, Faults: []Fault{{Kind: LostWakeup, At: 1}}})
	if none.KernelInterceptor() != nil {
		t.Fatal("interceptor without kernel-lag faults")
	}
	in := NewInjector(&Plan{Seed: 1, Faults: []Fault{
		{Kind: KernelLag, From: 10, To: 20},
	}})
	ic := in.KernelInterceptor()
	cases := []struct{ at, defer_ int64 }{
		{9, 0}, {10, 10}, {15, 5}, {19, 1}, {20, 0}, {25, 0},
	}
	for _, c := range cases {
		if got := ic(c.at, 0); got != c.defer_ {
			t.Fatalf("at=%d: defer %d, want %d", c.at, got, c.defer_)
		}
	}
}
