package invariant

import (
	"strings"
	"testing"

	"hypersearch/internal/hypercube"
	"hypersearch/internal/strategy"
	"hypersearch/internal/strategy/coordinated"
	"hypersearch/internal/strategy/visibility"
	"hypersearch/internal/trace"
)

// Real traces from the reference strategies must check clean.
func TestCheckAcceptsRealTraces(t *testing.T) {
	for d := 1; d <= 5; d++ {
		for name, run := range map[string]func(int, strategy.Options) (interface{}, *strategy.Env){
			"clean": func(d int, o strategy.Options) (interface{}, *strategy.Env) {
				r, e := coordinated.Run(d, o)
				return r, e
			},
			"visibility": func(d int, o strategy.Options) (interface{}, *strategy.Env) {
				r, e := visibility.Run(d, o)
				return r, e
			},
		} {
			_, env := run(d, strategy.Options{Record: true})
			rep, err := Check(env.Log(), hypercube.New(d), 0)
			if err != nil {
				t.Fatalf("%s d=%d: %v", name, d, err)
			}
			if !rep.Ok() {
				t.Fatalf("%s d=%d: %s %v", name, d, rep, rep.Violations)
			}
			if rep.Moves == 0 || rep.Events == 0 {
				t.Fatalf("%s d=%d: empty report %s", name, d, rep)
			}
		}
	}
}

// An agent abandoning a frontier post must be flagged as a
// monotonicity violation once the flooding reaches a stably-clean
// node. On H_3: two agents guard 3 and 5 so node 1 settles stably
// clean between them; agent 0 then walks off node 5 while node 7 is
// still contaminated, flooding 5 and, transitively, the stably-clean
// node 1.
func TestCheckFlagsRecontamination(t *testing.T) {
	l := &trace.Log{}
	for a := 0; a < 3; a++ {
		l.Append(trace.Event{Time: 0, Kind: trace.Place, Agent: a, To: 0})
	}
	for a := 0; a < 3; a++ {
		l.Append(trace.Event{Time: int64(a) + 1, Kind: trace.Move, Agent: a, From: 0, To: 1})
	}
	l.Append(trace.Event{Time: 4, Kind: trace.Move, Agent: 0, From: 1, To: 5})
	l.Append(trace.Event{Time: 5, Kind: trace.Move, Agent: 1, From: 1, To: 3})
	// Node 1's neighbours are now all clean or guarded, so when agent 2
	// falls back to the root, node 1 settles stably clean.
	l.Append(trace.Event{Time: 6, Kind: trace.Move, Agent: 2, From: 1, To: 0})
	// Agent 0 abandons node 5 with node 7 still contaminated.
	l.Append(trace.Event{Time: 7, Kind: trace.Move, Agent: 0, From: 5, To: 4})
	rep, err := Check(l, hypercube.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MonotoneOK {
		t.Fatal("flooding of a stably-clean node not flagged")
	}
	if rep.Captured {
		t.Fatal("incomplete search reported as captured")
	}
	if len(rep.Violations) == 0 || !strings.Contains(rep.Violations[0], "recontaminated") {
		t.Fatalf("violations = %v", rep.Violations)
	}
}

// Structural trace damage must surface as errors, not panics.
func TestCheckRejectsDamagedTraces(t *testing.T) {
	unknown := &trace.Log{}
	unknown.Append(trace.Event{Time: 0, Kind: trace.Move, Agent: 9, From: 0, To: 1})
	if _, err := Check(unknown, hypercube.New(2), 0); err == nil {
		t.Error("move of unplaced agent accepted")
	}

	nonEdge := &trace.Log{}
	nonEdge.Append(trace.Event{Time: 0, Kind: trace.Place, Agent: 0, To: 0})
	nonEdge.Append(trace.Event{Time: 1, Kind: trace.Move, Agent: 0, From: 0, To: 3})
	if _, err := Check(nonEdge, hypercube.New(2), 0); err == nil {
		t.Error("non-edge move accepted")
	}

	reuse := &trace.Log{}
	reuse.Append(trace.Event{Time: 0, Kind: trace.Place, Agent: 0, To: 0})
	reuse.Append(trace.Event{Time: 1, Kind: trace.Place, Agent: 0, To: 0})
	if _, err := Check(reuse, hypercube.New(2), 0); err == nil {
		t.Error("agent id reuse accepted")
	}

	badKind := &trace.Log{}
	badKind.Append(trace.Event{Time: 0, Kind: "teleport", Agent: 0, To: 0})
	if _, err := Check(badKind, hypercube.New(2), 0); err == nil {
		t.Error("unknown event kind accepted")
	}
}

// The d=0 degenerate search: place and terminate, nothing to clean.
func TestCheckTrivial(t *testing.T) {
	l := &trace.Log{}
	l.Append(trace.Event{Time: 0, Kind: trace.Place, Agent: 0, To: 0})
	l.Append(trace.Event{Time: 1, Kind: trace.Terminate, Agent: 0, From: 0, To: 0})
	rep, err := Check(l, hypercube.New(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("trivial trace rejected: %s", rep)
	}
}
