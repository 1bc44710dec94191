// Package invariant replays recorded traces against a fresh board and
// asserts, event by event, that the defining invariants of contiguous
// monotone search still hold: no stably-clean node is ever
// recontaminated (monotonicity) and the decontaminated region stays
// connected (contiguity). The fault-injection campaign runs it over
// every trace so that recovery machinery cannot quietly trade
// correctness for liveness.
package invariant

import (
	"fmt"

	"hypersearch/internal/board"
	"hypersearch/internal/graph"
	"hypersearch/internal/trace"
)

// maxViolations bounds how many violation messages a report keeps.
const maxViolations = 8

// Report is the outcome of checking one trace.
type Report struct {
	Events       int   // events replayed
	Moves        int64 // move events among them
	CheckedEvery int   // contiguity verified every that many events

	MonotoneOK   bool // no stably-clean node was recontaminated
	ContiguousOK bool // decontaminated set stayed connected at every check
	Captured     bool // final board has no contaminated node

	Violations []string // first few violations, for diagnostics
}

// Ok reports whether every invariant held through the whole trace.
func (r Report) Ok() bool { return r.MonotoneOK && r.ContiguousOK && r.Captured }

// String renders a one-line verdict.
func (r Report) String() string {
	return fmt.Sprintf("events=%d moves=%d monotone=%v contiguous=%v captured=%v",
		r.Events, r.Moves, r.MonotoneOK, r.ContiguousOK, r.Captured)
}

// Check replays l on a fresh board over g with the given homebase,
// verifying monotonicity after every event and contiguity every
// CheckedEvery events (1 for small graphs, 32 beyond 1024 nodes, plus
// always after the final event). The replay runs through
// trace.Log.ReplayOn, so structural errors in the trace — unknown
// agents, non-edges, time running backwards — are returned as errors
// rather than panics, and the checker is safe on traces of arbitrary
// provenance.
func Check(l *trace.Log, g graph.Graph, home int) (Report, error) {
	every := 1
	if g.Order() > 1024 {
		every = 32
	}
	rep := Report{MonotoneOK: true, ContiguousOK: true, CheckedEvery: every}
	b := board.New(g, home)
	events := l.Events()
	var seenViolations int64
	err := l.ReplayOn(b, func(i int) error {
		e := events[i]
		if e.Kind == trace.Move {
			rep.Moves++
		}
		if v := b.MonotoneViolations(); v > seenViolations {
			seenViolations = v
			rep.MonotoneOK = false
			rep.addViolation(fmt.Sprintf("event %d (%s agent %d -> %d): stably-clean node recontaminated", e.Seq, e.Kind, e.Agent, e.To))
		}
		if (i%every == 0 || i == len(events)-1) && !b.Contiguous() {
			if rep.ContiguousOK {
				rep.addViolation(fmt.Sprintf("event %d: decontaminated region disconnected", e.Seq))
			}
			rep.ContiguousOK = false
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("invariant: %w", err)
	}
	rep.Events = len(events)
	rep.Captured = b.AllClean()
	return rep, nil
}

func (r *Report) addViolation(msg string) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, msg)
	}
}
