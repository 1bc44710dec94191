// Package trace records search executions as structured event logs
// that can be exported as JSON, replayed against a fresh board for
// verification, and rendered by the figure package.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"hypersearch/internal/board"
	"hypersearch/internal/graph"
)

// Kind labels an event.
type Kind string

// Event kinds. Place and Clone create agents; Move traverses one edge;
// Terminate retires an agent in place.
const (
	Place     Kind = "place"
	Move      Kind = "move"
	Clone     Kind = "clone"
	Terminate Kind = "terminate"
)

// Event is one recorded action.
type Event struct {
	Seq   int    `json:"seq"`
	Time  int64  `json:"time"`
	Kind  Kind   `json:"kind"`
	Agent int    `json:"agent"`
	From  int    `json:"from"` // Move: source; Clone: parent agent id
	To    int    `json:"to"`   // Move/Clone: node; Place: homebase
	Role  string `json:"role,omitempty"`
}

// Sink receives trace events as a run emits them. Log is the
// in-memory Sink; Stream writes events through without retaining
// them, which is what megannode runs use — their full logs would not
// fit in memory. Sinks are called from the single-threaded DES
// kernel, so implementations need no locking.
type Sink interface {
	Append(Event)
}

// Log is an append-only event log. The zero value is ready to use.
type Log struct {
	events []Event
}

// Append adds an event, assigning its sequence number.
func (l *Log) Append(e Event) {
	e.Seq = len(l.events)
	l.events = append(l.events, e)
}

// Reset empties the log, keeping the backing array for reuse by pooled
// environments.
func (l *Log) Reset() { l.events = l.events[:0] }

// Cap returns the capacity of the backing event array. Reset keeps
// it, and environments stash retired logs across Record flips, so a
// warmed log never regrows for same-size runs.
func (l *Log) Cap() int { return cap(l.events) }

// Events returns the recorded events; callers must not modify them.
func (l *Log) Events() []Event { return l.events }

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Moves returns the number of Move events, optionally filtered by role
// (empty role matches every move).
func (l *Log) Moves(role string) int64 {
	var n int64
	for _, e := range l.events {
		if e.Kind == Move && (role == "" || e.Role == role) {
			n++
		}
	}
	return n
}

// Makespan returns the largest event time, or 0 for an empty log.
func (l *Log) Makespan() int64 {
	var best int64
	for _, e := range l.events {
		if e.Time > best {
			best = e.Time
		}
	}
	return best
}

// WriteJSON streams the log as a JSON array.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(l.events)
}

// ReadJSON parses a log previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Log, error) {
	var events []Event
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, fmt.Errorf("trace: decoding log: %w", err)
	}
	return &Log{events: events}, nil
}

// Stream is the memory-bounded Sink: each event is encoded as one
// JSON line (JSONL) and written through immediately, so a megannode
// run's trace costs O(1) memory no matter how many moves it makes.
// Sequence numbers are assigned in arrival order, exactly as Log
// would. The first write error is latched and reported by Err;
// subsequent events are dropped rather than panicking mid-simulation.
type Stream struct {
	enc *json.Encoder
	seq int
	err error
}

// NewStream returns a Stream writing JSONL events to w. The caller
// owns w's lifecycle (buffering, flushing, closing).
func NewStream(w io.Writer) *Stream { return &Stream{enc: json.NewEncoder(w)} }

// Append implements Sink.
func (s *Stream) Append(e Event) {
	if s.err != nil {
		return
	}
	e.Seq = s.seq
	s.seq++
	s.err = s.enc.Encode(e)
}

// Len returns the number of events streamed so far.
func (s *Stream) Len() int { return s.seq }

// Err returns the first write error, or nil. Check it after the run;
// events following the error were dropped.
func (s *Stream) Err() error { return s.err }

// ReadJSONL parses a stream previously written by Stream back into an
// in-memory Log (for replay or figure rendering of runs small enough
// to load).
func ReadJSONL(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	var events []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding JSONL stream: %w", err)
		}
		events = append(events, e)
	}
	return &Log{events: events}, nil
}

// Replay applies the log to a fresh board over g with the given
// homebase and returns the final board. Events must appear in
// non-decreasing time order, as recorders emit them. A trace that
// breaks a board rule the live run would have hit is rejected with an
// error, which makes replay a strong consistency check for recorded
// runs; see ReplayOn.
func (l *Log) Replay(g graph.Graph, home int) (*board.Board, error) {
	b := board.New(g, home)
	if err := l.ReplayOn(b, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// ReplayOn applies the log's events to b in order, calling after(i),
// when after is non-nil, once event i is on the board. Recorded agent
// ids map to the ids b assigns. An id placed or cloned twice, a move
// or termination of an id never placed, an unknown event kind and a
// board rule violation (a move along a non-edge, time running
// backwards, an action of a terminated agent, a clone on an unguarded
// node, a node out of range) stop the replay with an error naming the
// event, as does an error from after. After an error b may hold a
// half-applied event and should be discarded.
func (l *Log) ReplayOn(b *board.Board, after func(i int) error) (err error) {
	ids := map[int]int{} // recorded agent id -> board agent id
	var e Event
	// The board panics on rule violations. While onBoard is set, a
	// panic is the board rejecting e and becomes the error; a panic
	// from after propagates.
	onBoard := false
	defer func() {
		if onBoard {
			err = fmt.Errorf("trace: %s of agent %d breaks a board rule (event %d): %v", e.Kind, e.Agent, e.Seq, recover())
		}
	}()
	for i := range l.events {
		e = l.events[i]
		id, known := ids[e.Agent]
		switch e.Kind {
		case Place, Clone:
			if known {
				return fmt.Errorf("trace: %s reuses agent id %d (event %d)", e.Kind, e.Agent, e.Seq)
			}
		case Move, Terminate:
			if !known {
				return fmt.Errorf("trace: %s of unknown agent %d (event %d)", e.Kind, e.Agent, e.Seq)
			}
		default:
			return fmt.Errorf("trace: unknown event kind %q (event %d)", e.Kind, e.Seq)
		}
		onBoard = true
		switch e.Kind {
		case Place:
			ids[e.Agent] = b.Place(e.Time)
		case Clone:
			ids[e.Agent] = b.Clone(e.To, e.Time)
		case Move:
			b.Move(id, e.To, e.Time)
		case Terminate:
			b.Terminate(id, e.Time)
		}
		onBoard = false
		if after != nil {
			if err := after(i); err != nil {
				return err
			}
		}
	}
	return nil
}
