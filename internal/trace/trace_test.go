package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hypersearch/internal/board"
	"hypersearch/internal/graph"
)

func pathGraph(n int) graph.Graph {
	g := graph.NewAdjacency(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// record builds a simple sweep log: place agent 0, walk 0->1->2->3,
// terminate.
func sweepLog() *Log {
	l := &Log{}
	l.Append(Event{Time: 0, Kind: Place, Agent: 0, To: 0, Role: "cleaner"})
	for v := 1; v <= 3; v++ {
		l.Append(Event{Time: int64(v), Kind: Move, Agent: 0, From: v - 1, To: v, Role: "cleaner"})
	}
	l.Append(Event{Time: 4, Kind: Terminate, Agent: 0})
	return l
}

func TestAppendAssignsSeq(t *testing.T) {
	l := sweepLog()
	for i, e := range l.Events() {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	if l.Len() != 5 {
		t.Errorf("len = %d", l.Len())
	}
}

func TestMovesAndMakespan(t *testing.T) {
	l := sweepLog()
	if l.Moves("") != 3 || l.Moves("cleaner") != 3 || l.Moves("sync") != 0 {
		t.Error("move counting wrong")
	}
	if l.Makespan() != 4 {
		t.Errorf("makespan = %d", l.Makespan())
	}
	empty := &Log{}
	if empty.Makespan() != 0 {
		t.Error("empty makespan should be 0")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := sweepLog()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("round trip length %d", back.Len())
	}
	for i, e := range back.Events() {
		if e != l.Events()[i] {
			t.Errorf("event %d differs: %+v vs %+v", i, e, l.Events()[i])
		}
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReplaySweep(t *testing.T) {
	l := sweepLog()
	b, err := l.Replay(pathGraph(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.AllClean() || b.Moves() != 3 || b.MonotoneViolations() != 0 {
		t.Error("replayed sweep wrong")
	}
}

func TestReplayClone(t *testing.T) {
	l := &Log{}
	l.Append(Event{Time: 0, Kind: Place, Agent: 0, To: 0})
	l.Append(Event{Time: 0, Kind: Clone, Agent: 1, From: 0, To: 0})
	l.Append(Event{Time: 1, Kind: Move, Agent: 0, From: 0, To: 1})
	l.Append(Event{Time: 2, Kind: Move, Agent: 1, From: 0, To: 1})
	b, err := l.Replay(pathGraph(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Agents() != 2 || b.AgentsOn(1) != 2 {
		t.Error("clone replay wrong")
	}
}

func TestReplayErrors(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"unknown kind", []Event{{Kind: Kind("jump"), Agent: 0}}},
		{"move unknown agent", []Event{{Kind: Move, Agent: 3, To: 1}}},
		{"terminate unknown agent", []Event{{Kind: Terminate, Agent: 3}}},
		{"place reuse", []Event{{Kind: Place, Agent: 0, To: 0}, {Kind: Place, Agent: 0, To: 0}}},
		{"clone reuse", []Event{{Kind: Place, Agent: 0, To: 0}, {Kind: Clone, Agent: 0, To: 0}}},
		{"non-edge move", []Event{{Kind: Place, Agent: 0, To: 0}, {Time: 1, Kind: Move, Agent: 0, From: 0, To: 2}}},
		{"time backwards", []Event{{Time: 2, Kind: Place, Agent: 0, To: 0}, {Time: 1, Kind: Move, Agent: 0, From: 0, To: 1}}},
		{"move of terminated agent", []Event{{Kind: Place, Agent: 0, To: 0}, {Kind: Terminate, Agent: 0}, {Time: 1, Kind: Move, Agent: 0, From: 0, To: 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := &Log{}
			for _, e := range c.events {
				l.Append(e)
			}
			if _, err := l.Replay(pathGraph(3), 0); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
}

func TestReplayDetectsIllegalMove(t *testing.T) {
	l := &Log{}
	l.Append(Event{Time: 0, Kind: Place, Agent: 0, To: 0})
	l.Append(Event{Time: 1, Kind: Move, Agent: 0, From: 0, To: 2}) // not an edge
	_, err := l.Replay(pathGraph(3), 0)
	if err == nil {
		t.Fatal("illegal move replayed silently")
	}
	if !strings.Contains(err.Error(), "not an edge") || !strings.Contains(err.Error(), "event 1") {
		t.Errorf("error %q does not name the non-edge and its event", err)
	}
}

// ReplayOn calls its hook after each event and stops at the hook's
// first error; a panic in the hook is no board rule violation and
// propagates.
func TestReplayOnHook(t *testing.T) {
	b := board.New(pathGraph(4), 0)
	stop := errors.New("stop")
	var seen []int
	err := sweepLog().ReplayOn(b, func(i int) error {
		seen = append(seen, i)
		if i == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || len(seen) != 3 || b.Moves() != 2 {
		t.Errorf("hook stop: err %v, hook saw %v, %d moves; want stop after events 0..2 with 2 moves", err, seen, b.Moves())
	}
	defer func() {
		if recover() == nil {
			t.Error("a panic in the hook was swallowed")
		}
	}()
	_ = sweepLog().ReplayOn(board.New(pathGraph(4), 0), func(int) error { panic("hook bug") })
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf)
	for _, e := range sweepLog().Events() {
		e.Seq = 99 // the stream must assign its own sequence numbers
		s.Append(e)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if s.Len() != 5 {
		t.Fatalf("streamed %d events, want 5", s.Len())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sweepLog()
	if got.Len() != want.Len() {
		t.Fatalf("round trip has %d events, want %d", got.Len(), want.Len())
	}
	for i, e := range got.Events() {
		if e != want.Events()[i] {
			t.Fatalf("event %d: %+v, want %+v", i, e, want.Events()[i])
		}
	}
	// A streamed log replays like an in-memory one.
	b, err := got.Replay(pathGraph(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.AllClean() {
		t.Error("replayed streamed log did not clean the path")
	}
}

func TestStreamLatchesFirstError(t *testing.T) {
	s := NewStream(&errWriter{n: 2})
	for _, e := range sweepLog().Events() {
		s.Append(e)
	}
	if s.Err() == nil {
		t.Fatal("stream swallowed the write error")
	}
	// Events after the error are dropped, not re-attempted: Len counts
	// only events the stream accepted.
	if s.Len() > 3 {
		t.Errorf("stream kept counting after the error: len=%d", s.Len())
	}
}

func TestReadJSONLError(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":0}\nnot json\n")); err == nil {
		t.Error("malformed JSONL line did not error")
	}
}
