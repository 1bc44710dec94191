package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function. Spans of one request share Req; Parent is
// the id of the span that caused this one, or -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Worker  int    `json:"worker"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer's origin
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"` // work done inside, where counted
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced requests pass nil.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, req, parent, worker int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Worker: worker, Name: name, StartNS: now})
	return id
}

// end closes span id, attaching a work count.
func (t *tracer) end(id int, count int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.spans[id].Count = count
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, req, parent, worker int, start, end time.Time, count int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Worker: worker, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(), Count: count})
	return id
}

// durations returns the lengths of every span named name, with their
// summed counts.
func (t *tracer) durations(name string) (ds []float64, count int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.EndNS-s.StartNS))
			count += s.Count
		}
	}
	return ds, count
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
