package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypersearch/internal/core"
	"hypersearch/internal/faults"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// newTestServer builds a server and tears it down with the test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	})
	return s
}

func TestParseRequestRejectsUnknownFields(t *testing.T) {
	_, err := ParseRequest(strings.NewReader(`{"dim_min":2,"protocols":["visibility"],"dimmax":4}`))
	if err == nil || !strings.Contains(err.Error(), "dimmax") {
		t.Fatalf("want unknown-field error naming dimmax, got %v", err)
	}
}

func TestParseRequestBounded(t *testing.T) {
	// A body larger than MaxRequestBytes is cut off mid-stream and must
	// fail to decode rather than being silently truncated into a
	// different, valid request.
	huge := `{"dim_min":2,"protocols":["visibility"],"seeds":[` +
		strings.Repeat("1,", MaxRequestBytes/2) + `1]}`
	if _, err := ParseRequest(strings.NewReader(huge)); err == nil {
		t.Fatal("want decode error for oversized body, got nil")
	}
}

func TestValidateRejections(t *testing.T) {
	lim := Limits{MaxDim: 8, MaxRuns: 100}
	crash := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.Crash, Target: "order:p0.e1", At: 1}}}
	link := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, 1), At: 1}}}
	bigLink := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, 128), At: 1}}}
	hostCrash := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.HostCrash, Target: faults.LinkTarget(0, 1), At: 1}}}
	endlessLag := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.KernelLag, From: 0, To: math.MaxInt64}}}
	stall := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.Stall, Target: faults.TargetAny, At: 3, Delay: 5}}}
	lostWakeup := &faults.Plan{Seed: 1, Faults: []faults.Fault{{Kind: faults.LostWakeup, At: 1, Until: 200}}}
	orderDelay := &faults.Plan{Seed: 1, Faults: []faults.Fault{
		{Kind: faults.Stall, Target: "order:p0.e1", At: 1, Delay: 50},
		{Kind: faults.LatencySpike, Target: "order:p0.e1", At: 1, Until: 9, Delay: 9},
	}}
	manySeeds := make([]int64, 20)
	for i := range manySeeds {
		manySeeds[i] = int64(i)
	}
	cases := []struct {
		name string
		req  Request
		want string // substring of the rejection
	}{
		{"bad engine", Request{DimMin: 2, Engine: "quantum", Protocols: []string{core.Visibility}}, "unknown engine"},
		{"dim too small", Request{DimMin: 0, Protocols: []string{core.Visibility}}, "dim_min"},
		{"empty range", Request{DimMin: 4, DimMax: 3, Protocols: []string{core.Visibility}}, "empty"},
		{"dim over limit", Request{DimMin: 2, DimMax: 9, Protocols: []string{core.Visibility}}, "limit"},
		{"no protocols", Request{DimMin: 2}, "no protocols"},
		{"unknown protocol", Request{DimMin: 2, Protocols: []string{"visibilty"}}, `did you mean "visibility"`},
		{"dup protocol", Request{DimMin: 2, Protocols: []string{core.Visibility, core.Visibility}}, "twice"},
		{"dup seed", Request{DimMin: 2, Protocols: []string{core.Visibility}, Seeds: []int64{3, 1, 3}}, "seed 3 requested twice"},
		{"clean from d=1", Request{DimMin: 1, Protocols: []string{core.Clean}}, "dim_min >= 2"},
		{"negative latency", Request{DimMin: 2, Protocols: []string{core.Visibility}, AdversarialLatency: -1}, "negative"},
		{"negative deadline", Request{DimMin: 2, Protocols: []string{core.Visibility}, DeadlineMS: -5}, "negative"},
		{"too many runs", Request{DimMin: 2, DimMax: 8, Protocols: []string{core.Visibility}, Seeds: manySeeds}, "runs"},
		{"crash plan", Request{DimMin: 2, Protocols: []string{core.Visibility}, Faults: crash}, "crash"},
		{"link plan on des", Request{DimMin: 2, Protocols: []string{core.Visibility}, Faults: link}, "network engine"},
		{"link target outside small cube", Request{DimMin: 2, DimMax: 3, Engine: EngineNetwork, Protocols: []string{core.Visibility}, Faults: bigLink}, "at d=2"},
		{"host crash vs clean net", Request{DimMin: 2, Engine: EngineNetwork, Protocols: []string{core.Clean}, Faults: hostCrash}, "clean"},
		{"kernel-lag end overflowing the clock", Request{DimMin: 2, Protocols: []string{core.Visibility}, Faults: endlessLag}, "kernel-lag window end"},
		{"network-only protocol", Request{DimMin: 2, Engine: EngineNetwork, Protocols: []string{core.Synchronous}}, "unknown protocol"},
		// Plans whose faults the engine never fires are refused at
		// admission.
		{"stall plan on network", Request{DimMin: 2, Engine: EngineNetwork, Protocols: []string{core.Visibility}, Faults: stall}, "stall"},
		{"lost-wakeup plan on des", Request{DimMin: 2, Protocols: []string{core.Cloning}, Faults: lostWakeup}, "lost-wakeup"},
		{"order-targeted delays on des", Request{DimMin: 2, Protocols: []string{core.Clean, core.Visibility}, Faults: orderDelay}, "order key"},
		// Under a server limit past every engine's own, the engines'
		// limits still hold.
		{"network beyond its limit", Request{DimMin: 25, Engine: EngineNetwork, Protocols: []string{core.Visibility}}, "at d=25"},
		{"network far beyond its limit", Request{DimMin: 30, Engine: EngineNetwork, Protocols: []string{core.Clean}}, "at d=30"},
		{"des beyond the topology", Request{DimMin: 31, Protocols: []string{core.Visibility}}, "at d=31"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.req
			q.Normalize()
			lim := lim
			if q.DimMin > lim.MaxDim {
				lim.MaxDim = 40 // past every engine's own limit
			}
			err := q.Validate(lim)
			if err == nil {
				t.Fatalf("want rejection containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want rejection containing %q, got %q", tc.want, err)
			}
		})
	}
}

func TestExpandCanonicalOrder(t *testing.T) {
	q := Request{DimMin: 2, DimMax: 3, Protocols: []string{core.Cloning, core.Visibility}, Seeds: []int64{7, 9}}
	q.Normalize()
	specs := q.Expand()
	var got []string
	for _, s := range specs {
		got = append(got, fmt.Sprintf("%d/%s/%d", s.Dim, s.Protocol, s.Seed))
	}
	want := []string{
		"2/cloning/7", "2/cloning/9", "2/visibility/7", "2/visibility/9",
		"3/cloning/7", "3/cloning/9", "3/visibility/7", "3/visibility/9",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("expansion order:\ngot  %v\nwant %v", got, want)
	}
}

func TestSubmitCompletesMatchingSerial(t *testing.T) {
	s := newTestServer(t, Config{MaxActive: 2, Workers: 1, QueueDepth: 8})
	req := &Request{Name: "basic", DimMin: 2, DimMax: 4,
		Protocols: []string{core.Visibility, core.Clean}, Seeds: []int64{1, 2}}
	c, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st, err := c.Wait(testCtx(t)); err != nil || st != StatusCompleted {
		t.Fatalf("Wait: %s, %v", st, err)
	}
	recs := c.Records()
	if len(recs) != c.Runs() {
		t.Fatalf("got %d records, want %d", len(recs), c.Runs())
	}
	want, err := SerialRecords(req)
	if err != nil {
		t.Fatalf("SerialRecords: %v", err)
	}
	gj, _ := json.Marshal(recs)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("service records diverge from serial batch path:\nservice: %s\nserial:  %s", gj, wj)
	}
}

// TestCacheHitByteIdentity is the acceptance test for the result
// cache: an identical resubmission is served from the cache (observed
// via the stream's Cached flags and the hit counter) and its records
// are byte-identical to both the first simulation and an independent
// serial re-simulation.
func TestCacheHitByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{MaxActive: 1, Workers: 1, QueueDepth: 8})
	ctx := testCtx(t)
	req := &Request{Name: "one", DimMin: 2, DimMax: 5,
		Protocols: []string{core.Visibility, core.Cloning}, Seeds: []int64{3}}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st, _ := first.Wait(ctx); st != StatusCompleted {
		t.Fatalf("first: %s", st)
	}

	dup := *req
	dup.Name = "two"
	hits0, _ := s.Cache().Stats()
	second, err := s.Submit(&dup)
	if err != nil {
		t.Fatalf("Submit dup: %v", err)
	}
	if st, _ := second.Wait(ctx); st != StatusCompleted {
		t.Fatalf("second: %s", st)
	}
	hits1, _ := s.Cache().Stats()
	if got := hits1 - hits0; got != int64(second.Runs()) {
		t.Fatalf("want %d cache hits for the resubmission, got %d", second.Runs(), got)
	}
	cached := 0
	for i := 0; ; i++ {
		e, ok := second.next(ctx, i)
		if !ok || e.Type == "done" {
			break
		}
		if e.Type == "run" && e.Run != nil && e.Run.Cached {
			cached++
		}
	}
	if cached != second.Runs() {
		t.Fatalf("want every streamed run marked cached, got %d/%d", cached, second.Runs())
	}

	fj, _ := json.Marshal(first.Records())
	sj, _ := json.Marshal(second.Records())
	if !bytes.Equal(fj, sj) {
		t.Fatalf("cache hit is not byte-identical to the original simulation:\nfirst:  %s\nsecond: %s", fj, sj)
	}
	serial, err := SerialRecords(req)
	if err != nil {
		t.Fatalf("SerialRecords: %v", err)
	}
	wj, _ := json.Marshal(serial)
	if !bytes.Equal(sj, wj) {
		t.Fatalf("cache hit is not byte-identical to re-simulation:\ncached: %s\nserial: %s", sj, wj)
	}
}

// TestPanicIsolation proves a panicking run fails only its own
// campaign: the daemon keeps executing, and the executor whose pool
// entry was poisoned serves the next campaign correctly.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{MaxActive: 1, Workers: 1, QueueDepth: 8,
		BeforeRun: func(campaign string, spec RunSpec) {
			if campaign == "boom" && spec.Dim == 3 {
				panic("injected: poison the pool mid-campaign")
			}
		}})
	ctx := testCtx(t)
	boom, err := s.Submit(&Request{Name: "boom", DimMin: 2, DimMax: 4, Protocols: []string{core.Visibility}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := boom.Wait(ctx)
	if err != nil || st != StatusFailed {
		t.Fatalf("boom: want %s, got %s (%v)", StatusFailed, st, err)
	}
	if snap := boom.Snapshot(); !strings.Contains(snap.Error, "panicked") {
		t.Fatalf("boom error should name the panic, got %q", snap.Error)
	}

	// Same executor, same pools: the poisoned d=3 entry must have been
	// dropped, not reused, so this campaign still matches serial.
	after := &Request{Name: "after", DimMin: 2, DimMax: 4, Protocols: []string{core.Visibility}}
	c, err := s.Submit(after)
	if err != nil {
		t.Fatalf("Submit after: %v", err)
	}
	if st, _ := c.Wait(ctx); st != StatusCompleted {
		t.Fatalf("after: %s", st)
	}
	want, _ := SerialRecords(after)
	gj, _ := json.Marshal(c.Records())
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("post-panic records diverge from serial:\nservice: %s\nserial:  %s", gj, wj)
	}
}

// TestStrategyPanicIsolated: a panic inside a strategy's own
// simulation — the synchronous variant's lockstep assertion tripped by
// a stall fault — fails only its campaign. Every DES strategy runs on
// the run's own goroutine, so the scheduler recovers the panic; the
// daemon keeps serving, and a restart on the same journal serves the
// failed campaign from the journal instead of re-running it.
func TestStrategyPanicIsolated(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := NewServer(Config{JournalPath: journal, MaxActive: 1, Workers: 1, QueueDepth: 8, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	const body = `{"dim_min":3,"dim_max":3,"protocols":["synchronous"],"seeds":[1],` +
		`"faults":{"name":"stall","seed":1,"faults":[{"kind":"stall","target":"any","at":1,"delay":3}]}}`
	const wantErr = "sched: task 0 panicked: synchronous: node 1 holds 1 agents at t=1, want 2"
	resp, err := ts.Client().Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sn Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil || resp.StatusCode != 202 {
		t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if status, _, err := streamCampaign(ts.Client(), ts.URL, sn.ID); err != nil || status != StatusFailed {
		t.Fatalf("panicking campaign: status %s, %v; want %s", status, err, StatusFailed)
	}
	boom, _ := s.Get(sn.ID)
	if got := boom.Snapshot().Error; got != wantErr {
		t.Fatalf("error %q, want %q", got, wantErr)
	}

	// The daemon survived and still runs campaigns.
	id, code, err := postCampaign(ts.Client(), ts.URL,
		&Request{Name: "after", DimMin: 2, DimMax: 3, Protocols: []string{core.Visibility}})
	if err != nil || code != 202 {
		t.Fatalf("submit after: HTTP %d, %v", code, err)
	}
	if status, runs, err := streamCampaign(ts.Client(), ts.URL, id); err != nil || status != StatusCompleted || runs != 2 {
		t.Fatalf("after: status %s, %d runs, %v", status, runs, err)
	}
	ts.Close()
	ctx := testCtx(t)
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A restart serves the failure from the journal: nothing re-runs.
	reruns := 0
	s2 := newTestServer(t, Config{JournalPath: journal, MaxActive: 1, Workers: 1, QueueDepth: 8,
		BeforeRun: func(string, RunSpec) { reruns++ }})
	if got := s2.Stats().Recovered; got != 0 {
		t.Fatalf("restart re-ran %d campaigns, want 0", got)
	}
	c0, ok := s2.Get(sn.ID)
	if !ok {
		t.Fatalf("restart: campaign %s missing", sn.ID)
	}
	if snap := c0.Snapshot(); snap.Status != StatusFailed || snap.Error != wantErr {
		t.Fatalf("restart: %s is %s (%q), want %s (%q)", sn.ID, snap.Status, snap.Error, StatusFailed, wantErr)
	}
	if reruns != 0 {
		t.Fatalf("restart executed %d runs", reruns)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	g := newGate()
	s := newTestServer(t, Config{MaxActive: 1, Workers: 1, QueueDepth: 8,
		BeforeRun: func(campaign string, _ RunSpec) {
			if campaign == "slow" {
				g.hook()()
			}
		}})
	c, err := s.Submit(&Request{Name: "slow", DimMin: 2, DimMax: 6,
		Protocols: []string{core.Visibility}, DeadlineMS: 50})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-g.started
	time.Sleep(80 * time.Millisecond) // let the deadline lapse while run 0 is held
	close(g.release)
	st, err := c.Wait(testCtx(t))
	if err != nil || st != StatusDeadline {
		t.Fatalf("want %s, got %s (%v)", StatusDeadline, st, err)
	}
	if c.Records() != nil {
		t.Fatalf("deadline-exceeded campaign should publish no records")
	}
}

func TestCancelMidFlight(t *testing.T) {
	g := newGate()
	s := newTestServer(t, Config{MaxActive: 1, Workers: 1, QueueDepth: 8,
		BeforeRun: func(campaign string, _ RunSpec) {
			if campaign == "victim" {
				g.hook()()
			}
		}})
	c, err := s.Submit(&Request{Name: "victim", DimMin: 2, DimMax: 6, Protocols: []string{core.Visibility}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-g.started
	if _, err := s.Cancel(c.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	close(g.release)
	st, err := c.Wait(testCtx(t))
	if err != nil || st != StatusCanceled {
		t.Fatalf("want %s, got %s (%v)", StatusCanceled, st, err)
	}
}

func TestCancelQueued(t *testing.T) {
	g := newGate()
	s := newTestServer(t, Config{MaxActive: 1, Workers: 1, QueueDepth: 8,
		BeforeRun: func(campaign string, _ RunSpec) {
			if campaign == "holder" {
				g.hook()()
			}
		}})
	holder, err := s.Submit(&Request{Name: "holder", DimMin: 2, Protocols: []string{core.Visibility}})
	if err != nil {
		t.Fatalf("Submit holder: %v", err)
	}
	<-g.started
	queued, err := s.Submit(&Request{Name: "queued", DimMin: 2, Protocols: []string{core.Visibility}})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	// The only executor is held, so "queued" cannot have started; its
	// cancellation must finalize immediately, without an executor.
	if _, err := s.Cancel(queued.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st := queued.status(); st != StatusCanceled {
		t.Fatalf("queued campaign after cancel: want %s, got %s", StatusCanceled, st)
	}
	close(g.release)
	if st, _ := holder.Wait(testCtx(t)); st != StatusCompleted {
		t.Fatalf("holder: %s", st)
	}
}

func TestOverloadShedding(t *testing.T) {
	g := newGate()
	s := newTestServer(t, Config{MaxActive: 1, Workers: 1, QueueDepth: 1,
		BeforeRun: func(string, RunSpec) { g.hook()() }})
	small := func(n string) *Request { return &Request{Name: n, DimMin: 2, Protocols: []string{core.Visibility}} }
	if _, err := s.Submit(small("active")); err != nil {
		t.Fatalf("Submit active: %v", err)
	}
	<-g.started // the executor holds "active"; the queue is empty again
	if _, err := s.Submit(small("waiting")); err != nil {
		t.Fatalf("Submit waiting: %v", err)
	}
	if _, err := s.Submit(small("shed")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	close(g.release)
}

// TestGracefulDrain is the SIGTERM semantics test: in-flight campaigns
// complete, queued ones stay journaled as accepted (checkpointed for
// the next process), new submissions are rejected, and a restarted
// server re-runs the queued work to completion.
func TestGracefulDrain(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	g := newGate()
	s, err := NewServer(Config{JournalPath: journal, MaxActive: 1, Workers: 1, QueueDepth: 8, Logf: t.Logf,
		BeforeRun: func(campaign string, _ RunSpec) {
			if campaign == "inflight" {
				g.hook()()
			}
		}})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx := testCtx(t)
	inflight, err := s.Submit(&Request{Name: "inflight", DimMin: 2, DimMax: 3, Protocols: []string{core.Visibility}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	queued, err := s.Submit(&Request{Name: "checkpointed", DimMin: 2, DimMax: 4, Protocols: []string{core.Cloning}})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	<-g.started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	for !s.Stats().Draining {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(&Request{Name: "late", DimMin: 2, Protocols: []string{core.Visibility}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission while draining: want ErrDraining, got %v", err)
	}
	close(g.release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := inflight.status(); st != StatusCompleted {
		t.Fatalf("in-flight campaign after drain: want %s, got %s", StatusCompleted, st)
	}
	if st := queued.status(); st != StatusQueued {
		t.Fatalf("queued campaign after drain: want %s, got %s", StatusQueued, st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := newTestServer(t, Config{JournalPath: journal, MaxActive: 1, Workers: 1, QueueDepth: 8})
	if got := s2.Stats().Recovered; got != 1 {
		t.Fatalf("restart: want 1 recovered campaign, got %d", got)
	}
	c2, ok := s2.Get(queued.ID())
	if !ok {
		t.Fatalf("restart: campaign %s missing", queued.ID())
	}
	if st, err := c2.Wait(ctx); err != nil || st != StatusCompleted {
		t.Fatalf("recovered campaign: %s, %v", st, err)
	}
	want, _ := SerialRecords(queued.Request())
	gj, _ := json.Marshal(c2.Records())
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("recovered records diverge from serial:\nservice: %s\nserial:  %s", gj, wj)
	}
	// The in-flight campaign that completed before the drain must be
	// served from the journal, with its records, not re-run.
	a2, ok := s2.Get(inflight.ID())
	if !ok || a2.status() != StatusCompleted || len(a2.Records()) != inflight.Runs() {
		t.Fatalf("completed campaign not served from journal after restart")
	}
	// Recovery replays the per-run events, so a journal-served snapshot
	// reports the same done count a live one would.
	if snap := a2.Snapshot(); snap.Done != snap.Total || snap.Done != inflight.Runs() {
		t.Fatalf("restart: journal-served snapshot done=%d total=%d, want %d", snap.Done, snap.Total, inflight.Runs())
	}
}

func TestJournalTornTailSkippedAndTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	good := Entry{Type: EntryAccepted, ID: "c0", Req: &Request{DimMin: 2, Protocols: []string{core.Visibility}}}
	gb, _ := json.Marshal(good)
	torn := []byte(`{"type":"completed","id":"c0","status":"comp`) // crashed mid-append
	if err := os.WriteFile(path, append(append(gb, '\n'), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, skipped, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(entries) != 1 || entries[0].ID != "c0" || entries[0].Type != EntryAccepted {
		t.Fatalf("want the 1 intact entry, got %+v", entries)
	}
	if skipped != 1 {
		t.Fatalf("want 1 skipped torn record, got %d", skipped)
	}
	// The torn bytes must be gone: the next append starts a clean line.
	fin := Entry{Type: EntryCompleted, ID: "c0", Status: StatusCanceled}
	if err := j.Append(fin); err != nil {
		t.Fatalf("Append after torn tail: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries2, skipped2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if skipped2 != 0 || len(entries2) != 2 || entries2[1].Status != StatusCanceled {
		t.Fatalf("after truncate+append want 2 clean entries, got %d (skipped %d): %+v", len(entries2), skipped2, entries2)
	}
}

func TestJournalCorruptMiddleStopsReplay(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range []Entry{
		{Type: EntryAccepted, ID: "c0", Req: &Request{DimMin: 2, Protocols: []string{core.Visibility}}},
		{Type: EntryCompleted, ID: "c0", Status: StatusCompleted},
	} {
		b, _ := json.Marshal(e)
		buf.Write(append(b, '\n'))
	}
	buf.WriteString("NOT JSON AT ALL\n")
	b, _ := json.Marshal(Entry{Type: EntryAccepted, ID: "c1", Req: &Request{DimMin: 2, Protocols: []string{core.Visibility}}})
	buf.Write(append(b, '\n'))

	entries, skipped, err := ReadEntries(&buf)
	if err != nil {
		t.Fatalf("ReadEntries: %v", err)
	}
	// Replay stops at the corruption: the append-only contract makes
	// everything after it untrustworthy.
	if len(entries) != 2 || skipped != 2 {
		t.Fatalf("want 2 entries replayed and 2 skipped, got %d and %d", len(entries), skipped)
	}
}

func TestHTTPSurface(t *testing.T) {
	s := newTestServer(t, Config{MaxActive: 1, Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Bad JSON -> 400 with a JSON error body.
	resp, err := ts.Client().Post(ts.URL+"/campaigns", "application/json", strings.NewReader(`{"dim_min":`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Fatalf("bad body: want 400, got %d", resp.StatusCode)
	}
	resp.Body.Close()

	id, code, err := postCampaign(ts.Client(), ts.URL,
		&Request{Name: "http", DimMin: 2, DimMax: 3, Protocols: []string{core.Visibility}})
	if err != nil || code != 202 {
		t.Fatalf("submit: HTTP %d, %v", code, err)
	}
	status, runs, err := streamCampaign(ts.Client(), ts.URL, id)
	if err != nil || status != StatusCompleted || runs != 2 {
		t.Fatalf("stream: status %s, %d runs, %v", status, runs, err)
	}

	resp, err = ts.Client().Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Status != StatusCompleted || len(snap.Runs) != 2 || snap.Done != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}

	for _, probe := range []struct {
		path string
		want int
	}{
		{"/campaigns/nope", 404},
		{"/campaigns", 200},
		{"/healthz", 200},
		{"/statsz", 200},
	} {
		resp, err := ts.Client().Get(ts.URL + probe.path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != probe.want {
			t.Fatalf("GET %s: want %d, got %d", probe.path, probe.want, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err = ts.Client().Post(ts.URL+"/campaigns/nope/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("cancel nope: want 404, got %d", resp.StatusCode)
	}
	resp.Body.Close()
}
