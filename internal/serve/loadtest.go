package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hypersearch/internal/core"
	"hypersearch/internal/faults"
)

// LoadConfig tunes the load-test harness.
type LoadConfig struct {
	Dir    string // scratch directory for the phase journals (required)
	MaxDim int    // largest dimension the mixed campaigns sweep to; default 8
	Logf   func(format string, args ...any)
}

// LoadReport is what the harness measured. Every count is also an
// assertion: the harness errors out if an expected behaviour (a 429, a
// 503, a recovery, an identity match) did not happen.
type LoadReport struct {
	Submitted    int           `json:"submitted"`        // campaigns admitted across all phases
	Shed         int           `json:"shed_429"`         // submissions shed by admission control
	DrainReject  int           `json:"drain_503"`        // submissions rejected while draining
	Completed    int           `json:"completed"`        // campaigns that finished all runs
	Canceled     int           `json:"canceled"`         // campaigns cancelled mid-flight
	Failed       int           `json:"failed"`           // campaigns failed by an injected panic
	Runs         int           `json:"runs"`             // run records produced by completed campaigns
	StreamRuns   int           `json:"stream_runs"`      // run events observed over HTTP streams
	CacheHits    int64         `json:"cache_hits"`       // result-cache hits across phases
	CacheMisses  int64         `json:"cache_misses"`     // result-cache misses across phases
	Interrupted  int           `json:"interrupted"`      // campaigns left queued by the drain
	Recovered    int           `json:"recovered"`        // campaigns re-run after restart
	Identity     int           `json:"identity_checked"` // campaigns compared byte-for-byte to the serial batch path
	Compactions  int64         `json:"compactions"`      // journal compactions observed under load
	CompactSaved int           `json:"compact_saved"`    // journal records the compacted twin avoided vs the uncompacted one
	Evicted      int64         `json:"evicted"`          // cache evictions forced by the bounded-cache phase
	Elapsed      time.Duration `json:"elapsed_ns"`
}

func (r LoadReport) String() string {
	return fmt.Sprintf(
		"submitted=%d shed429=%d drain503=%d completed=%d canceled=%d failed=%d runs=%d stream_runs=%d cache=%d/%d interrupted=%d recovered=%d identity=%d compactions=%d compact_saved=%d evicted=%d elapsed=%s",
		r.Submitted, r.Shed, r.DrainReject, r.Completed, r.Canceled, r.Failed,
		r.Runs, r.StreamRuns, r.CacheHits, r.CacheMisses,
		r.Interrupted, r.Recovered, r.Identity,
		r.Compactions, r.CompactSaved, r.Evicted, r.Elapsed.Round(time.Millisecond))
}

// gate lets the harness hold a named campaign's runs at a known point:
// the first gated run signals started and every gated run blocks until
// release is closed. That turns "cancel mid-flight" and "drain with
// work in the queue" from races into sequenced steps.
type gate struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) hook() func() {
	return func() {
		g.once.Do(func() { close(g.started) })
		<-g.release
	}
}

// RunLoadTest hammers the campaign service through its real HTTP
// surface and returns what it measured. Three phases:
//
//  1. Concurrency: >=9 mixed campaigns (both engines, fault plans,
//     adversarial latency, duplicates) submitted at once against
//     MaxActive=4 executors, progress consumed over live JSONL
//     streams, two campaigns cancelled mid-flight, one killed by an
//     injected panic — and every completed campaign compared
//     byte-for-byte against the serial batch path.
//  2. Admission: a gated single-executor server is filled past its
//     queue depth to force a 429, then drained to force a 503.
//  3. Crash-restart: a journalled server is drained with campaigns
//     still queued; a second server on the same journal re-runs them
//     to completion and serves the pre-drain results from the warmed
//     cache, again byte-identical to serial.
//  4. Compaction: twin journalled servers run the same campaign mix —
//     one auto-compacting aggressively and hit with concurrent
//     POST /compact, the other never compacting — and after a restart
//     of both, every campaign served from the compacted journal is
//     byte-identical to its uncompacted twin and to serial.
//  5. Eviction: a server whose cache budget is far below the campaign
//     size re-runs a verbatim duplicate; results stay byte-identical
//     to serial while the eviction counters climb.
//
// The harness runs under -race in the test suite (d <= 8) and behind
// `hqserved -loadtest` for reportable numbers.
func RunLoadTest(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("loadtest: LoadConfig.Dir is required")
	}
	if cfg.MaxDim <= 0 {
		cfg.MaxDim = 8
	}
	if cfg.MaxDim < 4 {
		return nil, fmt.Errorf("loadtest: MaxDim %d too small (need >= 4)", cfg.MaxDim)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rep := &LoadReport{}
	start := time.Now()
	if err := loadPhaseConcurrent(cfg, rep); err != nil {
		return rep, fmt.Errorf("loadtest phase 1 (concurrency): %w", err)
	}
	if err := loadPhaseAdmission(cfg, rep); err != nil {
		return rep, fmt.Errorf("loadtest phase 2 (admission): %w", err)
	}
	if err := loadPhaseRestart(cfg, rep); err != nil {
		return rep, fmt.Errorf("loadtest phase 3 (drain/restart): %w", err)
	}
	if err := loadPhaseCompaction(cfg, rep); err != nil {
		return rep, fmt.Errorf("loadtest phase 4 (compaction): %w", err)
	}
	if err := loadPhaseEviction(cfg, rep); err != nil {
		return rep, fmt.Errorf("loadtest phase 5 (eviction): %w", err)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// mixedCampaigns is the phase-1 workload: both engines, a DES delay
// plan, a network wire-fault plan, adversarial latency, two designated
// cancellation victims, one campaign that panics, and a duplicate pair
// proving the cache. Dimensions are capped so the whole mix stays
// -race-friendly.
func mixedCampaigns(maxDim int) []*Request {
	clamp := func(d int) int {
		if d < 2 {
			return 2
		}
		return d
	}
	netDim := maxDim
	if netDim > 5 {
		netDim = 5 // network engine spawns 2^d hosts; keep goroutine count sane
	}
	spike := &faults.Plan{Name: "spike", Seed: 1, Faults: []faults.Fault{
		{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 3, Until: 6, Delay: 4},
	}}
	lossy := &faults.Plan{Name: "lossy", Seed: 2, Faults: []faults.Fault{
		{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, 1), At: 1, Until: 4, Times: 1},
	}}
	return []*Request{
		{Name: "des-vis", DimMin: 2, DimMax: maxDim, Protocols: []string{core.Visibility}, Seeds: []int64{1, 2}},
		{Name: "des-all", DimMin: 2, DimMax: clamp(maxDim - 1), Protocols: []string{core.Clean, core.Visibility, core.Cloning, core.Synchronous}},
		{Name: "des-adv", DimMin: 2, DimMax: clamp(maxDim - 2), Protocols: []string{core.Visibility, core.Cloning}, Seeds: []int64{7}, AdversarialLatency: 5},
		{Name: "des-faulty", DimMin: 3, DimMax: clamp(maxDim - 1), Protocols: []string{core.Clean, core.Visibility}, Seeds: []int64{3}, Faults: spike},
		{Name: "net-vis", Engine: EngineNetwork, DimMin: 2, DimMax: netDim, Protocols: []string{core.Visibility, core.Cloning}, Seeds: []int64{1}},
		{Name: "net-lossy", Engine: EngineNetwork, DimMin: 2, DimMax: clamp(netDim - 1), Protocols: []string{core.Visibility}, Seeds: []int64{2}, Faults: lossy},
		{Name: "victim-1", DimMin: 2, DimMax: maxDim, Protocols: []string{core.Visibility, core.Synchronous}, Seeds: []int64{1, 2, 3}},
		{Name: "victim-2", DimMin: 2, DimMax: maxDim, Protocols: []string{core.Cloning}, Seeds: []int64{1, 2, 3, 4}},
		{Name: "boom", DimMin: 2, DimMax: 2, Protocols: []string{core.Visibility}},
		{Name: "dup", DimMin: 2, DimMax: clamp(maxDim - 1), Protocols: []string{core.Visibility}, Seeds: []int64{5}},
	}
}

func loadPhaseConcurrent(cfg LoadConfig, rep *LoadReport) error {
	gates := map[string]*gate{"victim-1": newGate(), "victim-2": newGate()}
	srv, err := NewServer(Config{
		JournalPath: filepath.Join(cfg.Dir, "load-concurrent.jsonl"),
		MaxActive:   4,
		QueueDepth:  32,
		Workers:     1,
		MaxDim:      cfg.MaxDim,
		Logf:        cfg.Logf,
		BeforeRun: func(campaign string, _ RunSpec) {
			if campaign == "boom" {
				panic("injected fault: boom")
			}
			if g := gates[campaign]; g != nil {
				g.hook()()
			}
		},
	})
	if err != nil {
		return err
	}
	base, shutdown, err := serveHTTP(srv)
	if err != nil {
		return err
	}
	defer shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	client := &http.Client{}

	reqs := mixedCampaigns(cfg.MaxDim)
	byName := map[string]*Request{}
	ids := make([]string, len(reqs))
	var wg sync.WaitGroup
	errc := make(chan error, 4*len(reqs)) // every goroutine below writes at most once
	for i, q := range reqs {
		byName[q.Name] = q
		wg.Add(1)
		go func(i int, q *Request) {
			defer wg.Done()
			id, code, err := postCampaign(client, base, q)
			if err != nil {
				errc <- fmt.Errorf("submitting %s: %w", q.Name, err)
				return
			}
			if code != http.StatusAccepted {
				errc <- fmt.Errorf("submitting %s: got HTTP %d", q.Name, code)
				return
			}
			ids[i] = id
		}(i, q)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}
	rep.Submitted += len(reqs)

	// Cancel the victims mid-flight: wait for each to enter its first
	// run (held at the gate), cancel it, then let the held run finish —
	// the remaining runs are skipped and the campaign lands canceled.
	for name, g := range gates {
		wg.Add(1)
		go func(name string, g *gate) {
			defer wg.Done()
			select {
			case <-g.started:
			case <-ctx.Done():
				errc <- fmt.Errorf("victim %s never started", name)
				return
			}
			id := idOf(ids, reqs, name)
			if _, err := client.Post(base+"/campaigns/"+id+"/cancel", "", nil); err != nil {
				errc <- fmt.Errorf("cancelling %s: %w", name, err)
			}
			close(g.release)
		}(name, g)
	}

	// Consume every campaign's live stream concurrently.
	statuses := make([]string, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, runs, err := streamCampaign(client, base, ids[i])
			if err != nil {
				errc <- fmt.Errorf("streaming %s: %w", reqs[i].Name, err)
				return
			}
			statuses[i] = status
			rep.addStreamRuns(runs)
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}

	// The daemon must have survived the panic.
	if resp, err := client.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon unhealthy after injected panic: %v", err)
	}
	for i, q := range reqs {
		switch q.Name {
		case "boom":
			if statuses[i] != StatusFailed {
				return fmt.Errorf("boom: want %s, got %s", StatusFailed, statuses[i])
			}
			rep.Failed++
		case "victim-1", "victim-2":
			if statuses[i] != StatusCanceled {
				return fmt.Errorf("%s: want %s, got %s", q.Name, StatusCanceled, statuses[i])
			}
			rep.Canceled++
		default:
			if statuses[i] != StatusCompleted {
				return fmt.Errorf("%s: want %s, got %s", q.Name, StatusCompleted, statuses[i])
			}
			rep.Completed++
		}
	}

	// Cache proof: resubmit the dup campaign verbatim; every run must
	// come from the cache and the records must still match serial.
	hits0, _ := srv.Cache().Stats()
	dup := *byName["dup"]
	dup.Name = "dup-again"
	id, code, err := postCampaign(client, base, &dup)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("resubmitting dup: HTTP %d, %v", code, err)
	}
	rep.Submitted++
	status, runs, err := streamCampaign(client, base, id)
	if err != nil || status != StatusCompleted {
		return fmt.Errorf("dup-again: status %s, %v", status, err)
	}
	rep.Completed++
	rep.addStreamRuns(runs)
	c, _ := srv.Get(id)
	if hits1, _ := srv.Cache().Stats(); hits1-hits0 < int64(c.Runs()) {
		return fmt.Errorf("dup-again: want >= %d cache hits, got %d", c.Runs(), hits1-hits0)
	}

	// Byte-identity: every completed campaign's records equal the
	// serial batch path's, whether simulated fresh or cache-served.
	for i, q := range reqs {
		if statuses[i] != StatusCompleted {
			continue
		}
		cc, _ := srv.Get(ids[i])
		if err := checkIdentity(q, cc.Records()); err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		rep.Identity++
		rep.Runs += len(cc.Records())
	}
	if err := checkIdentity(&dup, c.Records()); err != nil {
		return fmt.Errorf("dup-again: %w", err)
	}
	rep.Identity++
	rep.Runs += len(c.Records())

	hits, misses := srv.Cache().Stats()
	rep.CacheHits += hits
	rep.CacheMisses += misses

	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return srv.Close()
}

func loadPhaseAdmission(cfg LoadConfig, rep *LoadReport) error {
	g := newGate()
	srv, err := NewServer(Config{
		MaxActive:  1,
		QueueDepth: 2,
		Workers:    1,
		MaxDim:     cfg.MaxDim,
		Logf:       cfg.Logf,
		BeforeRun:  func(string, RunSpec) { g.hook()() },
	})
	if err != nil {
		return err
	}
	base, shutdown, err := serveHTTP(srv)
	if err != nil {
		return err
	}
	defer shutdown()
	client := &http.Client{}

	small := func(name string) *Request {
		return &Request{Name: name, DimMin: 2, DimMax: 3, Protocols: []string{core.Visibility}}
	}
	// First submission reaches the (gated) executor and blocks there,
	// leaving the queue empty; the next two fill the queue; the fourth
	// must be shed with 429.
	if _, code, err := postCampaign(client, base, small("shed-0")); err != nil || code != http.StatusAccepted {
		return fmt.Errorf("shed-0: HTTP %d, %v", code, err)
	}
	select {
	case <-g.started:
	case <-time.After(time.Minute):
		return fmt.Errorf("shed-0 never reached the executor")
	}
	for _, name := range []string{"shed-1", "shed-2"} {
		if _, code, err := postCampaign(client, base, small(name)); err != nil || code != http.StatusAccepted {
			return fmt.Errorf("%s: HTTP %d, %v", name, code, err)
		}
	}
	rep.Submitted += 3
	_, code, err := postCampaign(client, base, small("shed-3"))
	if err != nil {
		return err
	}
	if code != http.StatusTooManyRequests {
		return fmt.Errorf("shed-3: want 429, got HTTP %d", code)
	}
	rep.Shed++

	// Release the gate and drain; a post-drain submission must get 503.
	close(g.release)
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	_, code, err = postCampaign(client, base, small("late"))
	if err != nil {
		return err
	}
	if code != http.StatusServiceUnavailable {
		return fmt.Errorf("post-drain submission: want 503, got HTTP %d", code)
	}
	rep.DrainReject++
	return srv.Close()
}

func loadPhaseRestart(cfg LoadConfig, rep *LoadReport) error {
	journal := filepath.Join(cfg.Dir, "load-restart.jsonl")
	g := newGate()
	srv, err := NewServer(Config{
		JournalPath: journal,
		MaxActive:   1,
		QueueDepth:  8,
		Workers:     1,
		MaxDim:      cfg.MaxDim,
		Logf:        cfg.Logf,
		BeforeRun: func(campaign string, _ RunSpec) {
			if campaign == "hold" {
				g.hook()()
			}
		},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	pre := &Request{Name: "pre", DimMin: 2, DimMax: 4, Protocols: []string{core.Visibility}}
	a, err := srv.Submit(pre)
	if err != nil {
		return err
	}
	if st, err := a.Wait(ctx); err != nil || st != StatusCompleted {
		return fmt.Errorf("pre: status %s, %v", st, err)
	}
	hold := &Request{Name: "hold", DimMin: 2, DimMax: 4, Protocols: []string{core.Cloning}}
	b, err := srv.Submit(hold)
	if err != nil {
		return err
	}
	// Same runs as "pre": after restart this must be served entirely
	// from the journal-warmed cache.
	rePre := *pre
	rePre.Name = "re-pre"
	cCamp, err := srv.Submit(&rePre)
	if err != nil {
		return err
	}
	fresh := &Request{Name: "fresh", DimMin: 2, DimMax: 5, Protocols: []string{core.Synchronous}, Seeds: []int64{9}}
	dCamp, err := srv.Submit(fresh)
	if err != nil {
		return err
	}
	rep.Submitted += 4

	select {
	case <-g.started: // "hold" is now in-flight on the only executor
	case <-ctx.Done():
		return fmt.Errorf("hold never started")
	}
	drainErr := make(chan error, 1)
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	go func() { drainErr <- srv.Drain(dctx) }()
	for !srv.Stats().Draining {
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Submit(pre); err != ErrDraining {
		return fmt.Errorf("submit while draining: want ErrDraining, got %v", err)
	}
	rep.DrainReject++
	close(g.release) // let the in-flight campaign finish; drain completes
	if err := <-drainErr; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if st := b.status(); st != StatusCompleted {
		return fmt.Errorf("hold after graceful drain: want completed, got %s", st)
	}
	rep.Completed += 2 // pre + hold
	for _, c := range []*Campaign{cCamp, dCamp} {
		if st := c.status(); st != StatusQueued {
			return fmt.Errorf("%s at drain: want queued, got %s", c.req.Name, st)
		}
		rep.Interrupted++
	}
	if err := srv.Close(); err != nil {
		return err
	}

	// Restart on the same journal: the two interrupted campaigns are
	// re-run (determinism makes the re-run the resume), the completed
	// ones are served from the journal without re-simulation.
	srv2, err := NewServer(Config{
		JournalPath: journal,
		MaxActive:   1,
		QueueDepth:  8,
		Workers:     1,
		MaxDim:      cfg.MaxDim,
		Logf:        cfg.Logf,
	})
	if err != nil {
		return err
	}
	if got := srv2.Stats().Recovered; got != 2 {
		return fmt.Errorf("restart: want 2 recovered campaigns, got %d", got)
	}
	rep.Recovered += 2
	for _, idReq := range []struct {
		id  string
		req *Request
	}{{cCamp.ID(), &rePre}, {dCamp.ID(), fresh}} {
		c2, ok := srv2.Get(idReq.id)
		if !ok {
			return fmt.Errorf("restart: campaign %s not recovered", idReq.id)
		}
		if st, err := c2.Wait(ctx); err != nil || st != StatusCompleted {
			return fmt.Errorf("recovered %s: status %s, %v", idReq.id, st, err)
		}
		if err := checkIdentity(idReq.req, c2.Records()); err != nil {
			return fmt.Errorf("recovered %s: %w", idReq.id, err)
		}
		rep.Identity++
		rep.Runs += len(c2.Records())
		rep.Completed++
	}
	// "re-pre" duplicates "pre", whose records the journal replay
	// warmed into the cache — its re-run must be pure cache hits.
	if hits, _ := srv2.Cache().Stats(); hits < int64(cCamp.Runs()) {
		return fmt.Errorf("restart: want >= %d warmed-cache hits, got %d", cCamp.Runs(), hits)
	}
	// And the journal-replayed records themselves match serial.
	a2, ok := srv2.Get(a.ID())
	if !ok || a2.status() != StatusCompleted {
		return fmt.Errorf("restart: completed campaign %s not served from journal", a.ID())
	}
	if err := checkIdentity(pre, a2.Records()); err != nil {
		return fmt.Errorf("journal-replayed %s: %w", a.ID(), err)
	}
	rep.Identity++

	hits, misses := srv2.Cache().Stats()
	rep.CacheHits += hits
	rep.CacheMisses += misses
	if err := srv2.Drain(dctx); err != nil {
		return fmt.Errorf("drain 2: %w", err)
	}
	return srv2.Close()
}

// loadPhaseCompaction runs the same campaign mix through two
// journalled servers — one compacting aggressively (auto-threshold
// 0.9 plus concurrent POST /compact over HTTP), one never compacting —
// then restarts both and proves the compacted journal replays to the
// same campaigns, byte-identical to the uncompacted twin and to the
// serial batch path, while keeping strictly fewer records on disk.
func loadPhaseCompaction(cfg LoadConfig, rep *LoadReport) error {
	jA := filepath.Join(cfg.Dir, "load-compact-a.jsonl")
	jB := filepath.Join(cfg.Dir, "load-compact-b.jsonl")
	mk := func(path string, threshold float64) (*Server, error) {
		return NewServer(Config{
			JournalPath:      path,
			CompactThreshold: threshold,
			MaxActive:        2,
			QueueDepth:       16,
			Workers:          1,
			MaxDim:           cfg.MaxDim,
			Logf:             cfg.Logf,
		})
	}
	srvA, err := mk(jA, 0.9) // compacts almost every time a completion lands
	if err != nil {
		return err
	}
	srvB, err := mk(jB, -1) // the uncompacted twin
	if err != nil {
		return err
	}
	base, shutdown, err := serveHTTP(srvA)
	if err != nil {
		return err
	}
	defer shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := &http.Client{}

	const n = 8
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{Name: fmt.Sprintf("cmp-%d", i), DimMin: 2, DimMax: 4,
			Protocols: []string{core.Visibility}, Seeds: []int64{int64(i + 1)}}
	}

	// The compacting twin takes the whole mix at once over HTTP, with
	// explicit compactions racing the submissions.
	idsA := make([]string, n)
	var wg sync.WaitGroup
	errc := make(chan error, n+3)
	for i, q := range reqs {
		wg.Add(1)
		go func(i int, q *Request) {
			defer wg.Done()
			id, code, err := postCampaign(client, base, q)
			if err != nil || code != http.StatusAccepted {
				errc <- fmt.Errorf("submitting %s: HTTP %d, %v", q.Name, code, err)
				return
			}
			idsA[i] = id
			status, runs, err := streamCampaign(client, base, id)
			if err != nil || status != StatusCompleted {
				errc <- fmt.Errorf("%s: status %s, %v", q.Name, status, err)
				return
			}
			rep.addStreamRuns(runs)
		}(i, q)
	}
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := client.Post(base+"/compact", "", nil)
			if err != nil {
				errc <- fmt.Errorf("POST /compact #%d: %w", k, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("POST /compact #%d: HTTP %d", k, resp.StatusCode)
				return
			}
			var cr CompactResult
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				errc <- fmt.Errorf("POST /compact #%d: decoding result: %w", k, err)
			}
		}(k)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}
	rep.Submitted += n
	rep.Completed += n

	// The uncompacted twin takes the identical mix.
	campB := make([]*Campaign, n)
	for i, q := range reqs {
		c, err := srvB.Submit(q)
		if err != nil {
			return fmt.Errorf("twin submitting %s: %w", q.Name, err)
		}
		campB[i] = c
	}
	for i, c := range campB {
		if st, err := c.Wait(ctx); err != nil || st != StatusCompleted {
			return fmt.Errorf("twin %s: status %s, %v", reqs[i].Name, st, err)
		}
	}
	rep.Submitted += n
	rep.Completed += n

	stA := srvA.Stats()
	if stA.Journal == nil || stA.Journal.Compactions == 0 {
		return fmt.Errorf("compacting twin never compacted: %+v", stA.Journal)
	}
	rep.Compactions += stA.Journal.Compactions

	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	for name, s := range map[string]*Server{"A": srvA, "B": srvB} {
		if err := s.Drain(dctx); err != nil {
			return fmt.Errorf("drain %s: %w", name, err)
		}
		if err := s.Close(); err != nil {
			return fmt.Errorf("close %s: %w", name, err)
		}
	}

	// On disk, compaction must have actually saved records.
	recA, err := countJournalRecords(jA)
	if err != nil {
		return err
	}
	recB, err := countJournalRecords(jB)
	if err != nil {
		return err
	}
	if recA >= recB {
		return fmt.Errorf("compacted journal holds %d records, uncompacted twin %d", recA, recB)
	}
	rep.CompactSaved += recB - recA

	// Restart both and compare what they serve, campaign by campaign.
	srvA2, err := mk(jA, -1)
	if err != nil {
		return fmt.Errorf("reopening compacted journal: %w", err)
	}
	srvB2, err := mk(jB, -1)
	if err != nil {
		return fmt.Errorf("reopening uncompacted journal: %w", err)
	}
	if got := srvA2.Stats().Recovered; got != 0 {
		return fmt.Errorf("compacted journal resurrected %d campaigns as unfinished", got)
	}
	for i := range reqs {
		a2, ok := srvA2.Get(idsA[i])
		if !ok || a2.status() != StatusCompleted {
			return fmt.Errorf("%s not served completed from the compacted journal", reqs[i].Name)
		}
		b2, ok := srvB2.Get(campB[i].ID())
		if !ok || b2.status() != StatusCompleted {
			return fmt.Errorf("%s not served completed from the uncompacted journal", reqs[i].Name)
		}
		aj, _ := json.Marshal(a2.Records())
		bj, _ := json.Marshal(b2.Records())
		if !bytes.Equal(aj, bj) {
			return fmt.Errorf("%s diverges across the twins:\ncompacted:   %s\nuncompacted: %s", reqs[i].Name, aj, bj)
		}
		if err := checkIdentity(reqs[i], a2.Records()); err != nil {
			return fmt.Errorf("%s from compacted journal: %w", reqs[i].Name, err)
		}
		rep.Identity++
		rep.Runs += len(a2.Records())
	}
	for name, s := range map[string]*Server{"A2": srvA2, "B2": srvB2} {
		if err := s.Drain(dctx); err != nil {
			return fmt.Errorf("drain %s: %w", name, err)
		}
		if err := s.Close(); err != nil {
			return fmt.Errorf("close %s: %w", name, err)
		}
	}
	return nil
}

func countJournalRecords(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	entries, skipped, err := ReadEntries(f)
	if err != nil {
		return 0, err
	}
	if skipped != 0 {
		return 0, fmt.Errorf("journal %s: %d torn records after clean shutdown", path, skipped)
	}
	return len(entries), nil
}

// loadPhaseEviction drives campaigns much larger than the cache budget
// through bounded caches — entry-bounded first, then byte-bounded —
// and checks that eviction never bends correctness: a verbatim
// duplicate campaign re-simulates whatever was evicted and still lands
// byte-identical to the serial batch path.
func loadPhaseEviction(cfg LoadConfig, rep *LoadReport) error {
	const budget = 6
	srv, err := NewServer(Config{
		MaxActive:       2,
		QueueDepth:      8,
		Workers:         1,
		MaxDim:          cfg.MaxDim,
		CacheMaxEntries: budget,
		Logf:            cfg.Logf,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	big := &Request{Name: "evict", DimMin: 2, DimMax: cfg.MaxDim,
		Protocols: []string{core.Visibility, core.Cloning}, Seeds: []int64{11, 12}}
	first, err := srv.Submit(big)
	if err != nil {
		return err
	}
	if st, err := first.Wait(ctx); err != nil || st != StatusCompleted {
		return fmt.Errorf("evict: status %s, %v", st, err)
	}
	dup := *big
	dup.Name = "evict-again"
	second, err := srv.Submit(&dup)
	if err != nil {
		return err
	}
	if st, err := second.Wait(ctx); err != nil || st != StatusCompleted {
		return fmt.Errorf("evict-again: status %s, %v", st, err)
	}
	rep.Submitted += 2
	rep.Completed += 2
	for _, c := range []*Campaign{first, second} {
		if err := checkIdentity(big, c.Records()); err != nil {
			return fmt.Errorf("%s under eviction: %w", c.req.Name, err)
		}
		rep.Identity++
		rep.Runs += len(c.Records())
	}
	if got := srv.Cache().Len(); got > budget {
		return fmt.Errorf("cache holds %d entries past its budget of %d", got, budget)
	}
	ev := srv.Cache().Evictions()
	if ev == 0 {
		return fmt.Errorf("%d-run campaigns against a %d-entry cache never evicted", first.Runs(), budget)
	}
	rep.Evicted += ev
	hits, misses := srv.Cache().Stats()
	rep.CacheHits += hits
	rep.CacheMisses += misses
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Close(); err != nil {
		return err
	}

	// Byte-budget variant: a 1 KiB cache against a multi-run sweep.
	srvB, err := NewServer(Config{
		MaxActive:     1,
		QueueDepth:    8,
		Workers:       1,
		MaxDim:        cfg.MaxDim,
		CacheMaxBytes: 1 << 10,
		Logf:          cfg.Logf,
	})
	if err != nil {
		return err
	}
	small := &Request{Name: "evict-bytes", DimMin: 2, DimMax: cfg.MaxDim,
		Protocols: []string{core.Visibility}, Seeds: []int64{13}}
	c, err := srvB.Submit(small)
	if err != nil {
		return err
	}
	if st, err := c.Wait(ctx); err != nil || st != StatusCompleted {
		return fmt.Errorf("evict-bytes: status %s, %v", st, err)
	}
	if err := checkIdentity(small, c.Records()); err != nil {
		return fmt.Errorf("evict-bytes: %w", err)
	}
	rep.Submitted++
	rep.Completed++
	rep.Identity++
	rep.Runs += len(c.Records())
	if ev := srvB.Cache().Evictions(); ev == 0 {
		return fmt.Errorf("byte-bounded cache never evicted at %d resident bytes", srvB.Cache().Bytes())
	} else {
		rep.Evicted += ev
	}
	if err := srvB.Drain(dctx); err != nil {
		return fmt.Errorf("drain bytes: %w", err)
	}
	return srvB.Close()
}

// --- harness plumbing ---

var streamRunsMu sync.Mutex

func (r *LoadReport) addStreamRuns(n int) {
	streamRunsMu.Lock()
	r.StreamRuns += n
	streamRunsMu.Unlock()
}

// serveHTTP serves s.Handler() on an ephemeral localhost port.
func serveHTTP(s *Server) (base string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("loadtest: listen: %w", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}, nil
}

func postCampaign(client *http.Client, base string, q *Request) (id string, code int, err error) {
	body, err := json.Marshal(q)
	if err != nil {
		return "", 0, err
	}
	resp, err := client.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, nil
	}
	var sn Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		return "", resp.StatusCode, err
	}
	return sn.ID, resp.StatusCode, nil
}

// streamCampaign consumes one campaign's JSONL progress stream to its
// terminal event, returning the final status and run-event count.
func streamCampaign(client *http.Client, base, id string) (status string, runs int, err error) {
	resp, err := client.Get(base + "/campaigns/" + id + "/stream")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return "", runs, fmt.Errorf("stream: bad event line: %w", err)
		}
		switch e.Type {
		case "run":
			runs++
		case "done":
			return e.Status, runs, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", runs, err
	}
	return "", runs, fmt.Errorf("stream ended without a done event")
}

// checkIdentity asserts a completed campaign's records are byte-
// identical (as canonical JSON) to the serial batch path's.
func checkIdentity(q *Request, got []RunRecord) error {
	want, err := SerialRecords(q)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wj, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gj, wj) {
		return fmt.Errorf("records diverge from the serial batch path:\nservice: %s\nserial:  %s", gj, wj)
	}
	return nil
}

func idOf(ids []string, reqs []*Request, name string) string {
	for i, q := range reqs {
		if q.Name == name {
			return ids[i]
		}
	}
	return ""
}
