package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hypersearch/internal/core"
	"hypersearch/internal/faults"
	"hypersearch/internal/serve"
)

// mixParams shapes a seeded campaign mix.
type mixParams struct {
	desProtocols, netProtocols []string
	dimMin, dimMax, netDimMax  int // DES dimensions [dimMin, dimMax]; network ones up to netDimMax
	maxDimSpan                 int // dim_max - dim_min of one campaign is at most this
	maxProtocols, maxSeeds     int
	seedPool                   int   // run seeds are drawn from 1..seedPool, so campaigns share keys
	maxLatency                 int64 // adversarial latency is drawn from 1..maxLatency
	networkShare, repeatShare  float64
	faultShare, latencyShare   float64
}

// serveDef is a service workload: an open loop of campaigns at a fixed
// rate, driven into serve.Server.Handler() in process.
type serveDef struct {
	name         string
	rate         float64       // campaigns per second
	history      int           // completed campaigns pre-populated in the journal
	cacheEntries int           // result-cache entry budget, below the mix's distinct keys
	limit        time.Duration // latency limit of one campaign, due to done; about 1.25 times the measured p90
	mix          mixParams
}

func serveMixed() workload {
	d := serveMixedDef()
	return workload{name: d.name, run: d.run, setup: d.setupProbe}
}

// serveMixedDef is the serve-mixed workload. Its traffic shares are
// chosen, not taken from recorded traffic (the repository has none);
// README.md gives the reason for each.
func serveMixedDef() serveDef {
	return serveDef{
		name: "serve-mixed", rate: 30, history: 600, cacheEntries: 256, limit: 15 * time.Millisecond,
		mix: mixParams{
			desProtocols: []string{core.Clean, core.Visibility, core.Cloning, core.Synchronous},
			netProtocols: []string{core.Visibility, core.Clean, core.Cloning},
			dimMin:       2, dimMax: 9, netDimMax: 6, maxDimSpan: 2,
			maxProtocols: 3, maxSeeds: 3, seedPool: 6, maxLatency: 13,
			networkShare: 0.15, repeatShare: 0.25, faultShare: 0.15, latencyShare: 0.25,
		},
	}
}

// probeSession measures the service layer for a sweep's traced run: a
// short, low-rate mix of campaigns of the sweep's own strategy. The
// sweep itself never passes through the service, so these are probe
// figures, not the sweep's.
func probeSession(opt options, strategy string) (*sessionOut, error) {
	d := serveDef{
		name: "serve-probe", rate: 20, history: 20, cacheEntries: 16, limit: time.Second,
		mix: mixParams{
			desProtocols: []string{strategy}, netProtocols: []string{strategy},
			dimMin: 4, dimMax: 9, netDimMax: 6, maxDimSpan: 2,
			maxProtocols: 1, maxSeeds: 3, seedPool: 6, maxLatency: 13,
			networkShare: 0.3, repeatShare: 0.3, faultShare: 0.2, latencyShare: 0.3,
		},
	}
	seconds := 2.0
	if opt.seconds < seconds {
		seconds = opt.seconds
	}
	s, err := newSession(d, opt, seconds)
	if err != nil {
		return nil, err
	}
	defer os.Remove(s.historyPath())
	return s.measure(nil)
}

// plan is one generated campaign: its request and the exact body sent.
type plan struct {
	req  *serve.Request
	body []byte
}

// spikePlan and lossyPlan are the fault plans the mix draws from: a
// DES latency spike and a network link drop.
func spikePlan() *faults.Plan {
	return &faults.Plan{Name: "spike", Seed: 1, Faults: []faults.Fault{
		{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 3, Until: 6, Delay: 4},
	}}
}

func lossyPlan() *faults.Plan {
	return &faults.Plan{Name: "lossy", Seed: 2, Faults: []faults.Fault{
		{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, 1), At: 1, Until: 4, Times: 1},
	}}
}

// dealer deals a mix's draws from shuffled decks. A deck holds each of
// its cards once and is reshuffled every pass, so every seed's mix has
// nearly the same composition — how many campaigns of each engine,
// dimension range and size, how many repeats — and with it the same
// cost distribution, which keeps the tails comparable across seeds. The
// seed picks the order and the protocols, seeds and latencies named.
type dealer struct {
	rng   *rand.Rand
	decks map[string][]int // name -> cards, the next one last
}

// draw deals the next card, in [0, n), of the deck called name.
func (d *dealer) draw(name string, n int) int {
	cards := d.decks[name]
	if len(cards) == 0 {
		cards = d.rng.Perm(n)
	}
	c := cards[len(cards)-1]
	d.decks[name] = cards[:len(cards)-1]
	return c
}

// dealShare reports whether this deal falls among the first share of a
// 20-card deck: exactly round(20*share) of every 20 deals do.
func (d *dealer) dealShare(name string, share float64) bool {
	return d.draw(name, 20) < int(math.Round(20*share))
}

// newRequest deals one fresh campaign. Its shape — engine, first
// dimension, dimension span, protocol and seed counts — comes from one
// deck per engine holding every combination once.
func (p mixParams) newRequest(dl *dealer, name string) *serve.Request {
	q := &serve.Request{Name: name}
	protos, dimMax, deck := p.desProtocols, p.dimMax, "des"
	if len(p.netProtocols) > 0 && dl.dealShare("engine", p.networkShare) {
		q.Engine, protos, dimMax, deck = serve.EngineNetwork, p.netProtocols, p.netDimMax, "network"
	}
	dims, spans, nprot := dimMax-p.dimMin+1, p.maxDimSpan+1, min(p.maxProtocols, len(protos))
	c := dl.draw(deck, dims*spans*nprot*p.maxSeeds)
	q.DimMin = p.dimMin + c%dims
	c /= dims
	q.DimMax = min(dimMax, q.DimMin+c%spans)
	c /= spans
	for _, i := range dl.rng.Perm(len(protos))[:1+c%nprot] {
		q.Protocols = append(q.Protocols, protos[i])
	}
	for _, s := range dl.rng.Perm(p.seedPool)[:1+c/nprot] {
		q.Seeds = append(q.Seeds, int64(s+1))
	}
	// The network engine's adversarial latency is real sleeping, which
	// times the host's timers rather than the program, so only DES
	// campaigns draw one.
	if dl.dealShare("latency", p.latencyShare) && q.Engine != serve.EngineNetwork {
		q.AdversarialLatency = 1 + dl.rng.Int63n(p.maxLatency)
	}
	if dl.dealShare("fault", p.faultShare) && faultable(q) {
		if q.Engine == serve.EngineNetwork {
			q.Faults = lossyPlan()
		} else {
			q.Faults = spikePlan()
		}
	}
	return q
}

// faultable reports whether every protocol of q tolerates the mix's
// fault plan on q's engine: the synchronous variant assumes unit
// latency, so only the combinations the service's own load test runs
// (clean and visibility on the DES, visibility on the network) get one.
func faultable(q *serve.Request) bool {
	for _, p := range q.Protocols {
		if p != core.Visibility && (p != core.Clean || q.Engine == serve.EngineNetwork) {
			return false
		}
	}
	return true
}

// genPlans deals the pre-populated history and the measured mix from
// the workload seed. A repeatShare of the mix re-sends an earlier
// campaign (of the history or the mix) byte for byte.
func (p mixParams) genPlans(seed int64, history, n int) (hist, mix []*plan, err error) {
	mk := func(q *serve.Request) (*plan, error) {
		b, err := json.Marshal(q)
		return &plan{req: q, body: b}, err
	}
	hd := &dealer{rng: rand.New(rand.NewSource(deriveSeed(seed, 1))), decks: map[string][]int{}}
	for i := 0; i < history; i++ {
		pl, err := mk(p.newRequest(hd, fmt.Sprintf("history-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		hist = append(hist, pl)
	}
	md := &dealer{rng: rand.New(rand.NewSource(deriveSeed(seed, 2))), decks: map[string][]int{}}
	for i := 0; i < n; i++ {
		if earlier := len(hist) + len(mix); earlier > 0 && md.dealShare("repeat", p.repeatShare) {
			k := md.rng.Intn(earlier)
			if k < len(hist) {
				mix = append(mix, hist[k])
			} else {
				mix = append(mix, mix[k-len(hist)])
			}
			continue
		}
		pl, err := mk(p.newRequest(md, fmt.Sprintf("mix-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		mix = append(mix, pl)
	}
	return hist, mix, nil
}

// warmUpSeed lies outside every mix's seed pool, so warm-up runs warm
// environments without pre-filling the cache with the mix's keys.
const warmUpSeed = 1 << 40

// warmUp runs one campaign per engine over every protocol and
// dimension of the mix through the handler, so each executor's pools
// are built before the window opens.
func (p mixParams) warmUp(h http.Handler) error {
	reqs := []*serve.Request{{Name: "warm-up-des", DimMin: p.dimMin, DimMax: p.dimMax, Protocols: p.desProtocols, Seeds: []int64{warmUpSeed}}}
	if len(p.netProtocols) > 0 {
		reqs = append(reqs, &serve.Request{Name: "warm-up-net", Engine: serve.EngineNetwork, DimMin: p.dimMin, DimMax: p.netDimMax, Protocols: p.netProtocols, Seeds: []int64{warmUpSeed}})
	}
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, q := range reqs {
		body, err := json.Marshal(q)
		if err != nil {
			return err
		}
		c := &campaignRun{plan: &plan{req: q, body: body}, due: time.Now()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.do(h, nil)
			if ev := c.parse(); ev.status != serve.StatusCompleted {
				errs[i] = fmt.Errorf("warm-up campaign %s: code %d, status %q", q.Name, c.code, ev.status)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// session is one service measurement: generated inputs, a journal and
// the serial references.
type session struct {
	def        serveDef
	opt        options
	hist, mix  []*plan
	refs       map[string][]byte // request body -> marshaled serve.SerialRecords
	refRecords map[string][]serve.RunRecord
}

// newSession generates the session's inputs for a window of seconds
// and writes its pre-populated journal.
func newSession(d serveDef, opt options, seconds float64) (*session, error) {
	s := &session{def: d, opt: opt, refs: map[string][]byte{}, refRecords: map[string][]serve.RunRecord{}}
	var err error
	if s.hist, s.mix, err = d.mix.genPlans(opt.seed, d.history, max(1, int(d.rate*seconds))); err != nil {
		return nil, err
	}
	return s, s.writeHistory()
}

func (s *session) historyPath() string {
	return filepath.Join(s.opt.out, fmt.Sprintf("%s-history-seed%d.jsonl", s.def.name, s.opt.seed))
}

// computeReferences fills in the serial records of every plan not yet
// referenced, each distinct request once, in child processes.
func (s *session) computeReferences(plans []*plan) error {
	var bodies [][]byte
	for _, p := range plans {
		if _, ok := s.refs[string(p.body)]; !ok {
			s.refs[string(p.body)] = nil
			bodies = append(bodies, p.body)
		}
	}
	refs, err := serialReferences(bodies)
	if err != nil {
		return err
	}
	for i, b := range bodies {
		var recs []serve.RunRecord
		if err := json.Unmarshal(refs[i], &recs); err != nil {
			return fmt.Errorf("reference %d: %w", i, err)
		}
		s.refs[string(b)], s.refRecords[string(b)] = refs[i], recs
	}
	return nil
}

// writeHistory writes the pre-populated journal: every history
// campaign accepted and completed with its serial records, in the
// journal's own entry format, synced once.
func (s *session) writeHistory() error {
	if err := s.computeReferences(s.hist); err != nil {
		return err
	}
	f, err := os.Create(s.historyPath())
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, p := range s.hist {
		recs := s.refRecords[string(p.body)]
		id := fmt.Sprintf("c%d", i)
		q := *p.req
		q.Normalize()
		for _, e := range []serve.Entry{
			{Type: serve.EntryAccepted, ID: id, Req: &q},
			{Type: serve.EntryCompleted, ID: id, Status: serve.StatusCompleted, Runs: recs},
		} {
			if err := enc.Encode(e); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// start is the service's set-up: open and replay the journal, warm the
// cache from it, and start the executors.
func (d serveDef) start(journal string) (*serve.Server, time.Duration, error) {
	start := time.Now()
	srv, err := serve.NewServer(serve.Config{JournalPath: journal, CacheMaxEntries: d.cacheEntries})
	return srv, time.Since(start), err
}

// stop drains and closes a server.
func stop(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := srv.Drain(ctx)
	if err := srv.Close(); err != nil {
		return err
	}
	return derr
}

// scratchJournal copies the history journal to a fresh path for one
// server and returns it with a cleanup that removes the copy and its
// lock file.
func (s *session) scratchJournal(tag string) (string, func(), error) {
	path := filepath.Join(s.opt.out, fmt.Sprintf("%s-%s-%d.jsonl", s.def.name, tag, os.Getpid()))
	if err := copyFile(s.historyPath(), path); err != nil {
		return "", nil, err
	}
	return path, func() { os.Remove(path); os.Remove(path + ".lock") }, nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// setupProbe is one cold set-up in a child process, on a copy of the
// history journal the parent wrote.
func (d serveDef) setupProbe(opt options) (time.Duration, error) {
	s := &session{def: d, opt: opt}
	path, cleanup, err := s.scratchJournal("setup")
	if err != nil {
		return 0, err
	}
	defer cleanup()
	srv, t, err := d.start(path)
	if err != nil {
		return 0, err
	}
	return t, stop(srv)
}

// chunk is one flushed piece of a stream: body[lo:hi], flushed at at.
type chunk struct {
	at     time.Time
	lo, hi int
}

// flushRecorder is an httptest.ResponseRecorder whose Flush
// timestamps every flushed chunk.
type flushRecorder struct {
	*httptest.ResponseRecorder
	chunks []chunk
}

func (f *flushRecorder) Flush() {
	lo := 0
	if n := len(f.chunks); n > 0 {
		lo = f.chunks[n-1].hi
	}
	f.chunks = append(f.chunks, chunk{at: time.Now(), lo: lo, hi: f.Body.Len()})
}

// campaignRun is one campaign as its client saw it.
type campaignRun struct {
	plan   *plan
	due    time.Time
	traced bool
	idx    int
	code   int // POST status
	ack    time.Time
	stream flushRecorder
}

// do submits the campaign and follows its stream to the end. Traced
// campaigns record a span around each handler call.
func (c *campaignRun) do(h http.Handler, tr *tracer) {
	if !c.traced {
		tr = nil
	}
	root := tr.begin("campaign", c.idx, -1, -1)
	defer func() { tr.end(root, 0) }()
	sp := tr.begin("serve.submit", c.idx, root, -1)
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(c.plan.body)))
	c.ack = time.Now()
	c.code = post.Code
	tr.end(sp, 0)
	if post.Code != http.StatusAccepted {
		return
	}
	var snap serve.Snapshot
	if err := json.Unmarshal(post.Body.Bytes(), &snap); err != nil {
		c.code = -1
		return
	}
	sp = tr.begin("serve.stream", c.idx, root, -1)
	c.stream.ResponseRecorder = httptest.NewRecorder()
	h.ServeHTTP(&c.stream, httptest.NewRequest(http.MethodGet, "/campaigns/"+snap.ID+"/stream", nil))
	tr.end(sp, int64(len(c.stream.chunks)))
}

// streamView is a parsed stream.
type streamView struct {
	running, firstRun, done time.Time
	status                  string
	records                 []serve.RunRecord
	bytes, runs, cached     int
}

func (c *campaignRun) parse() streamView {
	var v streamView
	if c.stream.ResponseRecorder == nil {
		return v
	}
	body := c.stream.Body.Bytes()
	for _, ch := range c.stream.chunks {
		var ev serve.StreamEvent
		if json.Unmarshal(body[ch.lo:ch.hi], &ev) != nil {
			v.status = "unparsable stream"
			return v
		}
		v.bytes += ch.hi - ch.lo
		switch ev.Type {
		case "status":
			if ev.Status == serve.StatusRunning && v.running.IsZero() {
				v.running = ch.at
			}
		case "run":
			if ev.Run == nil || ev.Index < 0 || ev.Index >= ev.Total {
				v.status = "malformed run event"
				return v
			}
			if v.records == nil {
				v.records = make([]serve.RunRecord, ev.Total)
				v.firstRun = ch.at
			}
			if ev.Run.Cached {
				v.cached++
			}
			rec := *ev.Run
			rec.Cached = false // presentation only; the reference has none
			v.records[ev.Index] = rec
			v.runs++
		case "done":
			v.done, v.status = ch.at, ev.Status
		}
	}
	return v
}

// drive sends the plans open-loop at the definition's rate, each
// timed from its due time, and waits for every campaign to finish.
// It returns how late the generator ran at worst.
func (d serveDef) drive(h http.Handler, plans []*plan, tr *tracer) ([]*campaignRun, time.Duration) {
	interval := time.Duration(float64(time.Second) / d.rate)
	runs := make([]*campaignRun, len(plans))
	var (
		wg      sync.WaitGroup
		maxLate time.Duration
	)
	start := time.Now()
	for i, p := range plans {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(due); late > maxLate {
			maxLate = late
		}
		c := &campaignRun{plan: p, due: due, traced: tr != nil && i%2 == 1, idx: i}
		runs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.do(h, tr)
		}()
	}
	wg.Wait()
	return runs, maxLate
}

// sessionOut is what one service measurement produced.
type sessionOut struct {
	win               window
	attempted, failed int
	metrics           map[string]float64 // per-layer serve.*, netsim.*, gen.* metrics
	maxLate           time.Duration
	rssMB             float64
	goBefore, goAfter goStats
	slowest           []string // the slowest answered campaigns, for the report
}

// measure runs the session's window against a server set up on a copy
// of the history journal, then checks every campaign against its
// serial reference and probes the journal and request parsing.
func (s *session) measure(tr *tracer) (*sessionOut, error) {
	path, cleanup, err := s.scratchJournal("run")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	srv, _, err := s.def.start(path)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	// Warm the executors' pools before the window: a daemon pays that
	// once, not per request.
	if err := s.def.mix.warmUp(h); err != nil {
		stop(srv)
		return nil, err
	}
	out := &sessionOut{metrics: map[string]float64{}}
	st0 := srv.Stats()
	out.goBefore = readGoStats()
	runs, maxLate := s.def.drive(h, s.mix, tr)
	out.goAfter = readGoStats()
	out.rssMB = peakRSSMB()
	st1 := srv.Stats()
	limits := srv.Limits()
	if err := stop(srv); err != nil {
		return nil, err
	}
	out.maxLate = maxLate
	if err := s.computeReferences(s.mix); err != nil {
		return nil, err
	}

	m := out.metrics
	var (
		queue, exec               []float64
		streamBytes, streamRuns   int
		flushes, refused          int
		netMessages, netWire, net float64
	)
	for _, c := range runs {
		out.attempted++
		r := request{due: c.due, ack: c.ack, traced: c.traced}
		v := c.parse()
		if c.code == http.StatusAccepted && !v.done.IsZero() {
			r.answered, r.firstRun, r.done = true, v.firstRun, v.done
			queue = append(queue, ms(v.running.Sub(c.ack)))
			exec = append(exec, ms(v.done.Sub(v.running)))
			streamBytes += v.bytes
			streamRuns += v.runs
			flushes += len(c.stream.chunks)
			// A campaign's runs share its executor's workers, so the
			// service's run time is executor time per run, over the
			// campaigns that simulated every run.
			if v.cached == 0 && v.runs > 0 {
				out.win.runMS = append(out.win.runMS, ms(v.done.Sub(v.running))/float64(v.runs))
			}
			out.win.runs += v.runs
			// The service's throughput is runs per executor-second, so
			// it reflects the server's speed, not the offered load.
			out.win.elapsed += v.done.Sub(v.running)
			if tr != nil && c.traced {
				tr.add("serve.queue", c.idx, -1, -1, c.ack, v.running, 0)
				tr.add("serve.exec", c.idx, -1, -1, v.running, v.done, int64(v.runs))
			}
		}
		if c.code == http.StatusTooManyRequests || c.code == http.StatusServiceUnavailable {
			refused++
		}
		ref, refRecs := s.refs[string(c.plan.body)], s.refRecords[string(c.plan.body)]
		got, err := json.Marshal(v.records)
		r.ok = r.answered && v.status == serve.StatusCompleted && err == nil && bytes.Equal(got, ref)
		if !r.ok {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s campaign %d (%s): code %d, status %q, matches reference %v\n",
				s.def.name, c.idx, c.plan.req.Name, c.code, v.status, bytes.Equal(got, ref))
		}
		for _, rec := range refRecs {
			if rec.Net != nil {
				net++
				netMessages += float64(rec.Net.AgentMessages + rec.Net.BeaconMessages)
				netWire += float64(rec.Net.Link.WireTime)
			}
		}
		out.win.reqs = append(out.win.reqs, r)
	}
	out.slowest = slowest(runs, 5)

	qt, et := tailQuantile(len(queue)), tailQuantile(len(exec))
	m["serve.queue_ms.p50"], m["serve.queue_ms.tail"] = quantile(queue, 0.5), quantile(queue, qt)
	m["serve.exec_ms.p50"], m["serve.exec_ms.tail"] = quantile(exec, 0.5), quantile(exec, et)
	m["serve.refused"] = float64(refused)
	hits, misses := float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheMisses-st0.CacheMisses)
	m["serve.cache_hit_share"] = share(hits, hits+misses)
	m["serve.cache_evictions"] = float64(st1.CacheEvictions - st0.CacheEvictions)
	m["serve.stream_bytes_per_run"] = share(float64(streamBytes), float64(streamRuns))
	m["serve.flushes_per_campaign"] = share(float64(flushes), float64(len(queue)))
	m["serve.journal_records"] = float64(st1.Journal.Records)
	m["serve.compactions"] = float64(st1.Journal.Compactions - st0.Journal.Compactions)
	m["netsim.messages_per_run"] = share(netMessages, net)
	m["netsim.wiretime"] = share(netWire, net)
	m["gen.late_ms.max"] = ms(maxLate)
	if err := s.journalProbes(m, runs); err != nil {
		return nil, err
	}
	parseProbe(m, s.mix, limits)
	return out, nil
}

// slowest describes the n answered campaigns with the longest due-to-
// done latency.
func slowest(runs []*campaignRun, n int) []string {
	type done struct {
		c  *campaignRun
		ms float64
	}
	var ds []done
	for _, c := range runs {
		if v := c.parse(); !v.done.IsZero() {
			ds = append(ds, done{c, ms(v.done.Sub(c.due))})
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].ms > ds[j].ms })
	var out []string
	for _, d := range ds[:min(n, len(ds))] {
		out = append(out, fmt.Sprintf("%.1f ms: #%d %s", d.ms, d.c.idx, d.c.plan.body))
	}
	return out
}

// journalProbes time the journal in the serving directory: replaying
// the pre-populated history journal, and fsync'd appends of completion
// entries the size of the window's own.
func (s *session) journalProbes(m map[string]float64, runs []*campaignRun) error {
	path, cleanup, err := s.scratchJournal("probe")
	if err != nil {
		return err
	}
	defer cleanup()
	var openErr error
	m["serve.journal_replay_ms"] = medianOf(func() float64 {
		start := time.Now()
		j, _, _, err := serve.OpenJournal(path)
		t := ms(time.Since(start))
		if err != nil {
			openErr = err
			return t
		}
		if err := j.Close(); err != nil {
			openErr = err
		}
		return t
	})
	if openErr != nil {
		return openErr
	}

	appendPath := path + ".append"
	defer func() { os.Remove(appendPath); os.Remove(appendPath + ".lock") }()
	j, _, _, err := serve.OpenJournal(appendPath)
	if err != nil {
		return err
	}
	var appends []float64
	for _, c := range runs {
		if len(appends) == 200 {
			break
		}
		v := c.parse()
		if v.status != serve.StatusCompleted {
			continue
		}
		e := serve.Entry{Type: serve.EntryCompleted, ID: fmt.Sprintf("c%d", c.idx), Status: v.status, Runs: v.records}
		start := time.Now()
		if err := j.Append(e); err != nil {
			j.Close()
			return err
		}
		appends = append(appends, ms(time.Since(start)))
	}
	if err := j.Close(); err != nil {
		return err
	}
	m["serve.journal_append_ms.p50"] = quantile(appends, 0.5)
	m["serve.journal_append_ms.tail"] = quantile(appends, tailQuantile(len(appends)))
	return nil
}

// parseProbe times the admission layer's parsing and validation of
// every request body of the mix.
func parseProbe(m map[string]float64, mix []*plan, lim serve.Limits) {
	var xs []float64
	for _, p := range mix {
		start := time.Now()
		q, err := serve.ParseRequest(bytes.NewReader(p.body))
		if err == nil {
			q.Normalize()
			err = q.Validate(lim)
		}
		if err == nil {
			xs = append(xs, us(time.Since(start)))
		}
	}
	m["serve.parse_validate_us.p50"] = median(xs)
}

// genLateBound is the generator's bound: a window in which the
// generator sent a campaign later than this after its due time did not
// offer the planned load, and is rejected.
const genLateBound = 100 * time.Millisecond

func (d serveDef) run(opt options) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	s, err := newSession(d, opt, opt.seconds)
	if err != nil {
		return nil, err
	}
	defer os.Remove(s.historyPath())
	var setupS []float64
	if !opt.trace {
		if setupS, err = setupTimes(opt, setupSamples); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	sess, err := s.measure(tr)
	if err != nil {
		return nil, err
	}
	if sess.maxLate > genLateBound {
		return nil, fmt.Errorf("generator ran %v behind schedule, past its bound %v: window rejected", sess.maxLate, genLateBound)
	}
	o.attempted, o.failed = sess.attempted, sess.failed
	tail := tailQuantile(len(s.mix))
	tailNotes(o.notes, "request", tail, len(sess.win.reqs))
	tailNotes(o.notes, "run", tail, len(sess.win.runMS))
	o.notes["gen.late_ms.max"] = ms(sess.maxLate)
	o.notes["slowest"] = sess.slowest
	if !opt.trace {
		o.metrics = sess.win.endToEnd(tail, tail, d.limit)
		sess.win.latencyNotes(o.notes)
		o.metrics["setup_s"] = median(setupS)
		o.metrics["rss_peak_mb"] = sess.rssMB
		o.notes["setup_s.samples"] = setupS
		return o, nil
	}

	m := o.metrics
	for k, v := range sess.metrics {
		m[k] = v
	}
	m["tracing.overhead_share"] = sess.win.overheadShare()
	goMetrics(m, sess.goBefore, sess.goAfter, sess.win.runs)
	if err := probeSweep(m, s.mix, tr); err != nil {
		return nil, err
	}
	m["failed_share"] = share(float64(o.failed), float64(o.attempted))
	if err := tr.write(filepath.Join(opt.out, runName(opt)+"-spans.jsonl")); err != nil {
		return nil, err
	}
	return o, nil
}

// probeSweepRuns bounds the probe sweep of serve-mixed's traced run.
const probeSweepRuns = 64

// probeSweep measures the strategy, environment-pool, scheduler, board
// and topology layers on the mix's own DES runs (without fault plans),
// run directly through the sweep harness: the service exposes none of
// those calls to a client.
func probeSweep(m map[string]float64, mix []*plan, tr *tracer) error {
	seen := map[serve.Key]bool{}
	var specs []core.Spec
	big := core.Spec{}
	for _, p := range mix {
		q := *p.req
		q.Normalize()
		if q.Engine != serve.EngineDES || q.Faults != nil {
			continue
		}
		for _, rs := range q.Expand() {
			if seen[rs.Key()] || len(specs) == probeSweepRuns {
				continue
			}
			seen[rs.Key()] = true
			sp := core.Spec{Strategy: rs.Protocol, Dim: rs.Dim, Seed: rs.Seed, AdversarialLatency: rs.AdversarialLatency}
			specs = append(specs, sp)
			if sp.Dim > big.Dim || (sp.Dim == big.Dim && sp.Strategy == core.Clean) {
				big = sp
			}
		}
	}
	if len(specs) < workers {
		return fmt.Errorf("probe sweep: the mix has only %d plain DES runs", len(specs))
	}
	r := newRunner()
	var batches []batchOut
	for i := 0; i+workers <= len(specs); i += workers {
		b := r.batch(specs[i:i+workers], tr, 1<<20+i)
		for _, o := range b.runs {
			if o.err != nil {
				return fmt.Errorf("probe sweep: %w", o.err)
			}
		}
		batches = append(batches, b)
	}
	schedMetrics(m, batches)
	strategyMetrics(m, tr, batches)
	return layerProbes(m, big, big.Dim)
}
