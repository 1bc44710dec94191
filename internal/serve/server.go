package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypersearch/internal/sched"
)

// Campaign lifecycle statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCompleted = "completed"
	StatusFailed    = "failed" // a run errored or panicked
	StatusCanceled  = "canceled"
	StatusDeadline  = "deadline-exceeded"
)

// defaultCompactThreshold is the live fraction below which the
// journal auto-compacts. 2/3 means the file is rewritten roughly every
// time it doubles past its live state (each completed campaign leaves
// one dead record behind), so compaction work is amortized O(1) per
// append and replay cost stays proportional to live campaigns.
const defaultCompactThreshold = 2.0 / 3.0

// Submission rejections the HTTP layer maps to status codes.
var (
	ErrOverloaded = errors.New("serve: campaign queue is full") // 429
	ErrDraining   = errors.New("serve: server is draining")     // 503
)

// Config tunes a Server. The zero value is serviceable: every field
// has a default chosen for the machine.
type Config struct {
	// JournalPath is the crash-safe campaign journal. Empty runs
	// without persistence (useful for throwaway tests).
	JournalPath string

	// MaxActive bounds concurrently executing campaigns; defaults to
	// runtime.NumCPU(). QueueDepth bounds campaigns waiting behind
	// them; defaults to 2*MaxActive. A submission past both is shed
	// with ErrOverloaded.
	MaxActive  int
	QueueDepth int

	// Workers is the sched worker count each campaign executes with;
	// defaults to max(1, NumCPU/MaxActive) so the fleets together
	// roughly fill the machine.
	Workers int

	// MaxDim and MaxRuns bound what a single campaign may ask for;
	// defaults 12 and 4096.
	MaxDim  int
	MaxRuns int

	// DefaultDeadline caps campaigns that do not set deadline_ms;
	// 0 means no default deadline.
	DefaultDeadline time.Duration

	// CompactThreshold auto-compacts the journal when the live
	// fraction of its records drops to or below this value (once the
	// file holds at least a handful of records). 0 defaults to 2/3 —
	// the journal is rewritten roughly every time it doubles, so
	// replay cost stays proportional to live state, amortized O(1)
	// per append. Negative disables auto-compaction (POST /compact
	// still works).
	CompactThreshold float64

	// CacheMaxEntries and CacheMaxBytes bound the result cache (LRU);
	// 0 means unlimited on that axis. Eviction never changes what a
	// request returns — an evicted key re-simulates identically.
	CacheMaxEntries int
	CacheMaxBytes   int64

	// BeforeRun, if set, is called before every simulated run with the
	// campaign name and the spec. It exists for tests: gating it makes
	// admission and cancellation deterministic, and panicking from it
	// exercises panic isolation.
	BeforeRun func(campaign string, spec RunSpec)

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.MaxActive <= 0 {
		c.MaxActive = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxActive
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU() / c.MaxActive
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 12
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 4096
	}
	if c.CompactThreshold == 0 {
		c.CompactThreshold = defaultCompactThreshold
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is the campaign service: admission control in front, a fixed
// executor fleet behind, a result cache and a crash-safe journal
// underneath.
type Server struct {
	cfg     Config
	journal *Journal // nil when running without persistence
	cache   *Cache

	mu        sync.Mutex
	draining  bool
	nextID    int
	byID      map[string]*Campaign
	order     []*Campaign
	queue     chan *Campaign // only sent to under mu; admission checks len()
	recovered int            // interrupted campaigns re-enqueued at startup

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewServer opens (and replays) the journal, warms the result cache
// from completed campaigns, re-enqueues interrupted ones, and starts
// the executor fleet. Close the returned server with Drain + Close.
func NewServer(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheMaxEntries, cfg.CacheMaxBytes),
		byID:  map[string]*Campaign{},
		stop:  make(chan struct{}),
	}

	var pending []*Campaign
	if cfg.JournalPath != "" {
		j, entries, torn, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		j.threshold = cfg.CompactThreshold
		j.logf = cfg.Logf
		s.journal = j
		if torn > 0 {
			cfg.Logf("serve: journal: skipped %d torn/corrupt trailing record(s)", torn)
		}
		pending = s.recover(entries)
	}

	// The queue must hold every recovered campaign plus a full
	// admission window; admission still sheds at QueueDepth, so the
	// extra capacity only keeps startup from blocking.
	s.queue = make(chan *Campaign, cfg.QueueDepth+len(pending))
	s.recovered = len(pending)
	for _, c := range pending {
		s.queue <- c
	}

	for i := 0; i < cfg.MaxActive; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// recover rebuilds in-memory state from replayed journal entries:
// completed campaigns become servable history (their runs warm the
// cache), accepted-but-not-completed ones are interrupted work to
// re-run. A compacted journal carries a completed campaign as a
// single completion record with the request inline; replay treats it
// as acceptance and completion in one step, so compacted and
// uncompacted journals recover to the same state. Returns the
// interrupted campaigns in acceptance order.
func (s *Server) recover(entries []Entry) []*Campaign {
	var ids []string
	acc := map[string]*Request{}
	done := map[string]Entry{}
	for _, e := range entries {
		switch e.Type {
		case EntryAccepted:
			if e.Req == nil {
				continue
			}
			if _, ok := acc[e.ID]; !ok {
				acc[e.ID] = e.Req
				ids = append(ids, e.ID)
			}
		case EntryCompleted:
			if _, ok := acc[e.ID]; !ok && e.Req != nil {
				acc[e.ID] = e.Req
				ids = append(ids, e.ID)
			}
			done[e.ID] = e
		}
	}
	var pending []*Campaign
	for _, id := range ids {
		if n := idNumber(id); n >= s.nextID {
			s.nextID = n + 1
		}
		c := newCampaign(id, acc[id])
		s.byID[id] = c
		s.order = append(s.order, c)
		if fin, ok := done[id]; ok {
			// Replay per-run events so a recovered campaign's stream and
			// snapshot (done count) match what the original process served.
			for i := range fin.Runs {
				rec := fin.Runs[i]
				c.event(StreamEvent{Type: "run", Index: i, Total: len(fin.Runs), Run: &rec})
			}
			c.finish(fin.Status, fin.Error, fin.Runs)
			s.warmCache(c, fin.Runs)
			continue
		}
		// Interrupted: determinism makes a re-run identical to what the
		// lost process would have produced, so re-running IS resuming —
		// and any of its runs that made it into other completed
		// campaigns' records come from the warmed cache for free.
		pending = append(pending, c)
		s.cfg.Logf("serve: journal: re-running interrupted campaign %s", id)
	}
	return pending
}

// warmCache memoizes a recovered campaign's runs under their keys.
func (s *Server) warmCache(c *Campaign, runs []RunRecord) {
	if c.status() != StatusCompleted || len(runs) != len(c.specs) {
		return
	}
	for i, spec := range c.specs {
		s.cache.Put(spec.Key(), runs[i])
	}
}

func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "c"))
	if err != nil {
		return -1
	}
	return n
}

// Limits reports the admission bounds requests are validated against.
func (s *Server) Limits() Limits {
	return Limits{MaxDim: s.cfg.MaxDim, MaxRuns: s.cfg.MaxRuns}
}

// Cache exposes the result cache (read-mostly: stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Compact rewrites the journal as its snapshot, returning record
// counts before and after. Errors when the server runs journal-less.
func (s *Server) Compact() (before, after int, err error) {
	if s.journal == nil {
		return 0, 0, errors.New("serve: no journal configured")
	}
	return s.journal.Compact()
}

// Submit admits one campaign: validate, journal the acceptance, then
// enqueue. The journal write happens before the enqueue so no executor
// can ever complete a campaign whose acceptance a crash could lose.
func (s *Server) Submit(req *Request) (*Campaign, error) {
	req.Normalize()
	if err := req.Validate(s.Limits()); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return nil, ErrOverloaded
	}
	id := fmt.Sprintf("c%d", s.nextID)
	s.nextID++
	c := newCampaign(id, req)
	if s.journal != nil {
		if err := s.journal.Append(Entry{Type: EntryAccepted, ID: id, Req: req}); err != nil {
			return nil, err
		}
	}
	s.byID[id] = c
	s.order = append(s.order, c)
	s.queue <- c // cannot block: only mu-holders send, and len was checked
	s.cfg.Logf("serve: accepted %s (%d runs)", id, len(c.specs))
	return c, nil
}

// Get returns a campaign by id.
func (s *Server) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	return c, ok
}

// Campaigns lists all campaigns in acceptance order.
func (s *Server) Campaigns() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Campaign(nil), s.order...)
}

// Cancel cancels a campaign. Queued campaigns finalize immediately;
// running ones stop cooperatively: not-yet-started runs are skipped,
// in-flight runs finish (killing them mid-run would poison pooled
// environments).
func (s *Server) Cancel(id string) (*Campaign, error) {
	c, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("serve: no campaign %q", id)
	}
	if c.casStatus(StatusQueued, StatusCanceled) {
		// Never started: finalize here; the executor that eventually
		// drains it from the queue sees the terminal status and skips.
		s.finalize(c, StatusCanceled, "canceled before start", nil)
		return c, nil
	}
	c.cancel()
	return c, nil
}

// Drain stops accepting work and waits for in-flight campaigns to
// finish. If ctx expires first, remaining campaigns are cancelled
// cooperatively and Drain waits for them to wind down. Queued
// campaigns that never started stay journaled as accepted-only — a
// restarted daemon re-runs them, which is exactly the checkpoint
// semantics the journal exists for.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, c := range s.Campaigns() {
			c.cancel()
		}
		<-done
		return ctx.Err()
	}
}

// Close releases the journal. Call after Drain.
func (s *Server) Close() error {
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// executor is one of MaxActive campaign runners. Each owns a private
// per-worker fleet, so a panic-poisoned pool entry is confined to one
// executor and replaced lazily.
func (s *Server) executor() {
	defer s.wg.Done()
	f := newFleet(s.cfg.Workers)
	for {
		select {
		case <-s.stop:
			return
		case c := <-s.queue:
			// A drain may race the dequeue: prefer stopping, leaving
			// the campaign journaled for the next process.
			select {
			case <-s.stop:
				return
			default:
			}
			s.runCampaign(f, c)
		}
	}
}

// runCampaign executes one campaign on fleet f and finalizes it.
func (s *Server) runCampaign(f *fleet, c *Campaign) {
	if !c.casStatus(StatusQueued, StatusRunning) {
		return // canceled while queued; already finalized
	}
	c.event(StreamEvent{Type: "status", Status: StatusRunning})

	ctx := c.ctx
	deadline := s.cfg.DefaultDeadline
	if c.req.DeadlineMS > 0 {
		deadline = time.Duration(c.req.DeadlineMS) * time.Millisecond
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	specs := c.specs
	out, err := sched.MapWCtx(ctx, s.cfg.Workers, len(specs), func(w, i int) (RunRecord, error) {
		spec := specs[i]
		if s.cfg.BeforeRun != nil {
			s.cfg.BeforeRun(c.req.Name, spec)
		}
		key := spec.Key()
		if rec, ok := s.cache.Get(key); ok {
			rec.Cached = true
			c.event(StreamEvent{Type: "run", Index: i, Total: len(specs), Run: &rec})
			return rec, nil
		}
		rec, rerr := f.run(w, spec)
		if rerr != nil {
			return RunRecord{}, rerr
		}
		s.cache.Put(key, rec)
		c.event(StreamEvent{Type: "run", Index: i, Total: len(specs), Run: &rec})
		return rec, nil
	})

	switch {
	case err == nil:
		// Journal ground truth, not presentation: strip Cached so a
		// restarted daemon replays records byte-identical to fresh ones.
		for i := range out {
			out[i].Cached = false
		}
		s.finalize(c, StatusCompleted, "", out)
	default:
		s.finalize(c, failureStatus(err), err.Error(), nil)
	}
}

// failureStatus classifies a campaign error. Panic isolation comes
// first: a run that panicked is a failure even if the deadline also
// expired while the joined error was assembled.
func failureStatus(err error) string {
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		return StatusFailed
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return StatusDeadline
	}
	if errors.Is(err, context.Canceled) {
		return StatusCanceled
	}
	return StatusFailed
}

// finalize journals the completion and publishes the terminal state.
// The journal append comes first: once a client observes a terminal
// status, a crash cannot un-complete the campaign.
func (s *Server) finalize(c *Campaign, status, errMsg string, runs []RunRecord) {
	if s.journal != nil {
		e := Entry{Type: EntryCompleted, ID: c.id, Status: status, Error: errMsg, Runs: runs}
		if jerr := s.journal.Append(e); jerr != nil {
			// Results are in memory and correct; only durability is
			// degraded. Serve them, shout about it.
			s.cfg.Logf("serve: journal append failed for %s: %v", c.id, jerr)
		}
	}
	c.finish(status, errMsg, runs)
	s.cfg.Logf("serve: %s %s", c.id, status)
}

// --- Campaign ---

// StreamEvent is one line of a campaign's progress stream.
type StreamEvent struct {
	Type   string     `json:"type"` // "status", "run", "done"
	Status string     `json:"status,omitempty"`
	Index  int        `json:"index,omitempty"`
	Total  int        `json:"total,omitempty"`
	Run    *RunRecord `json:"run,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// Campaign is one admitted request and its observable life: a status
// machine, an append-only event log streamed to any number of
// watchers, and (when completed) the run records in canonical order.
type Campaign struct {
	id    string
	req   *Request
	specs []RunSpec

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	state   string
	errMsg  string
	records []RunRecord
	events  []StreamEvent
	final   bool
}

func newCampaign(id string, req *Request) *Campaign {
	q := *req
	q.Normalize()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Campaign{
		id:     id,
		req:    &q,
		specs:  q.Expand(),
		ctx:    ctx,
		cancel: cancel,
		state:  StatusQueued,
	}
	c.cond = sync.NewCond(&c.mu)
	c.events = append(c.events, StreamEvent{Type: "status", Status: StatusQueued})
	return c
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() string { return c.id }

// Request returns the normalized request the campaign runs.
func (c *Campaign) Request() *Request { return c.req }

// Runs returns the expansion size.
func (c *Campaign) Runs() int { return len(c.specs) }

func (c *Campaign) status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

func (c *Campaign) casStatus(from, to string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != from {
		return false
	}
	c.state = to
	return true
}

func (c *Campaign) event(e StreamEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// finish publishes the terminal state and the final "done" event.
func (c *Campaign) finish(status, errMsg string, runs []RunRecord) {
	c.cancel() // release the context's resources in every path
	c.mu.Lock()
	if c.final {
		c.mu.Unlock()
		return
	}
	c.state = status
	c.errMsg = errMsg
	c.records = runs
	c.final = true
	c.events = append(c.events, StreamEvent{Type: "done", Status: status, Error: errMsg})
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Wait blocks until the campaign reaches a terminal status (or ctx
// expires) and returns that status.
func (c *Campaign) Wait(ctx context.Context) (string, error) {
	stop := context.AfterFunc(ctx, c.cond.Broadcast)
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.final {
		if err := ctx.Err(); err != nil {
			return c.state, err
		}
		c.cond.Wait()
	}
	return c.state, nil
}

// next returns event i, blocking until it exists. ok=false means the
// stream is over (i is past the final event) or ctx expired.
func (c *Campaign) next(ctx context.Context, i int) (StreamEvent, bool) {
	stop := context.AfterFunc(ctx, c.cond.Broadcast)
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i >= len(c.events) {
		if c.final || ctx.Err() != nil {
			return StreamEvent{}, false
		}
		c.cond.Wait()
	}
	return c.events[i], true
}

// Snapshot is a campaign's queryable state.
type Snapshot struct {
	ID     string      `json:"id"`
	Name   string      `json:"name,omitempty"`
	Status string      `json:"status"`
	Total  int         `json:"total"`
	Done   int         `json:"done"`
	Error  string      `json:"error,omitempty"`
	Runs   []RunRecord `json:"runs,omitempty"` // completed campaigns only
}

// Snapshot returns the campaign's current state. Done counts runs
// whose records have been produced so far.
func (c *Campaign) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	done := 0
	for _, e := range c.events {
		if e.Type == "run" {
			done++
		}
	}
	return Snapshot{
		ID:     c.id,
		Name:   c.req.Name,
		Status: c.state,
		Total:  len(c.specs),
		Done:   done,
		Error:  c.errMsg,
		Runs:   append([]RunRecord(nil), c.records...),
	}
}

// Records returns the completed campaign's run records in canonical
// order (nil unless completed).
func (c *Campaign) Records() []RunRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RunRecord(nil), c.records...)
}

// --- HTTP ---

// Handler returns the service's HTTP API:
//
//	POST /campaigns               submit (202, body = snapshot)
//	GET  /campaigns               list snapshots
//	GET  /campaigns/{id}          one snapshot (runs included when done)
//	GET  /campaigns/{id}/stream   progress as chunked JSONL (x-ndjson)
//	POST /campaigns/{id}/cancel   cooperative cancel (202)
//	POST /compact                 compact the journal now (200, counts)
//	GET  /healthz                 liveness
//	GET  /statsz                  cache + journal + admission counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /campaigns/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /compact", s.handleCompact)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /statsz", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseRequest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	c, err := s.Submit(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, c.Snapshot())
	case errors.Is(err, ErrOverloaded):
		writeJSON(w, http.StatusTooManyRequests, errorBody{err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	cs := s.Campaigns()
	snaps := make([]Snapshot, 0, len(cs))
	for _, c := range cs {
		sn := c.Snapshot()
		sn.Runs = nil // listings stay light; fetch one id for records
		snaps = append(snaps, sn)
	}
	writeJSON(w, http.StatusOK, snaps)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("no campaign %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, c.Snapshot())
}

// handleStream replays the campaign's whole event log and then follows
// it live, one JSON object per line, flushed per event so clients see
// progress as it happens. The stream ends after the "done" event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("no campaign %q", r.PathValue("id"))})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		e, ok := c.next(r.Context(), i)
		if !ok {
			return
		}
		if enc.Encode(e) != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		if e.Type == "done" {
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, c.Snapshot())
}

// CompactResult is the POST /compact body: journal record counts
// around the rewrite.
type CompactResult struct {
	RecordsBefore int `json:"records_before"`
	RecordsAfter  int `json:"records_after"`
}

func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	before, after, err := s.Compact()
	if err != nil {
		code := http.StatusInternalServerError
		if s.journal == nil {
			code = http.StatusConflict // journal-less daemon: nothing to compact
		}
		writeJSON(w, code, errorBody{err.Error()})
		return
	}
	s.cfg.Logf("serve: journal compacted: %d -> %d records", before, after)
	writeJSON(w, http.StatusOK, CompactResult{RecordsBefore: before, RecordsAfter: after})
}

// ServiceStats is the /statsz body.
type ServiceStats struct {
	Campaigns       map[string]int `json:"campaigns"` // status -> count
	Queued          int            `json:"queue_len"`
	QueueDepth      int            `json:"queue_depth"`
	MaxActive       int            `json:"max_active"`
	Workers         int            `json:"workers_per_campaign"`
	CacheSize       int            `json:"cache_size"`
	CacheBytes      int64          `json:"cache_bytes"`
	CacheHits       int64          `json:"cache_hits"`
	CacheMisses     int64          `json:"cache_misses"`
	CacheEvictions  int64          `json:"cache_evictions"`
	CacheMaxEntries int            `json:"cache_max_entries,omitempty"`
	CacheMaxBytes   int64          `json:"cache_max_bytes,omitempty"`
	Journal         *JournalStats  `json:"journal,omitempty"` // nil when journal-less
	Recovered       int            `json:"recovered_campaigns"`
	Draining        bool           `json:"draining"`
}

// Stats reports service counters.
func (s *Server) Stats() ServiceStats {
	s.mu.Lock()
	st := ServiceStats{
		Campaigns:       map[string]int{},
		Queued:          len(s.queue),
		QueueDepth:      s.cfg.QueueDepth,
		MaxActive:       s.cfg.MaxActive,
		Workers:         s.cfg.Workers,
		CacheMaxEntries: s.cfg.CacheMaxEntries,
		CacheMaxBytes:   s.cfg.CacheMaxBytes,
		Recovered:       s.recovered,
		Draining:        s.draining,
	}
	order := append([]*Campaign(nil), s.order...)
	s.mu.Unlock()
	for _, c := range order {
		st.Campaigns[c.status()]++
	}
	hits, misses := s.cache.Stats()
	st.CacheSize, st.CacheHits, st.CacheMisses = s.cache.Len(), hits, misses
	st.CacheBytes, st.CacheEvictions = s.cache.Bytes(), s.cache.Evictions()
	if s.journal != nil {
		js := s.journal.Stats()
		st.Journal = &js
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
