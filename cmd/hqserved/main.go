// Command hqserved is the sweep service: a long-lived HTTP daemon that
// accepts concurrent campaign requests (a dimension range, a protocol
// set, seeds, and an optional fault plan), executes them on the
// pooled simulation fleet, and streams per-run progress as chunked
// JSONL. Admission is bounded (429 past the queue), campaigns carry
// deadlines and cooperative cancellation, a panicking run fails only
// its own campaign, results are cached by their deterministic key, and
// every accepted/completed campaign is journaled fsync-durably so a
// restarted daemon resumes interrupted work.
//
// Persistence is bounded: the journal auto-compacts (rewritten as its
// snapshot, atomically) once its live fraction drops under
// -compact-threshold, POST /compact forces a rewrite, and the result
// cache is an LRU under -cache-max-entries / -cache-max-bytes —
// eviction only re-simulates, never changes results. The journal is
// flock-guarded: a second daemon on the same -journal path fails at
// startup naming the holder.
//
// Usage:
//
//	hqserved                         # serve on :8080, journal hqserved.jsonl
//	hqserved -addr :9000 -journal /var/lib/hq/journal.jsonl
//	hqserved -compact-threshold 0.5 -cache-max-entries 65536 -cache-max-bytes 268435456
//	hqserved -smoke                  # self-contained end-to-end smoke (CI)
//
// Submit with curl:
//
//	curl -s localhost:8080/campaigns -d '{"name":"sweep","dim_min":2,"dim_max":8,"protocols":["visibility","clean"],"seeds":[1,2]}'
//	curl -sN localhost:8080/campaigns/c0/stream     # live JSONL progress
//	curl -s  localhost:8080/campaigns/c0            # snapshot + records
//	curl -sX POST localhost:8080/campaigns/c0/cancel
//
// SIGTERM/SIGINT drains gracefully: in-flight campaigns finish, queued
// ones stay journaled for the next start, then the daemon exits 0.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"hypersearch/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		journal  = flag.String("journal", "hqserved.jsonl", "crash-safe campaign journal path")
		active   = flag.Int("max-active", 0, "max concurrently executing campaigns (0 = NumCPU)")
		depth    = flag.Int("queue-depth", 0, "campaign queue depth (0 = 2x max-active)")
		workers  = flag.Int("workers", 0, "sched workers per campaign (0 = auto)")
		maxDim   = flag.Int("max-dim", 12, "largest admissible dimension")
		maxRuns  = flag.Int("max-runs", 4096, "largest admissible campaign expansion")
		deadline = flag.Duration("default-deadline", 0, "deadline for campaigns that set none (0 = unlimited)")
		compact  = flag.Float64("compact-threshold", 0, "auto-compact the journal when its live-record fraction drops to this (0 = default 2/3, negative = manual only)")
		cacheN   = flag.Int("cache-max-entries", 0, "result-cache entry budget, LRU-evicted (0 = unbounded)")
		cacheB   = flag.Int64("cache-max-bytes", 0, "approximate result-cache byte budget, LRU-evicted (0 = unbounded)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		smoke    = flag.Bool("smoke", false, "run the self-contained smoke check and exit")
	)
	flag.Parse()

	cfg := serve.Config{
		JournalPath:      *journal,
		MaxActive:        *active,
		QueueDepth:       *depth,
		Workers:          *workers,
		MaxDim:           *maxDim,
		MaxRuns:          *maxRuns,
		DefaultDeadline:  *deadline,
		CompactThreshold: *compact,
		CacheMaxEntries:  *cacheN,
		CacheMaxBytes:    *cacheB,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hqserved: "+format+"\n", args...)
		},
	}

	var err error
	switch {
	case *smoke:
		err = runSmoke(cfg)
	default:
		err = runServe(cfg, *addr, *drainFor)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqserved:", err)
		os.Exit(1)
	}
}

// runServe is daemon mode: serve until SIGTERM/SIGINT, then drain and
// exit cleanly.
func runServe(cfg serve.Config, addr string, drainFor time.Duration) error {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "hqserved: serving on %s (journal %s)\n", ln.Addr(), cfg.JournalPath)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "hqserved: %v: draining (budget %s)\n", s, drainFor)
	case err := <-httpErr:
		return fmt.Errorf("http server: %w", err)
	}

	// Stop accepting connections first, then drain campaigns: in-flight
	// work finishes, queued campaigns stay journaled for the next start.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainFor)
	defer cancel()
	hs.Shutdown(shutdownCtx)
	if err := srv.Drain(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "hqserved: drain budget exhausted, campaigns cancelled: %v\n", err)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "hqserved: drained, bye")
	return nil
}

// runSmoke is `make serve-smoke`: start a daemon on an ephemeral port
// with a scratch journal, submit a small campaign, require streamed
// per-run progress, then resubmit it verbatim and require the rerun to
// be served from the result cache with byte-identical records.
// Finally the compaction round-trip: POST /compact must shrink the
// journal, and a restarted daemon on the compacted journal must serve
// the same campaign from its warmed cache, byte-identical again.
func runSmoke(cfg serve.Config) error {
	dir, err := os.MkdirTemp("", "hqserved-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.JournalPath = filepath.Join(dir, "journal.jsonl")
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	body := `{"name":"smoke","dim_min":2,"dim_max":6,"protocols":["visibility","clean"],"seeds":[1]}`

	first, nruns, err := smokeCampaign(base, body)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: first submission simulated %d runs, streamed live\n", nruns)
	hits0, _ := srv.Cache().Stats()
	second, nruns2, err := smokeCampaign(base, body)
	if err != nil {
		return err
	}
	hits1, _ := srv.Cache().Stats()
	if got := hits1 - hits0; got < int64(nruns2) {
		return fmt.Errorf("smoke: rerun should be cache-served, got %d hits for %d runs", got, nruns2)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("smoke: cache-served records differ from simulated ones:\nfirst:  %s\nsecond: %s", first, second)
	}
	fmt.Printf("smoke: identical resubmission was a cache hit, records byte-identical\n")

	// Compaction round-trip: the two campaigns wrote 4 journal records
	// (2 accepted + 2 completed); the snapshot collapses them to 2.
	resp, err := http.Post(base+"/compact", "", nil)
	if err != nil {
		return err
	}
	var cr serve.CompactResult
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if cr.RecordsAfter >= cr.RecordsBefore {
		return fmt.Errorf("smoke: compaction did not shrink the journal: %d -> %d records", cr.RecordsBefore, cr.RecordsAfter)
	}
	fmt.Printf("smoke: compacted journal %d -> %d records\n", cr.RecordsBefore, cr.RecordsAfter)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}

	// Restart on the compacted journal: replay must warm the cache so
	// the resubmission is pure hits, byte-identical to the original.
	srv2, err := serve.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("smoke: restart on compacted journal: %w", err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs2 := &http.Server{Handler: srv2.Handler()}
	go hs2.Serve(ln2)
	base2 := "http://" + ln2.Addr().String()
	hits2, _ := srv2.Cache().Stats()
	third, nruns3, err := smokeCampaign(base2, body)
	if err != nil {
		return fmt.Errorf("smoke: post-restart submission: %w", err)
	}
	hits3, _ := srv2.Cache().Stats()
	if got := hits3 - hits2; got < int64(nruns3) {
		return fmt.Errorf("smoke: post-restart rerun should hit the compaction-warmed cache, got %d hits for %d runs", got, nruns3)
	}
	if !bytes.Equal(first, third) {
		return fmt.Errorf("smoke: compaction round-trip records differ:\nfirst: %s\nthird: %s", first, third)
	}
	fmt.Printf("smoke: compaction round-trip served %d runs from the restarted journal, byte-identical\n", nruns3)
	hs2.Shutdown(ctx)
	if err := srv2.Drain(ctx); err != nil {
		return err
	}
	if err := srv2.Close(); err != nil {
		return err
	}
	fmt.Println("smoke: ok")
	return nil
}

// smokeCampaign submits one campaign, follows its stream to the done
// event, and returns the canonical JSON of its run records plus the
// streamed run count.
func smokeCampaign(base, body string) ([]byte, int, error) {
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, 0, fmt.Errorf("smoke: submit got HTTP %d", resp.StatusCode)
	}
	var sn serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		return nil, 0, err
	}

	stream, err := http.Get(base + "/campaigns/" + sn.ID + "/stream")
	if err != nil {
		return nil, 0, err
	}
	defer stream.Body.Close()
	runs, done := 0, false
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e serve.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, 0, fmt.Errorf("smoke: bad stream line: %w", err)
		}
		switch e.Type {
		case "run":
			runs++
		case "done":
			if e.Status != serve.StatusCompleted {
				return nil, 0, fmt.Errorf("smoke: campaign %s ended %s (%s)", sn.ID, e.Status, e.Error)
			}
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if !done {
		return nil, 0, errors.New("smoke: stream ended without a done event")
	}
	if runs == 0 {
		return nil, 0, errors.New("smoke: no per-run progress was streamed")
	}

	final, err := http.Get(base + "/campaigns/" + sn.ID)
	if err != nil {
		return nil, 0, err
	}
	defer final.Body.Close()
	var fin serve.Snapshot
	if err := json.NewDecoder(final.Body).Decode(&fin); err != nil {
		return nil, 0, err
	}
	if fin.Done != runs || len(fin.Runs) != runs {
		return nil, 0, fmt.Errorf("smoke: streamed %d runs but snapshot has done=%d records=%d", runs, fin.Done, len(fin.Runs))
	}
	recs, err := json.Marshal(fin.Runs)
	return recs, runs, err
}
