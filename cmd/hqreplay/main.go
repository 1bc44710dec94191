// Command hqreplay verifies a recorded search trace (as written by
// `hqsearch -trace`, or streamed by `hqsearch -stream-trace`) by
// replaying it against a fresh board, reporting the final invariants,
// and optionally printing the state evolution. The two formats — a
// JSON array and a JSONL stream — are told apart by the first byte.
//
// Usage:
//
//	hqsearch -strategy clean -d 5 -trace run.json
//	hqreplay -g hypercube:5 run.json
//	hqsearch -strategy clean -d 5 -stream-trace run.jsonl
//	hqreplay -g hypercube:5 -steps run.jsonl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"hypersearch/internal/board"
	"hypersearch/internal/topologies"
	"hypersearch/internal/trace"
)

func main() {
	var (
		spec  = flag.String("g", "hypercube:6", "topology the trace was recorded on")
		home  = flag.Int("home", 0, "homebase vertex")
		steps = flag.Bool("steps", false, "print contamination counts as the replay progresses")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hqreplay [-g SPEC] [-steps] TRACE.json")
		os.Exit(2)
	}

	g, err := topologies.Parse(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqreplay:", err)
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqreplay:", err)
		os.Exit(2)
	}
	defer f.Close()
	log, err := readTrace(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqreplay:", err)
		os.Exit(2)
	}
	fmt.Printf("replaying %d events on %s...\n", log.Len(), *spec)

	b := board.New(g, *home)
	var after func(i int) error
	if *steps {
		events, last := log.Events(), -1
		after = func(i int) error {
			if c := b.ContaminatedCount(); c != last {
				fmt.Printf("t=%-6d contaminated=%d\n", events[i].Time, c)
				last = c
			}
			return nil
		}
	}
	if err := log.ReplayOn(b, after); err != nil {
		fmt.Fprintln(os.Stderr, "hqreplay:", err)
		os.Exit(1)
	}
	report(b)
}

// readTrace decodes either trace format: `-trace` writes one JSON
// array (first byte '['), `-stream-trace` writes JSONL (one object
// per line).
func readTrace(f *os.File) (*trace.Log, error) {
	r := bufio.NewReader(f)
	first, err := r.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if first[0] == '[' {
		return trace.ReadJSON(r)
	}
	return trace.ReadJSONL(r)
}

func report(b *board.Board) {
	fmt.Printf("captured=%v monotone=%v contiguous=%v moves=%d agents=%d recontaminations=%d\n",
		b.AllClean(), b.MonotoneViolations() == 0, b.Contiguous(),
		b.Moves(), b.Agents(), b.Recontaminations())
	if !b.AllClean() || b.MonotoneViolations() != 0 {
		os.Exit(1)
	}
}
