// Command hqsearch runs one intruder-capture search on a hypercube and
// prints its cost and correctness summary.
//
// Usage:
//
//	hqsearch -strategy visibility -d 8
//	hqsearch -strategy clean -d 6 -async 9 -seed 3 -states
//	hqsearch -strategy visibility -d 6 -engine goroutines -async 50
//	hqsearch -strategy clean -d 5 -trace run.json
//	hqsearch -strategy visibility -d 20 -stream-trace run.jsonl
//
// Beyond d=16 the full-board diagnostics — -trace (an in-memory log),
// -order and -states (per-node renderings) — refuse to start instead
// of exhausting memory mid-run. -stream-trace writes each event
// through to disk as a JSON line in O(1) memory and works at any
// dimension.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hypersearch/internal/core"
	"hypersearch/internal/trace"
	"hypersearch/internal/viz"
)

func main() {
	var (
		strat       = flag.String("strategy", core.Visibility, "strategy: "+strings.Join(core.Strategies(), ", "))
		dim         = flag.Int("d", 6, "hypercube dimension (n = 2^d)")
		engine      = flag.String("engine", core.EngineDES, "engine: des, goroutines, or network")
		seed        = flag.Int64("seed", 0, "adversarial scheduler seed")
		async       = flag.Int64("async", 0, "max per-move latency (0 = unit latency / ideal time)")
		convoy      = flag.Int("convoy", 1, "team size for the naive-convoy baseline")
		check       = flag.Bool("check", false, "verify contiguity after every move (slow)")
		states      = flag.Bool("states", false, "print the final per-level state map")
		order       = flag.Bool("order", false, "print the per-node cleaning order")
		tracePath   = flag.String("trace", "", "write the run trace as a JSON array to this file (in-memory log; d <= 16)")
		streamTrace = flag.String("stream-trace", "", "stream the run trace as JSONL to this file (O(1) memory; any d)")
	)
	flag.Parse()

	if *dim > viz.MaxFullBoardDim {
		deny := func(flagName, alternative string) {
			fmt.Fprintf(os.Stderr,
				"hqsearch: -%s covers the full board and d=%d exceeds the limit of %d; %s\n",
				flagName, *dim, viz.MaxFullBoardDim, alternative)
			os.Exit(2)
		}
		if *tracePath != "" {
			deny("trace", "use -stream-trace to write the events through to disk in O(1) memory")
		}
		if *order {
			deny("order", "recover per-node orders from a -stream-trace file instead of an in-memory rendering")
		}
		if *states {
			deny("states", "the summary line already reports the aggregate outcome")
		}
	}

	spec := core.Spec{
		Strategy:           *strat,
		Dim:                *dim,
		Engine:             *engine,
		Seed:               *seed,
		AdversarialLatency: *async,
		ConvoyTeam:         *convoy,
		CheckEveryMove:     *check,
		// -order and -states read the final board, which only an engine
		// that keeps a trace returns; core rejects the others.
		Record: *tracePath != "" || *order || *states,
	}

	var (
		stream    *trace.Stream
		streamBuf *bufio.Writer
	)
	if *streamTrace != "" {
		// Ask core whether the engine keeps a trace before truncating
		// the file.
		spec.Stream = trace.NewStream(io.Discard)
		if err := core.Check(spec); err != nil {
			fmt.Fprintln(os.Stderr, "hqsearch:", err)
			os.Exit(2)
		}
		f, err := os.Create(*streamTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hqsearch:", err)
			os.Exit(2)
		}
		defer f.Close()
		streamBuf = bufio.NewWriterSize(f, 1<<20)
		stream = trace.NewStream(streamBuf)
		spec.Stream = stream
	}

	res, env, err := core.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqsearch:", err)
		os.Exit(2)
	}
	fmt.Println(res)
	if !res.Ok() && !strings.HasPrefix(*strat, "naive") {
		fmt.Fprintln(os.Stderr, "hqsearch: run violated the search invariants")
		defer os.Exit(1)
	}
	if stream != nil {
		err := stream.Err()
		if err == nil {
			err = streamBuf.Flush()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hqsearch: streaming trace:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "trace streamed to %s (%d events)\n", *streamTrace, stream.Len())
	}
	if env != nil && *states {
		fmt.Print(viz.States(env.H, env.B))
	}
	if env != nil && *order {
		fmt.Print(viz.CleanOrder(env.H, env.B, false))
	}
	if env != nil && *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hqsearch:", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := env.Log().WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "hqsearch:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", *tracePath, env.Log().Len())
	}
}
