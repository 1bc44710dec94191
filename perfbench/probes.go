package main

import (
	"fmt"
	"time"

	"hypersearch/internal/bits"
	"hypersearch/internal/core"
	"hypersearch/internal/des"
	"hypersearch/internal/envpool"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
	"hypersearch/internal/strategy"
)

// probeReps is how many times each probe repeats; probes report the
// median repetition.
const probeReps = 5

// medianOf runs f probeReps times and returns the median of its
// results.
func medianOf(f func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// layerProbes measures the layers below the strategy through their
// public APIs: topology at dimension d, a cold environment build and
// the board replay of spec, and the three DES dispatch forms.
func layerProbes(m map[string]float64, spec core.Spec, d int) error {
	topologyProbe(m, d)
	envpoolProbe(m, spec)
	desProbes(m)
	return boardProbe(m, spec)
}

// topologyProbe times building H_d and its broadcast tree in the
// representation the pool would pick (materialized up to
// hypercube.MaterializeLimit, implicit beyond), one neighbour visit,
// and one bits.NextHopToward step.
func topologyProbe(m map[string]float64, d int) {
	h := hypercube.ForDim(d)
	m["topology.build_ms"] = medianOf(func() float64 {
		start := time.Now()
		h = hypercube.ForDim(d)
		heapqueue.ForDim(d)
		return ms(time.Since(start))
	})
	m["topology.visit_ns"] = medianOf(func() float64 {
		visits := 0
		start := time.Now()
		for v := 0; v < h.Order(); v++ {
			h.VisitNeighbours(v, func(int) bool { visits++; return true })
		}
		return float64(time.Since(start).Nanoseconds()) / float64(visits)
	})
	mask := bits.Node(1)<<d - 1
	m["topology.nexthop_ns"] = medianOf(func() float64 {
		hops := 0
		start := time.Now()
		for k := uint64(0); k < 1<<15; k++ {
			src, dst := bits.Node(mix64(k))&mask, bits.Node(mix64(^k))&mask
			for cur := src; cur != dst; cur = bits.NextHopToward(cur, dst) {
				hops++
			}
		}
		if hops == 0 {
			return 0
		}
		return float64(time.Since(start).Nanoseconds()) / float64(hops)
	})
}

// envpoolProbe times a fresh pool's first Acquire for spec: a cold
// environment build over the process-wide cached topology. The
// environment never runs, so the pool never keeps it.
func envpoolProbe(m map[string]float64, spec core.Spec) {
	envpool.Topology(spec.Dim)
	m["envpool.build_ms"] = medianOf(func() float64 {
		p := envpool.New()
		start := time.Now()
		p.Acquire(spec.Dim, strategy.Options{})
		return ms(time.Since(start))
	})
}

// desEvents is the event count of each DES dispatch probe.
const desEvents = 200_000

// ticker is an inline DES actor that reschedules itself.
type ticker struct {
	des.Inline
	left int
}

// desProbes times DES dispatch per event in its three forms: plain
// callbacks, a goroutine process's Delay hand-off, and an inline actor.
func desProbes(m map[string]float64) {
	perEvent := func(s *des.Simulator) float64 {
		start := time.Now()
		s.Run()
		return float64(time.Since(start).Nanoseconds()) / desEvents
	}
	m["des.fn_ns_per_event"] = medianOf(func() float64 {
		s := des.New()
		count := 0
		var tick func()
		tick = func() {
			if count++; count < desEvents {
				s.After(1, tick)
			}
		}
		s.After(1, tick)
		return perEvent(s)
	})
	// Two processes delaying in lockstep alternate in the queue, so
	// every event hands the baton to the other goroutine; a lone
	// process would resume itself without a hand-off.
	m["des.process_ns_per_event"] = medianOf(func() float64 {
		s := des.New()
		for k := 0; k < 2; k++ {
			s.Spawn("probe", func(p *des.Process) {
				for i := 0; i < desEvents/2; i++ {
					p.Delay(1)
				}
			})
		}
		return perEvent(s)
	})
	m["des.inline_ns_per_event"] = medianOf(func() float64 {
		s := des.New()
		t := &ticker{left: desEvents}
		t.Step = func(s *des.Simulator) {
			if t.left--; t.left > 0 {
				s.AfterInline(1, &t.Inline)
			}
		}
		s.SpawnInline(&t.Inline)
		return perEvent(s)
	})
}

// boardProbe records one run of spec, replays its trace onto a fresh
// board with trace.Log.Replay, and times the replay per event and the
// replayed board's contiguity scan. The replay must reproduce the run:
// same moves, every node clean, no recontamination.
func boardProbe(m map[string]float64, spec core.Spec) error {
	spec.Record = true
	res, env, err := core.Run(spec)
	if err != nil {
		return err
	}
	log := env.Log()
	start := time.Now()
	b, err := log.Replay(env.H, env.B.Home())
	if err != nil {
		return err
	}
	m["board.replay_ns_per_op"] = float64(time.Since(start).Nanoseconds()) / float64(log.Len())
	if b.Moves() != res.TotalMoves || !b.AllClean() {
		return fmt.Errorf("replay of %s d=%d diverged: %d moves, all clean %v; run %s", spec.Strategy, spec.Dim, b.Moves(), b.AllClean(), res)
	}
	contiguous := true
	m["board.contiguity_ms"] = medianOf(func() float64 {
		start := time.Now()
		contiguous = contiguous && b.Contiguous()
		return ms(time.Since(start))
	})
	if !contiguous {
		return fmt.Errorf("replayed board of %s d=%d is not contiguous", spec.Strategy, spec.Dim)
	}
	m["board.recontaminations"] = float64(b.Recontaminations())
	return nil
}
