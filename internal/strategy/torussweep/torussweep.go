// Package torussweep is the dedicated contiguous search for tori: the
// wraparound means a single advancing rank would be chased from
// behind, so one rank anchors a column while a second sweeps the long
// way around — team 2*min(rows, cols), against the exhaustive optimum
// of 2*min(rows, cols) - 1 on the small square tori (the anchor and
// sweeper can share one corner agent; the simple two-rank schedule
// spends that one extra agent for a far simpler invariant).
package torussweep

import (
	"fmt"

	"hypersearch/internal/board"
	"hypersearch/internal/metrics"
	"hypersearch/internal/topologies"
	"hypersearch/internal/trace"
)

// Name identifies the strategy in results.
const Name = "torus-sweep"

// Team returns the team the sweep provisions: 2*min(rows, cols).
func Team(rows, cols int) int {
	if rows < cols {
		return 2 * rows
	}
	return 2 * cols
}

// Run executes the sweep on a rows x cols torus (both >= 3), homebase
// cell (0, 0).
func Run(rows, cols int) (metrics.Result, *board.Board, *trace.Log) {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("torussweep: torus needs sides >= 3, got %dx%d", rows, cols))
	}
	realRows, realCols := rows, cols
	transposed := rows > cols
	if transposed {
		rows, cols = cols, rows
	}
	at := func(r, c int) int {
		r, c = (r+rows)%rows, (c+cols)%cols
		if transposed {
			return c*realCols + r
		}
		return r*realCols + c
	}
	ex := trace.NewSequential(topologies.Torus(realRows, realCols), at(0, 0))
	anchor := make([]int, rows)
	sweep := make([]int, rows)
	for r := range anchor {
		anchor[r] = ex.Place()
	}
	for r := range sweep {
		sweep[r] = ex.Place()
	}

	// Deploy the anchor rank down column 0, shallowest-first (each
	// agent transits only guarded cells).
	for r := 1; r < rows; r++ {
		for rr := 1; rr <= r; rr++ {
			ex.Move(anchor[r], at(rr, 0))
		}
	}
	// Deploy the sweep rank onto column 1 through the anchored column.
	for r := 0; r < rows; r++ {
		for rr := 1; rr <= r; rr++ {
			ex.Move(sweep[r], at(rr, 0))
		}
		ex.Move(sweep[r], at(r, 1))
	}
	// Sweep the long way around; the anchor blocks the wrap.
	for c := 2; c < cols; c++ {
		for r := 0; r < rows; r++ {
			ex.Move(sweep[r], at(r, c))
		}
	}
	// Finish retires the anchor rank, then the sweep rank: id order.
	return ex.Finish(Name)
}
