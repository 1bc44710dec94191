// Package meshsweep is the classic optimal contiguous search for
// rectangular meshes: a rolling rank of guards, one per row of the
// short side, sweeping across the long side. The team is exactly
// min(rows, cols) — which the exhaustive searcher confirms is optimal
// on small meshes — against the generic level sweep's two diagonal
// levels.
//
// Deployment never recontaminates: guards enter column 0 deepest-first
// through already-guarded cells, then the rank advances one cell at a
// time (a guard's departure exposes a cell whose row neighbours are
// still guarded and whose left neighbour is clean).
package meshsweep

import (
	"fmt"

	"hypersearch/internal/board"
	"hypersearch/internal/metrics"
	"hypersearch/internal/topologies"
	"hypersearch/internal/trace"
)

// Name identifies the strategy in results.
const Name = "mesh-sweep"

// Team returns the exact team the sweep uses: min(rows, cols).
func Team(rows, cols int) int {
	if rows < cols {
		return rows
	}
	return cols
}

// Run executes the sweep on a rows x cols mesh with the homebase at
// cell (0, 0). It returns the result, the final board, and the trace.
func Run(rows, cols int) (metrics.Result, *board.Board, *trace.Log) {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("meshsweep: invalid mesh %dx%d", rows, cols))
	}
	// Sweep across the longer side with one guard per line of the
	// shorter side. Internally normalize to rows <= cols by addressing
	// the (possibly transposed) sweep coordinates onto the real mesh.
	realRows, realCols := rows, cols
	transposed := rows > cols
	if transposed {
		rows, cols = cols, rows
	}
	at := func(r, c int) int {
		if transposed {
			return c*realCols + r
		}
		return r*realCols + c
	}
	ex := trace.NewSequential(topologies.Mesh(realRows, realCols), at(0, 0))
	agents := make([]int, rows)
	for i := range agents {
		agents[i] = ex.Place()
	}

	// Deploy down column 0, shallowest-first: each later agent
	// transits only already-guarded cells, so nothing is exposed.
	for r := 1; r < rows; r++ {
		a := agents[r]
		for rr := 1; rr <= r; rr++ {
			ex.Move(a, at(rr, 0))
		}
	}
	// Advance the rank column by column.
	for c := 1; c < cols; c++ {
		for r := 0; r < rows; r++ {
			ex.Move(agents[r], at(r, c))
		}
	}
	return ex.Finish(Name)
}
