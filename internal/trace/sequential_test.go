package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"hypersearch/internal/board"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/metrics"
	"hypersearch/internal/strategy/greedy"
	"hypersearch/internal/strategy/levelsweep"
	"hypersearch/internal/strategy/meshsweep"
	"hypersearch/internal/strategy/torussweep"
	"hypersearch/internal/strategy/treesearch"
	"hypersearch/internal/topologies"
	"hypersearch/internal/trace"
)

// The sequential golden table pins the observable output of the five
// sequential strategies: one SHA-256 per (strategy, graph) cell over
// the metrics.Result, the JSON trace and the final board's node
// states. On mismatch the test logs every recomputed row in the
// table's own format; a deliberate behaviour change regenerates
// testdata/sequential.txt from that log.
const sequentialGoldenFile = "testdata/sequential.txt"

// sequentialGraphs are the graphs greedy and the level sweep run on,
// homebase 0, by topologies.Parse spec.
var sequentialGraphs = []string{
	"path:9", "ring:8", "mesh:4x5", "torus:3x4", "complete:6", "star:5",
	"ccc:3", "butterfly:3",
	"hypercube:0", "hypercube:1", "hypercube:2", "hypercube:3",
	"hypercube:4", "hypercube:5", "hypercube:6",
	"random:9:0:5", "random:10:3:1", "random:12:4:7", "random:14:5:7",
	"random:16:8:3", "random:20:10:11",
}

// meshShapes and torusShapes include both orientations of each
// non-square shape, so the sweeps' transposed addressing is pinned.
var (
	meshShapes  = [][2]int{{1, 1}, {1, 8}, {8, 1}, {2, 2}, {3, 3}, {3, 5}, {5, 3}, {4, 6}, {6, 4}}
	torusShapes = [][2]int{{3, 3}, {3, 4}, {4, 3}, {3, 5}, {5, 4}, {4, 4}}
)

type sequentialRun func() (metrics.Result, *board.Board, *trace.Log)

// sequentialCell is one row of the table.
type sequentialCell struct {
	strategy, graph string
	run             sequentialRun
}

func sequentialCells(t *testing.T) []sequentialCell {
	t.Helper()
	var cells []sequentialCell
	for _, spec := range sequentialGraphs {
		g, err := topologies.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells,
			sequentialCell{greedy.Name, spec, func() (metrics.Result, *board.Board, *trace.Log) { return greedy.Run(g, 0) }},
			sequentialCell{levelsweep.Name, spec, func() (metrics.Result, *board.Board, *trace.Log) { return levelsweep.Run(g, 0) }},
		)
	}
	for _, s := range meshShapes {
		r, c := s[0], s[1]
		cells = append(cells, sequentialCell{meshsweep.Name, fmt.Sprintf("mesh:%dx%d", r, c),
			func() (metrics.Result, *board.Board, *trace.Log) { return meshsweep.Run(r, c) }})
	}
	for _, s := range torusShapes {
		r, c := s[0], s[1]
		cells = append(cells, sequentialCell{torussweep.Name, fmt.Sprintf("torus:%dx%d", r, c),
			func() (metrics.Result, *board.Board, *trace.Log) { return torussweep.Run(r, c) }})
	}
	for d := 1; d <= 8; d++ {
		tree := heapqueue.New(d).Graph()
		cells = append(cells, sequentialCell{treesearch.Name, fmt.Sprintf("tree:%d", d),
			func() (metrics.Result, *board.Board, *trace.Log) { return treesearch.Execute(tree) }})
	}
	return cells
}

// sequentialDigest runs one cell and hashes its Result, its JSON trace
// and its final board snapshot.
func sequentialDigest(t *testing.T, run sequentialRun) string {
	t.Helper()
	res, b, log := run()
	h := sha256.New()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	if err := log.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	for _, s := range b.Snapshot() {
		h.Write([]byte{byte(s)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadSequentialGolden reads the checked-in table: one
// "strategy graph sha256" row per cell.
func loadSequentialGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(sequentialGoldenFile)
	if err != nil {
		t.Fatalf("sequential goldens: %v", err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("sequential goldens: malformed row %q", line)
		}
		rows[fs[0]+" "+fs[1]] = fs[2]
	}
	return rows
}

// TestSequentialGolden recomputes every cell and compares it with the
// checked-in digest.
func TestSequentialGolden(t *testing.T) {
	want := loadSequentialGolden(t)
	var rows []string
	mismatches := 0
	cells := sequentialCells(t)
	for _, c := range cells {
		key := c.strategy + " " + c.graph
		got := sequentialDigest(t, c.run)
		rows = append(rows, key+" "+got)
		if want[key] != got {
			mismatches++
		}
		delete(want, key)
	}
	if len(cells) != 65 {
		t.Errorf("sequential table has %d cells, want 65", len(cells))
	}
	for key := range want {
		t.Errorf("sequential golden row %q matches no cell", key)
	}
	if mismatches > 0 {
		for _, r := range rows {
			t.Log(r)
		}
		t.Fatalf("%d of %d sequential cells differ (recomputed rows logged above)", mismatches, len(rows))
	}
}
