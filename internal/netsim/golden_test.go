package netsim

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hypersearch/internal/faults"
	"hypersearch/internal/metrics"
)

// The netsim golden table pins the full Stats of the three
// message-passing protocols: the Result, the message counts and the
// wire Summary. Each cell is one run on a fresh fabric at d = 0..6,
// fault-free and, for d >= 2, under every netsimFaultPlans plan
// (deliveryOnlyPlans for CLEAN, which rejects host crashes), at
// MaxLatency 0 and 40µs. Every recorded field is a pure function of
// the protocol, the dimension and the plan, never of the goroutine
// schedule, so the table holds at any GOMAXPROCS. On mismatch the test
// logs every recomputed row in the table's own format; a deliberate
// behaviour change regenerates testdata/golden.txt from that log.
const netsimGoldenFile = "testdata/golden.txt"

// goldenLatencies are the MaxLatency values every cell runs at: the
// synchronous path and the timer path.
var goldenLatencies = []time.Duration{0, 40 * time.Microsecond}

// goldenCell is one row of the table.
type goldenCell struct {
	key string
	run func() Stats
}

func goldenCells() []goldenCell {
	protocols := []struct {
		name  string
		run   func(int, Config) Stats
		plans func(int) []*faults.Plan
	}{
		{"visibility", Run, netsimFaultPlans},
		{"cloning", RunCloning, netsimFaultPlans},
		{"clean", RunClean, deliveryOnlyPlans},
	}
	var cells []goldenCell
	for _, p := range protocols {
		for d := 0; d <= 6; d++ {
			plans := []*faults.Plan{nil}
			if d >= 2 {
				plans = append(plans, p.plans(d)...)
			}
			for _, plan := range plans {
				name := "none"
				if plan != nil {
					name = plan.Name
				}
				for _, lat := range goldenLatencies {
					cfg := Config{Seed: int64(d + 5), MaxLatency: lat, Faults: plan}
					cells = append(cells, goldenCell{
						key: fmt.Sprintf("%s d=%d lat=%dus plan=%s", p.name, d, lat.Microseconds(), name),
						run: func() Stats { return p.run(d, cfg) },
					})
				}
			}
		}
	}
	return cells
}

// plainResult drops metrics.Result's String method, so %v prints
// every field instead of the one-line summary.
type plainResult metrics.Result

// goldenRow renders a cell's Stats: every field, in declaration order.
func goldenRow(s Stats) string {
	return fmt.Sprintf("%v %d %d %d %v", plainResult(s.Result), s.AgentMessages, s.BeaconMessages, s.BeaconBits, s.Link)
}

// loadNetsimGolden reads the checked-in table: one
// "protocol d=N lat=Nus plan=name stats" row per cell, the key being
// the first four fields.
func loadNetsimGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(netsimGoldenFile)
	if err != nil {
		t.Fatalf("netsim goldens: %v", err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.SplitN(line, " ", 5)
		if len(fs) != 5 {
			t.Fatalf("netsim goldens: malformed row %q", line)
		}
		rows[strings.Join(fs[:4], " ")] = fs[4]
	}
	return rows
}

// TestNetsimGolden recomputes every cell and compares its Stats with
// the checked-in row.
func TestNetsimGolden(t *testing.T) {
	want := loadNetsimGolden(t)
	var rows []string
	mismatches := 0
	cells := goldenCells()
	for _, c := range cells {
		got := goldenRow(c.run())
		rows = append(rows, c.key+" "+got)
		if want[c.key] != got {
			mismatches++
		}
		delete(want, c.key)
	}
	if len(cells) != 222 {
		t.Errorf("netsim table has %d cells, want 222", len(cells))
	}
	for key := range want {
		t.Errorf("netsim golden row %q matches no cell", key)
	}
	if mismatches > 0 {
		for _, r := range rows {
			t.Log(r)
		}
		t.Fatalf("%d of %d netsim cells differ (recomputed rows logged above)", mismatches, len(rows))
	}
}
