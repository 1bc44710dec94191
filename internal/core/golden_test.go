package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"hypersearch/internal/faults"
)

// The golden table pins every discrete-event strategy's observable
// output — the JSON trace, every node's clean order and clean time,
// and the metrics.Result — for d = 0..8 under unit and adversarial
// latency, with the every-move contiguity check off and (for d <= 6)
// on, and under each DES fault plan. Any change to event order, to
// the sequence of latency draws and fault consultations, or to the
// accounting shows up as a digest mismatch. One SHA-256 covers all
// runs of one (strategy, d, plan) cell.
//
// On mismatch the test logs every recomputed row in the table's own
// format; a deliberate behaviour change regenerates testdata/golden.txt
// from that log.

// goldenStrategy is one strategy configuration of the table.
type goldenStrategy struct {
	label    string
	strategy string
	team     int  // NaiveConvoy team size
	faulted  bool // runs every fault plan, not only "none"
}

var goldenStrategies = []goldenStrategy{
	{label: Clean, strategy: Clean, faulted: true},
	{label: Cloning, strategy: Cloning, faulted: true},
	// The synchronous variant's lockstep schedule asserts unit timing
	// and panics when an injected delay holds a hop back past its
	// destination's round, so it runs fault-free only.
	{label: Synchronous, strategy: Synchronous},
	{label: NaiveDFS, strategy: NaiveDFS, faulted: true},
	{label: NaiveConvoy + "/1", strategy: NaiveConvoy, team: 1, faulted: true},
	{label: NaiveConvoy + "/3", strategy: NaiveConvoy, team: 3, faulted: true},
	{label: Visibility, strategy: Visibility, faulted: true},
}

// goldenLatencies are the latency modes of every cell: unit latency
// (0), then the asynchronous adversary at two bounds and two seeds.
var goldenLatencies = []struct{ max, seed int64 }{
	{0, 0}, {3, 1}, {3, 2}, {13, 1}, {13, 2},
}

// goldenPlans are the DES fault plans; nil is the fault-free run.
var goldenPlans = []struct {
	name string
	plan *faults.Plan
}{
	{"none", nil},
	{"stall", &faults.Plan{Name: "stall", Seed: 1, Faults: []faults.Fault{
		{Kind: faults.Stall, Target: faults.TargetAny, At: 3, Delay: 5},
		{Kind: faults.Stall, Target: faults.TargetSync, At: 2, Delay: 4},
	}}},
	{"latency-spike", &faults.Plan{Name: "latency-spike", Seed: 2, Faults: []faults.Fault{
		{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 2, Until: 9, Delay: 3},
		{Kind: faults.LatencySpike, Target: "agent:1", At: 1, Until: 3, Delay: 6},
	}}},
	{"lock-starve", &faults.Plan{Name: "lock-starve", Seed: 3, Faults: []faults.Fault{
		{Kind: faults.LockStarve, Target: faults.TargetAny, At: 4, Delay: 7},
		{Kind: faults.LockStarve, Target: faults.TargetAny, At: 10, Delay: 2},
	}}},
	{"kernel-lag", &faults.Plan{Name: "kernel-lag", Seed: 4, Faults: []faults.Fault{
		{Kind: faults.KernelLag, From: 2, To: 7},
		{Kind: faults.KernelLag, From: 11, To: 13},
	}}},
	{"kernel-lag+sync-spike", &faults.Plan{Name: "kernel-lag+sync-spike", Seed: 5, Faults: []faults.Fault{
		{Kind: faults.KernelLag, From: 3, To: 9},
		{Kind: faults.LatencySpike, Target: faults.TargetSync, At: 1, Until: 4, Delay: 3},
	}}},
	// Delays of 64 or more steps: events due that far ahead, and a
	// kernel-lag window that empties the near future and jumps the
	// clock to its end.
	{"far-future", &faults.Plan{Name: "far-future", Seed: 6, Faults: []faults.Fault{
		{Kind: faults.Stall, Target: faults.TargetAny, At: 3, Delay: 100},
		{Kind: faults.LatencySpike, Target: faults.TargetAny, At: 5, Until: 8, Delay: 70},
		{Kind: faults.KernelLag, From: 12, To: 300},
	}}},
}

const (
	goldenMaxDim   = 8
	goldenCheckDim = 6 // CheckEveryMove also runs on for d <= goldenCheckDim
	goldenFile     = "testdata/golden.txt"
)

// goldenDigest runs every (latency, contiguity-check) combination of
// one cell and hashes the observables of each run in order.
func goldenDigest(t *testing.T, gs goldenStrategy, d int, plan *faults.Plan) (string, int) {
	t.Helper()
	h := sha256.New()
	runs := 0
	checks := []bool{false}
	if d <= goldenCheckDim {
		checks = append(checks, true)
	}
	for _, lat := range goldenLatencies {
		for _, check := range checks {
			spec := Spec{
				Strategy:           gs.strategy,
				Dim:                d,
				AdversarialLatency: lat.max,
				Seed:               lat.seed,
				ConvoyTeam:         gs.team,
				CheckEveryMove:     check,
				Record:             true,
				Faults:             plan,
			}
			res, env, err := Run(spec)
			if err != nil {
				t.Fatalf("%s d=%d: %v", gs.label, d, err)
			}
			fmt.Fprintf(h, "run %d/%d/%t\n", lat.max, lat.seed, check)
			if err := env.Log().WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			var buf [8]byte
			for v := 0; v < env.H.Order(); v++ {
				binary.LittleEndian.PutUint64(buf[:], uint64(env.B.CleanOrder(v)))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], uint64(env.B.CleanTime(v)))
				h.Write(buf[:])
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(js)
			runs++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), runs
}

// loadGolden reads the checked-in table: one "label d plan sha256"
// row per cell.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("golden table: %v", err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 4 {
			t.Fatalf("golden table: malformed row %q", line)
		}
		rows[goldenKey(fs[0], fs[1], fs[2])] = fs[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

func goldenKey(label, d, plan string) string { return label + " " + d + " " + plan }

// TestGoldenDESOutputs recomputes every cell and compares it with the
// checked-in digest.
func TestGoldenDESOutputs(t *testing.T) {
	want := loadGolden(t)
	var rows []string
	mismatches, runs := 0, 0
	for _, gs := range goldenStrategies {
		for d := 0; d <= goldenMaxDim; d++ {
			for _, gp := range goldenPlans {
				if gp.plan != nil && !gs.faulted {
					continue
				}
				got, n := goldenDigest(t, gs, d, gp.plan)
				runs += n
				key := goldenKey(gs.label, strconv.Itoa(d), gp.name)
				rows = append(rows, key+" "+got)
				if want[key] != got {
					mismatches++
				}
				delete(want, key)
			}
		}
	}
	if runs != 3440 {
		t.Errorf("golden table ran %d runs, want 3440", runs)
	}
	for key := range want {
		t.Errorf("golden table row %q matches no cell", key)
	}
	if mismatches > 0 {
		for _, r := range rows {
			t.Log(r)
		}
		t.Fatalf("%d of %d golden cells differ (recomputed rows logged above)", mismatches, len(rows))
	}
}
