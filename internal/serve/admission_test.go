package serve

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"hypersearch/internal/core"
	"hypersearch/internal/faults"
)

// The admission oracle pins which campaigns Request.Validate admits,
// over the engine names, each protocol alone, a set of dimension
// ranges and a set of fault plans. One row of testdata/admission.txt
// holds one (engine, protocol, plan) triple and its outcome for each
// range. On mismatch the test logs every recomputed row in the file's
// format.

// admissionPlans mirror core's admission oracle: one plan per kind of
// admission decision.
var admissionPlans = []struct {
	name string
	plan *faults.Plan
}{
	{"none", nil},
	{"stall", &faults.Plan{Name: "stall", Seed: 1, Faults: []faults.Fault{
		{Kind: faults.Stall, Target: faults.TargetAny, At: 3, Delay: 5},
	}}},
	{"lost-wakeup", &faults.Plan{Name: "lost-wakeup", Seed: 2, Faults: []faults.Fault{
		{Kind: faults.LostWakeup, At: 1, Until: 200},
	}}},
	{"crash", &faults.Plan{Name: "crash", Seed: 3, Faults: []faults.Fault{
		{Kind: faults.Crash, Target: "order:p0.e1", At: 1},
	}}},
	{"link-drop", &faults.Plan{Name: "link-drop", Seed: 4, Faults: []faults.Fault{
		{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, 1), At: 1},
	}}},
	{"host-crash", &faults.Plan{Name: "host-crash", Seed: 5, Faults: []faults.Fault{
		{Kind: faults.HostCrash, Target: faults.LinkTarget(0, 1), At: 1},
	}}},
	// Host 8 is outside H_3 but inside every larger cube.
	{"link-outside-h3", &faults.Plan{Name: "link-outside-h3", Seed: 6, Faults: []faults.Fault{
		{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, 8), At: 1},
	}}},
	{"kernel-lag-maxint", &faults.Plan{Name: "kernel-lag-maxint", Seed: 7, Faults: []faults.Fault{
		{Kind: faults.KernelLag, From: 0, To: math.MaxInt64},
	}}},
}

// validateOutcome validates the normalized request and names what
// happened.
func validateOutcome(q Request, lim Limits) (out string) {
	defer func() {
		if recover() != nil {
			out = "panicked"
		}
	}()
	q.Normalize()
	if q.Validate(lim) != nil {
		return "rejected"
	}
	return "accepted"
}

// TestAdmissionOracle recomputes every row of the oracle and compares
// it with testdata/admission.txt.
func TestAdmissionOracle(t *testing.T) {
	lim := Limits{MaxDim: 31, MaxRuns: 1 << 20}
	ranges := [][2]int{{1, 1}, {2, 3}, {24, 24}, {25, 25}, {31, 31}}
	protocols := []string{core.Clean, core.Visibility, core.Cloning, core.Synchronous, core.NaiveDFS, core.NaiveConvoy, "visibilty"}
	var got []string
	for _, engine := range []string{EngineDES, EngineNetwork, "quantum"} {
		for _, p := range protocols {
			for _, plan := range admissionPlans {
				var sb strings.Builder
				fmt.Fprintf(&sb, "%s %s %s:", engine, p, plan.name)
				for _, r := range ranges {
					q := Request{DimMin: r[0], DimMax: r[1], Protocols: []string{p}, Engine: engine, Faults: plan.plan}
					fmt.Fprintf(&sb, " [%d,%d]=%s", r[0], r[1], validateOutcome(q, lim))
				}
				got = append(got, sb.String())
			}
		}
	}

	f, err := os.Open("testdata/admission.txt")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	diff := len(got) != len(want)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("admission row %d:\n got  %s\n want %s", i, got[i], want[i])
			diff = true
		}
	}
	if diff {
		for _, r := range got {
			t.Log(r)
		}
		t.Fatalf("admission oracle differs (%d rows recomputed, %d in the file; rows logged above)", len(got), len(want))
	}
}
