package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"hypersearch/internal/bits"
	"hypersearch/internal/faults"
	"hypersearch/internal/trace"
)

// The admission oracle pins which specs Run accepts, rejects with an
// error, or panics on, over every engine name, every strategy name
// plus a typo, the dimension edges and a set of fault plans. One row
// of testdata/admission.txt holds one (engine, strategy, variant)
// triple and its outcome at each dimension. On mismatch the test logs
// every recomputed row in the file's format.

// admissionPlans are the fault plans of the oracle, one per kind of
// admission decision.
var admissionPlans = []struct {
	name string
	plan *faults.Plan
}{
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

// admissionEngines are the engine names of the oracle: the default,
// the three engines and an unknown one.
var admissionEngines = []string{"", EngineDES, EngineGoroutines, EngineNetwork, "quantum"}

// admissionStrategies are every strategy name plus a typo.
var admissionStrategies = []string{Clean, Visibility, Cloning, Synchronous, NaiveDFS, NaiveConvoy, "visibilty"}

// admissionDims are the dimensions of every row. The network engine
// adds its own limit plus one; the other engines would build a 2^25
// board there.
func admissionDims(engine string) []int {
	dims := []int{-1, 0, 1, 3, bits.MaxDim + 1}
	if engine == EngineNetwork {
		dims = append(dims, maxNetworkDim+1)
	}
	return dims
}

// outcome runs spec and names what happened.
func outcome(spec Spec) (out string) {
	defer func() {
		if recover() != nil {
			out = "panicked"
		}
	}()
	if _, _, err := Run(spec); err != nil {
		return "rejected"
	}
	return "accepted"
}

// admissionRows recomputes the oracle in the file's format.
func admissionRows() []string {
	type variant struct {
		name string
		set  func(*Spec)
	}
	variants := []variant{{"none", func(*Spec) {}}}
	for _, p := range admissionPlans {
		variants = append(variants, variant{p.name, func(s *Spec) { s.Faults = p.plan }})
	}
	variants = append(variants,
		variant{"record", func(s *Spec) { s.Record = true }},
		variant{"stream", func(s *Spec) { s.Stream = trace.NewStream(io.Discard) }},
	)
	var rows []string
	for _, engine := range admissionEngines {
		for _, strat := range admissionStrategies {
			for _, v := range variants {
				var sb strings.Builder
				fmt.Fprintf(&sb, "%q %s %s:", engine, strat, v.name)
				for _, d := range admissionDims(engine) {
					spec := Spec{Strategy: strat, Dim: d, Engine: engine, Seed: 1}
					v.set(&spec)
					fmt.Fprintf(&sb, " %d=%s", d, outcome(spec))
				}
				rows = append(rows, sb.String())
			}
		}
	}
	return rows
}

// readOracle returns the non-comment lines of a golden file.
func readOracle(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestAdmissionOracle recomputes every row of the admission oracle and
// compares it with testdata/admission.txt.
func TestAdmissionOracle(t *testing.T) {
	want := readOracle(t, "testdata/admission.txt")
	got := admissionRows()
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
