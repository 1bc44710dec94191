package main

import "testing"

// The campaign report is built only from deterministic quantities, so
// the parallel fan-out must render byte-for-byte what the serial path
// renders — the scheduler determinism contract on the fault surface.
// Both families are under the contract.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	const d = 3
	serial, okS, err := runFamilies(d, 1, familyAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, okP, err := runFamilies(d, 4, familyAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !okS || !okP {
		t.Fatalf("campaign failed (serial ok=%v, parallel ok=%v):\n%s", okS, okP, serial)
	}
	if serial != parallel {
		t.Fatalf("parallel campaign diverged from serial.\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// The netsim family alone must also replay byte-identically — the
// property `-verify` enforces on the CLI.
func TestNetsimFamilyVerifyReplay(t *testing.T) {
	const d = 4
	first, ok, err := runFamilies(d, 2, familyNetsim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("netsim campaign failed:\n%s", first)
	}
	again, _, err := runFamilies(d, 2, familyNetsim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("netsim campaign rerun diverged.\nfirst:\n%s\nagain:\n%s", first, again)
	}
}

// A -scenarios subset must run exactly the named scenarios and replay
// byte-identically, and a name that is unknown or outside the selected
// family must be rejected up front.
func TestScenarioSubsetSelection(t *testing.T) {
	keep, err := parseScenarios(familyAll, "homebase-islanded , crash-cascade")
	if err != nil {
		t.Fatal(err)
	}
	first, ok, err := runFamilies(3, 2, familyAll, keep)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("subset campaign failed:\n%s", first)
	}
	for _, want := range []string{"homebase-islanded", "crash-cascade"} {
		if !contains(first, want) {
			t.Errorf("subset report missing scenario %q:\n%s", want, first)
		}
	}
	for _, absent := range []string{"lossy-links", "cleaner-crash", "clean-cut"} {
		if contains(first, absent) {
			t.Errorf("subset report includes unselected scenario %q:\n%s", absent, first)
		}
	}
	again, _, err := runFamilies(3, 2, familyAll, keep)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("subset rerun diverged.\nfirst:\n%s\nagain:\n%s", first, again)
	}

	for _, row := range []struct {
		family, sel string
		wantErr     string // a substring of the rejection
	}{
		{familyAll, "no-such-scenario", `unknown scenario "no-such-scenario"`},
		// A typo must come back with the nearest real scenario, the same
		// hint hqbench gives on unknown families.
		{familyAll, "lossy-link", `did you mean "lossy-links"`},
		// A scenario of the other family would select nothing to run
		// and pass silently.
		{familyNetsim, "cleaner-crash", "in the runtime family"},
		{familyRuntime, "lossy-links,cleaner-crash", "in the netsim family"},
	} {
		if _, err := parseScenarios(row.family, row.sel); err == nil || indexOf(err.Error(), row.wantErr) < 0 {
			t.Errorf("-family %s -scenarios %s: got error %v, want one containing %q", row.family, row.sel, err, row.wantErr)
		}
	}
	if sel, err := parseScenarios(familyAll, ""); err != nil || sel != nil {
		t.Errorf("empty selection should mean all (nil), got %v, %v", sel, err)
	}
}

func contains(report, name string) bool {
	for _, line := range splitLines(report) {
		if len(line) > 0 && line[0] == '|' && indexOf(line, name) >= 0 {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
