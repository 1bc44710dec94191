package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"hypersearch/internal/envpool"
	"hypersearch/internal/sched"
)

func TestReportRender(t *testing.T) {
	r := t5(envpool.New(), 4)
	out := r.Render()
	for _, want := range []string{"## T5", "Paper claim", "Verdict", "| d "} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTheoremReportsReproduce(t *testing.T) {
	const maxD = 7
	pool := envpool.New()
	for _, rep := range []Report{t5(pool, maxD), t7(pool, maxD), t8(pool, maxD), v1(pool, maxD), v2(pool, maxD)} {
		if rep.Verdict != "REPRODUCED" {
			t.Errorf("%s verdict = %q", rep.ID, rep.Verdict)
		}
		if rep.Table.Rows() == 0 {
			t.Errorf("%s has no rows", rep.ID)
		}
	}
}

func TestT2Verdict(t *testing.T) {
	rep := t2(envpool.New(), 7)
	if !strings.Contains(rep.Verdict, "REPRODUCED") {
		t.Errorf("T2 verdict = %q", rep.Verdict)
	}
	if rep.Table.Rows() != 6 {
		t.Errorf("T2 rows = %d", rep.Table.Rows())
	}
}

func TestT3T4HaveBoundedRatios(t *testing.T) {
	pool := envpool.New()
	for _, rep := range []Report{t3(pool, 7), t4(pool, 7)} {
		if rep.Table.Rows() == 0 {
			t.Errorf("%s empty", rep.ID)
		}
	}
}

func TestX2FindsKnownOptima(t *testing.T) {
	rep := X2()
	md := rep.Table.Markdown()
	// H_4 -> 7 agents optimal vs 8 provisioned (exhaustively verified).
	if !strings.Contains(md, "7") || !strings.Contains(md, "8") {
		t.Errorf("unexpected X2 table:\n%s", md)
	}
	if rep.Table.Rows() != 4 {
		t.Errorf("X2 rows = %d", rep.Table.Rows())
	}
}

func TestX3AllSeedsSafe(t *testing.T) {
	rep := X3(4, 1)
	if !strings.Contains(rep.Verdict, "REPRODUCED") {
		t.Errorf("X3 verdict = %q", rep.Verdict)
	}
	md := rep.Table.Markdown()
	if strings.Contains(md, "false") {
		t.Errorf("X3 has failures:\n%s", md)
	}
}

func TestX4ShowsBaselineFailure(t *testing.T) {
	rep := x4(envpool.New(), 5)
	md := rep.Table.Markdown()
	if !strings.Contains(md, "false") {
		t.Errorf("X4 should show failed captures:\n%s", md)
	}
	if !strings.Contains(md, "visibility") {
		t.Errorf("X4 missing the working strategy:\n%s", md)
	}
}

func TestX5ShowsChordBreakage(t *testing.T) {
	rep := X5(5)
	md := rep.Table.Markdown()
	if !strings.Contains(md, "false") {
		t.Errorf("X5 replay should break on the hypercube:\n%s", md)
	}
}

func TestXIntruderCaptures(t *testing.T) {
	rep := xIntruder(envpool.New(), 5, 3, 1)
	if rep.Verdict != "REPRODUCED" {
		t.Errorf("intruder verdict = %q", rep.Verdict)
	}
}

func TestFiguresRender(t *testing.T) {
	figs := Figures()
	if len(figs) != 4 {
		t.Fatalf("%d figures", len(figs))
	}
	wants := []string{"Broadcast tree T(6)", "Cleaning order", "Classes C_i", "Cleaning schedule"}
	for i, w := range wants {
		if !strings.Contains(figs[i], w) {
			t.Errorf("figure %d missing %q", i+1, w)
		}
	}
}

func TestX7LowerBound(t *testing.T) {
	rep := X7(8)
	if !strings.Contains(rep.Verdict, "FINDING") {
		t.Errorf("X7 verdict = %q", rep.Verdict)
	}
	if rep.Table.Rows() != 7 {
		t.Errorf("X7 rows = %d", rep.Table.Rows())
	}
}

func TestX8GenericStrategies(t *testing.T) {
	rep := X8(5)
	if rep.Table.Rows() != 4 {
		t.Errorf("X8 rows = %d", rep.Table.Rows())
	}
}

func TestX9Netsim(t *testing.T) {
	rep := X9(5, 3, 1)
	if rep.Verdict != "REPRODUCED" {
		t.Errorf("X9 verdict = %q", rep.Verdict)
	}
	if strings.Contains(rep.Table.Markdown(), "false") {
		t.Errorf("X9 has failures:\n%s", rep.Table.Markdown())
	}
}

func TestX9CeilingAdaptsToCores(t *testing.T) {
	cases := []struct{ cpus, want int }{
		{1, 10}, // historical cap on a single core
		{2, 11},
		{3, 11},
		{4, 12},
		{8, 12}, // saturates at the proven d=12 sweep
		{64, 12},
	}
	for _, c := range cases {
		if got := x9Ceiling(c.cpus); got != c.want {
			t.Errorf("x9Ceiling(%d) = %d, want %d", c.cpus, got, c.want)
		}
	}
}

// The adaptive ceiling must not disturb the determinism contract: the
// X9 sweep renders byte-identically on the serial and parallel paths
// at any capped dimension.
func TestX9SerialRenderingPinned(t *testing.T) {
	serial := X9(4, 2, 1)
	parallel := X9(4, 2, 4)
	if serial.Table.Markdown() != parallel.Table.Markdown() {
		t.Fatalf("X9 rendering diverges between serial and parallel:\n%s\nvs\n%s",
			serial.Table.Markdown(), parallel.Table.Markdown())
	}
}

func TestX10Pareto(t *testing.T) {
	rep := X10()
	md := rep.Table.Markdown()
	// H_3's frontier starts at team 4; H_4's at team 7.
	if !strings.Contains(md, "H_3") || !strings.Contains(md, "H_4") {
		t.Errorf("X10 table:\n%s", md)
	}
	if rep.Table.Rows() != 5+9 {
		t.Errorf("X10 rows = %d", rep.Table.Rows())
	}
}

// reportGoldenFile pins one SHA-256 per rendered report of All(5, 2, 4):
// "ID sha256" rows. X9's dimension cap is min(5, x9Ceiling(NumCPU)) = 5
// on every host, so the table does not depend on the machine.
const reportGoldenFile = "testdata/reports.txt"

// loadReportGolden reads the checked-in report digests by ID.
func loadReportGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(reportGoldenFile)
	if err != nil {
		t.Fatalf("report goldens: %v", err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 2 {
			t.Fatalf("report goldens: malformed row %q", line)
		}
		rows[fs[0]] = fs[1]
	}
	return rows
}

// All and Run read one registry table: All's report IDs are exactly
// the registry's IDs, in order and without duplicates, and Run
// resolves each of them and nothing else. Every rendered report
// matches its checked-in digest; on mismatch the test logs every
// recomputed row in the table's format, from which a deliberate
// behaviour change regenerates testdata/reports.txt.
func TestAllProducesEveryReport(t *testing.T) {
	reps := All(5, 2, 4)
	want := loadReportGolden(t)
	var got, rows []string
	seen := map[string]bool{}
	mismatches := 0
	for _, r := range reps {
		if seen[r.ID] {
			t.Errorf("duplicate report %s", r.ID)
		}
		seen[r.ID] = true
		got = append(got, r.ID)
		if r.Verdict == "MISMATCH" {
			t.Errorf("%s mismatched", r.ID)
		}
		sum := sha256.Sum256([]byte(r.Render()))
		digest := hex.EncodeToString(sum[:])
		rows = append(rows, r.ID+" "+digest)
		if want[r.ID] != digest {
			mismatches++
		}
		delete(want, r.ID)
	}
	for id := range want {
		t.Errorf("report golden row %q matches no report", id)
	}
	if mismatches > 0 {
		for _, r := range rows {
			t.Log(r)
		}
		t.Errorf("%d of %d report digests differ (recomputed rows logged above)", mismatches, len(rows))
	}
	if want := IDs(); len(want) != 18 || !slices.Equal(got, want) {
		t.Errorf("All report IDs %v, registry IDs %v", got, want)
	}
	if r, ok := Run("X4", 3, 1, 1); !ok || r.ID != "X4" {
		t.Errorf("Run(X4) = %q, %v", r.ID, ok)
	}
	if _, ok := Run("X99", 3, 1, 1); ok {
		t.Error("Run accepted an unknown experiment ID")
	}
}

// The scheduler determinism contract, end to end: the fully rendered
// report set must be byte-identical between the serial path and a
// parallel fan-out.
func TestAllParallelMatchesSerial(t *testing.T) {
	render := func(reps []Report) string {
		var sb strings.Builder
		for _, r := range reps {
			sb.WriteString(r.Render())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	serial := render(All(4, 2, 1))
	parallel := render(All(4, 2, 4))
	if serial != parallel {
		t.Fatal("parallel All diverged from the serial rendering")
	}
}

// The per-experiment seed sweeps must likewise be worker-count
// independent.
func TestSeedSweepsParallelMatchSerial(t *testing.T) {
	if s, p := X3(3, 1).Render(), X3(3, 4).Render(); s != p {
		t.Error("X3 parallel rendering diverged from serial")
	}
	if s, p := X9(4, 3, 1).Render(), X9(4, 3, 4).Render(); s != p {
		t.Error("X9 parallel rendering diverged from serial")
	}
	if s, p := xIntruder(envpool.New(), 4, 3, 1).Render(), xIntruder(envpool.New(), 4, 3, 4).Render(); s != p {
		t.Error("XIntruder parallel rendering diverged from serial")
	}
}

// BenchmarkExperimentReports measures the full harness end to end (a
// smaller sweep than the CLI default, to keep bench runs bounded),
// once on the serial path and once fanned across the default worker
// count — the wall-clock ratio between the two is the scheduler's
// speedup on this machine.
func BenchmarkExperimentReports(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("workers=%d", sched.DefaultWorkers()), sched.DefaultWorkers()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := len(All(6, 3, bc.workers)); got != 18 {
					b.Fatalf("%d reports", got)
				}
			}
		})
	}
}
