package main

import (
	"path/filepath"
	"testing"

	"hypersearch/internal/benchgate"
)

// TestFamiliesCoverBaselines checks the suite's names without running
// a family: each name is listed once, and every family a committed
// BENCH_*.json names is still in the suite, so dropping or renaming a
// baselined family fails here and not only in `make bench-check`.
func TestFamiliesCoverBaselines(t *testing.T) {
	have := map[string]bool{}
	for _, f := range families() {
		if have[f.name] {
			t.Errorf("family %q listed twice", f.name)
		}
		have[f.name] = true
	}
	if !have["adversarial-visibility/d=12"] {
		t.Error("no adversarial-visibility/d=12 family")
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines found (err %v)", err)
	}
	for _, p := range paths {
		rep, err := benchgate.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Families {
			if !have[r.Name] {
				t.Errorf("%s names family %q, which the suite lacks", filepath.Base(p), r.Name)
			}
		}
	}
}
