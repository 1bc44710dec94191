package serve

import (
	goruntime "runtime"
	"testing"
	"time"

	"hypersearch/internal/core"
)

// SerialRecords runs every DES spec on a fresh environment, whose
// simulator retires its process goroutines when the run returns, and
// every network spec on an arena that joins its hosts: repeated calls
// must leave the goroutine count where it started. (A pooled
// environment keeps its workers parked for reuse, so a pool built per
// call would leak them.)
func TestSerialRecordsLeavesNoGoroutines(t *testing.T) {
	reqs := []*Request{
		{DimMin: 6, Protocols: []string{core.Clean, core.Visibility}},
		{DimMin: 3, DimMax: 4, Protocols: []string{core.Clean, core.Visibility}, Engine: EngineNetwork},
	}
	run := func() {
		for _, req := range reqs {
			if _, err := SerialRecords(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // starts whatever the Go runtime starts lazily
	before := goruntime.NumGoroutine()
	for i := 0; i < 20; i++ {
		run()
	}
	// Retired goroutines may still be on their way out; give them a
	// moment rather than racing their exit.
	after := goruntime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = goruntime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("20 SerialRecords calls left %d goroutines behind (%d before, %d after)", after-before, before, after)
	}
}
