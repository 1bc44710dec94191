//go:build race

package netsim

// raceEnabled skips allocation-count assertions under the race
// detector, whose instrumentation perturbs malloc accounting.
const raceEnabled = true
