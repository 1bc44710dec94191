// Package hypersearch reproduces "Contiguous Search in the Hypercube
// for Capturing an Intruder" (Flocchini, Huang, Luccio; IPPS 2005): a
// team of asynchronous mobile agents cleans a hypercube network so
// that an arbitrarily fast intruder can never re-enter cleaned
// territory and is inevitably captured.
//
// The implementation lives under internal/: the public entry point is
// internal/core (single-call API over strategies and engines), with
// the topology, search-state, simulation, strategy, runtime, and
// experiment packages beneath it. cmd/hqbench times the paper's runs
// and checks every cost bound; see DESIGN.md for the system inventory
// and EXPERIMENTS.md for measured-versus-claimed results.
package hypersearch
