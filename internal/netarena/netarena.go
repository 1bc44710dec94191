// Package netarena pools netsim network fabrics so sweeps reuse them
// across runs instead of rebuilding 2^d mailboxes, validator ledgers,
// per-host scratch and wire-fault state every time — the netsim
// analogue of internal/envpool for DES environments.
//
// Sharing contract (see ALGORITHMS.md, "Network arena reset contract"):
//
//   - a fabric holds one wiring (mailboxes, per-host scratch, the
//     wire-fault layer and the timer barrier) that the visibility,
//     cloning and CLEAN protocols share, so a pooled fabric may host
//     any protocol's run after any other's;
//   - the topology (hypercube + broadcast tree) holds only d and
//     computes every query from the node's bits, so each fabric builds
//     its own in O(1);
//   - all mutable fabric state — mailboxes (retained capacity bounded
//     by the mailbox reset), validator ledgers and replay scratch,
//     per-host scratch, faultlink link and ledger maps — is reset in
//     O(n) when the next run starts on the fabric;
//   - a fabric whose run panicked mid-flight is poisoned
//     (Fabric.Completed stays false): Release drops it, because
//     blocked host goroutines may still hold references into its
//     mailboxes and ledgers;
//   - no wall-clock timer outlives its run: the engines drain the
//     fabric's timer quiescence barrier before returning, and Release
//     re-asserts the drain, so a pooled fabric can never be touched
//     by a straggler from the run before.
//
// An Arena is NOT safe for concurrent use. Parallel sweeps give each
// sched worker its own Arena, mirroring envpool's per-worker pools:
// workers then reuse fabrics without locking.
package netarena

import "hypersearch/internal/netsim"

// Arena hands out reusable network fabrics, at most one cached per
// dimension (a sweep worker hosts one run at a time, so deeper stacks
// would only pin memory).
type Arena struct {
	fabrics map[int]*netsim.Fabric
}

// New returns an empty arena.
func New() *Arena { return &Arena{fabrics: map[int]*netsim.Fabric{}} }

// Acquire returns a fabric for dimension d: a pooled one when
// available, otherwise a fresh one. The caller owns it until Release.
func (a *Arena) Acquire(d int) *netsim.Fabric {
	if f := a.fabrics[d]; f != nil {
		delete(a.fabrics, d)
		return f
	}
	return netsim.NewFabric(d)
}

// Release returns a fabric to the arena. Poisoned fabrics — those
// whose run never completed, i.e. panicked or were never run at all —
// are dropped: their host goroutines may still reference the
// mailboxes and ledgers, so they must never be reused. For completed
// fabrics the quiescence barrier is re-asserted (a no-op after the
// engines' own drain) before the fabric becomes available again.
func (a *Arena) Release(f *netsim.Fabric) {
	if f == nil || !f.Completed() {
		return
	}
	f.Quiesce()
	a.fabrics[f.Dim()] = f
}
