// Package slotted implements the abstract contention-resolution model the
// algorithmic literature analyzes and the paper's "simple Java simulation"
// re-creates (Figures 5, 15, 16): time is discretized into slots (A0), a
// slot delivers a packet iff exactly one station transmits in it (A1), and
// failure is known immediately (A2). There is no PHY, no MAC, no cost for a
// collision beyond the slot itself — which is precisely the mis-pricing the
// paper exposes.
//
// The package simulates a single batch of n packets walking a backoff
// policy's window schedule and reports the metrics the paper plots:
// contention-window slots (makespan in slots), slots to half-done, and
// disjoint collisions. All three depend only on the sequence of random
// draws, never on which packet drew which slot, so the kernels are
// count-only: they track slot values and group sizes, not packet identity.
//
// Per-station window boundaries (the abstract-unaligned model) coincide
// with aligned ones for a batch: every station starts at slot 0 and walks
// the same deterministic schedule, so a station's k-th window always opens
// at W_0+…+W_{k-1}. A per-station kernel redraws a window's collided
// stations one run at a time, in (slot, station) order, but every one of
// those draws is Intn(W_{k+1}) and all of them precede any draw for a later
// window, so its random stream is RunBatch's, draw for draw. RunBatch
// therefore serves both alignments; reference_test.go keeps the
// per-station kernel and pins the equality.
package slotted

import (
	"fmt"
	"slices"

	"repro/internal/backoff"
	"repro/internal/rng"
)

// Result collects the outcome of one single-batch run in the abstract model.
type Result struct {
	// CWSlots is the global index (1-based count) of the slot in which the
	// last packet succeeded: the paper's "contention-window slots" metric.
	CWSlots int
	// HalfSlots is the slot count at which ceil(n/2) packets had finished
	// (Figure 6).
	HalfSlots int
	// Collisions is the number of disjoint collisions: slots holding two or
	// more transmissions (Section IV's C_A).
	Collisions int
}

// maxWindows bounds the contention windows any one station may walk. A
// schedule that cannot resolve the batch (FIXED:1 with n >= 2 collides in
// every window forever) hits it and the run returns an error.
const maxWindows = 1 << 22

// RunBatch simulates one run with a fresh policy from f and randomness g:
// all stations share window boundaries, as in the paper's analysis (and, for
// a batch, as with per-station windows). It panics if n < 1 and returns an
// error if the schedule stops making progress.
func RunBatch(n int, f backoff.Factory, g *rng.Source) (Result, error) {
	if n < 1 {
		panic("slotted: RunBatch needs n >= 1")
	}
	policy := f()
	policy.Reset()

	var res Result
	half := (n + 1) / 2
	finished := 0
	slots := make([]int, n) // the current window's draws, one per pending packet
	offset := 0             // global slots elapsed before the current window
	for pending, windows := n, 1; pending > 0; windows++ {
		if windows > maxWindows {
			return Result{}, fmt.Errorf("slotted: %s makes no progress at n=%d: a station walked more than %d windows",
				policy.Name(), n, maxWindows)
		}
		w := policy.NextWindow()
		if w < 1 {
			panic("slotted: policy returned window < 1")
		}
		slots = slots[:pending]
		for i := range slots {
			slots[i] = g.Intn(w)
		}
		slices.Sort(slots)

		// Walk runs of equal slot index: a run of one is a success, a longer
		// run a collision whose packets all retry in the next window. Runs
		// come in slot order, so the last success seen is the makespan.
		pending = 0
		for i := 0; i < len(slots); {
			j := i + 1
			for j < len(slots) && slots[j] == slots[i] {
				j++
			}
			if j-i == 1 {
				finished++
				res.CWSlots = offset + slots[i] + 1
				if finished == half {
					res.HalfSlots = res.CWSlots
				}
			} else {
				res.Collisions++
				pending += j - i
			}
			i = j
		}
		offset += w
	}
	return res, nil
}
