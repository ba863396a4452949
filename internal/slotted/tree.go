package slotted

import (
	"repro/internal/rng"
)

// RunTreeBatch resolves a single batch of n packets with the classic binary
// tree-splitting algorithm (Capetanakis 1979; reference [25] of the paper):
// the whole batch transmits, and every collision splits its participants by
// independent fair coin flips into two subgroups resolved depth-first. The
// expected makespan is ~2.885·n slots.
//
// Tree algorithms consume one unit of ternary feedback (idle/success/
// collision) per slot, so under the paper's cost lens every one of their
// Θ(n) collisions is as expensive as a windowed algorithm's — they optimize
// the same mis-priced metric. Included as the non-backoff baseline.
func RunTreeBatch(n int, g *rng.Source) Result {
	if n < 1 {
		panic("slotted: RunTreeBatch needs n >= 1")
	}
	var res Result

	// The resolution stack holds the sizes of the groups awaiting their
	// slot; depth-first order matches the recursive definition.
	stack := []int{n}
	slot := 0
	finished := 0
	half := (n + 1) / 2
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		slot++
		switch {
		case k == 1:
			finished++
			if finished == half {
				res.HalfSlots = slot
			}
		case k > 1:
			res.Collisions++
			left := 0
			for range k {
				if g.Bernoulli(0.5) {
					left++
				}
			}
			// Depth-first: resolve left before right.
			stack = append(stack, k-left, left)
		}
	}

	// The tree occupies the channel until its stack drains (trailing empty
	// right-subtree slots included), so the makespan is the full slot count.
	res.CWSlots = slot
	return res
}
