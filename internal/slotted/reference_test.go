package slotted

// The frozen reference kernels: the identity-tracking implementation the
// count-only kernels in slotted.go and tree.go replaced, kept verbatim
// (only renamed) as the differential oracle for the production kernels and
// as the home of the assertions on per-packet fields production no longer
// computes. RunBatch stands in for both refRunBatch and the per-station
// refRunBatchUnaligned (see the package doc).

import (
	"sort"
	"testing"

	"repro/internal/backoff"
	"repro/internal/rng"
)

// refResult collects the outcome of one single-batch run in the abstract model.
type refResult struct {
	N int
	// CWSlots is the global index (1-based count) of the slot in which the
	// last packet succeeded: the paper's "contention-window slots" metric.
	CWSlots int
	// HalfSlots is the slot count at which ceil(n/2) packets had finished
	// (Figure 6).
	HalfSlots int
	// Collisions is the number of disjoint collisions: slots holding two or
	// more transmissions (Section IV's C_A).
	Collisions int
	// CollisionsAtHalf counts collisions in slots up to HalfSlots.
	CollisionsAtHalf int
	// EmptySlots counts slots up to CWSlots with no transmission.
	EmptySlots int
	// SingletonSlots counts slots with exactly one transmission (successes).
	SingletonSlots int
	// Attempts is the total number of transmission attempts by all packets.
	Attempts int
	// MaxAttemptsPerPacket is the maximum attempts by any single packet; in
	// the MAC world attempts-1 is that station's ACK-timeout count.
	MaxAttemptsPerPacket int
	// FinishSlots holds each packet's 1-based finishing slot, in packet order.
	FinishSlots []int
	// Windows is the number of contention windows the batch walked through.
	Windows int
}

// refRunBatch simulates one run with a fresh policy from f and randomness g,
// with the batch-aligned windows the paper's analysis uses: all stations
// share window boundaries. It panics if n < 1 or the policy stops making progress.
func refRunBatch(n int, f backoff.Factory, g *rng.Source) refResult {
	if n < 1 {
		panic("slotted: refRunBatch needs n >= 1")
	}
	policy := f()
	policy.Reset()

	res := refResult{N: n, FinishSlots: make([]int, n)}
	attempts := make([]int, n)

	// pending holds indices of unfinished packets.
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	half := (n + 1) / 2
	finished := 0

	// scratch pairs: (slot, packet) for the current window.
	type draw struct{ slot, pkt int }
	draws := make([]draw, 0, n)

	offset := 0 // global slots elapsed before the current window
	const maxWindows = 1 << 22
	for len(pending) > 0 {
		res.Windows++
		if res.Windows > maxWindows {
			panic("slotted: window schedule not making progress")
		}
		w := policy.NextWindow()
		if w < 1 {
			panic("slotted: policy returned window < 1")
		}

		draws = draws[:0]
		for _, p := range pending {
			draws = append(draws, draw{slot: g.Intn(w), pkt: p})
			attempts[p]++
			res.Attempts++
		}
		sort.Slice(draws, func(i, j int) bool { return draws[i].slot < draws[j].slot })

		// Walk runs of equal slot index.
		next := pending[:0]
		for i := 0; i < len(draws); {
			j := i + 1
			for j < len(draws) && draws[j].slot == draws[i].slot {
				j++
			}
			if j-i == 1 {
				pkt := draws[i].pkt
				res.SingletonSlots++
				res.FinishSlots[pkt] = offset + draws[i].slot + 1
				finished++
				if finished == half && res.HalfSlots == 0 {
					res.HalfSlots = offset + draws[i].slot + 1
					// Runs are processed in slot order, so res.Collisions
					// already counts exactly the collisions in slots before
					// this one (in this window and all earlier ones).
					res.CollisionsAtHalf = res.Collisions
				}
			} else {
				res.Collisions++
				for k := i; k < j; k++ {
					next = append(next, draws[k].pkt)
				}
			}
			i = j
		}
		pending = next
		offset += w
	}

	for _, p := range res.FinishSlots {
		if p > res.CWSlots {
			res.CWSlots = p
		}
	}
	for _, a := range attempts {
		if a > res.MaxAttemptsPerPacket {
			res.MaxAttemptsPerPacket = a
		}
	}
	// Empty slots: every slot up to the makespan that held no transmission.
	// Slots at or before CWSlots belong to fully processed windows except
	// the tail of the final window (all empty past the last success, and
	// excluded from the count by definition of CWSlots).
	res.EmptySlots = res.CWSlots - res.SingletonSlots - res.Collisions
	if res.EmptySlots < 0 {
		res.EmptySlots = 0
	}
	return res
}

// refRunBatchUnaligned simulates the same single batch but with per-station
// window boundaries: after a failure a station waits until the end of its
// own window and opens the next one there, with no global alignment. This
// matches how the schedule unrolls inside a real MAC once stations'
// histories diverge, and is the ablation counterpart of refRunBatch.
func refRunBatchUnaligned(n int, f backoff.Factory, g *rng.Source) refResult {
	if n < 1 {
		panic("slotted: refRunBatchUnaligned needs n >= 1")
	}
	res := refResult{N: n, FinishSlots: make([]int, n)}

	type station struct {
		policy   backoff.Policy
		winStart int // global slot where the current window begins
		winSize  int
		attempts int
	}
	sts := make([]*station, n)
	h := &attemptHeap{}
	for i := range sts {
		p := f()
		p.Reset()
		s := &station{policy: p, winStart: 0}
		s.winSize = p.NextWindow()
		s.attempts = 1
		sts[i] = s
		h.push(attempt{slot: g.Intn(s.winSize), id: i})
	}
	res.Attempts = n

	finished := 0
	half := (n + 1) / 2
	var ids []int
	for finished < n {
		if h.len() == 0 {
			panic("slotted: no pending attempts but packets unfinished")
		}
		top := h.pop()
		slot := top.slot
		ids = append(ids[:0], top.id)
		for h.len() > 0 && h.peek().slot == slot {
			ids = append(ids, h.pop().id)
		}
		if len(ids) == 1 {
			id := ids[0]
			res.SingletonSlots++
			res.FinishSlots[id] = slot + 1
			finished++
			if finished == half && res.HalfSlots == 0 {
				res.HalfSlots = slot + 1
				res.CollisionsAtHalf = res.Collisions
			}
		} else {
			res.Collisions++
			for _, id := range ids {
				s := sts[id]
				s.winStart += s.winSize
				s.winSize = s.policy.NextWindow()
				h.push(attempt{slot: s.winStart + g.Intn(s.winSize), id: id})
				s.attempts++
				res.Attempts++
			}
		}
	}
	for _, p := range res.FinishSlots {
		if p > res.CWSlots {
			res.CWSlots = p
		}
	}
	for _, s := range sts {
		if s.attempts > res.MaxAttemptsPerPacket {
			res.MaxAttemptsPerPacket = s.attempts
		}
	}
	res.EmptySlots = res.CWSlots - res.SingletonSlots - res.Collisions
	if res.EmptySlots < 0 {
		res.EmptySlots = 0
	}
	return res
}

// refRunTreeBatch resolves a single batch of n packets with the classic binary
// tree-splitting algorithm (Capetanakis 1979; reference [25] of the paper):
// the whole batch transmits, and every collision splits its participants by
// independent fair coin flips into two subgroups resolved depth-first. The
// expected makespan is ~2.885·n slots.
//
// Tree algorithms consume one unit of ternary feedback (idle/success/
// collision) per slot, so under the paper's cost lens every one of their
// Θ(n) collisions is as expensive as a windowed algorithm's — they optimize
// the same mis-priced metric. Included as the non-backoff baseline.
func refRunTreeBatch(n int, g *rng.Source) refResult {
	if n < 1 {
		panic("slotted: refRunTreeBatch needs n >= 1")
	}
	res := refResult{N: n, FinishSlots: make([]int, n)}
	attempts := make([]int, n)

	// The resolution stack holds packet groups awaiting their slot;
	// depth-first order matches the recursive definition.
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	stack := [][]int{all}
	slot := 0
	finished := 0
	half := (n + 1) / 2

	for len(stack) > 0 {
		group := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		slot++
		res.Windows++ // each tree node is its own single-slot "window"

		for _, pkt := range group {
			attempts[pkt]++
			res.Attempts++
		}
		switch len(group) {
		case 0:
			// Idle slot.
		case 1:
			res.SingletonSlots++
			res.FinishSlots[group[0]] = slot
			finished++
			if finished == half && res.HalfSlots == 0 {
				res.HalfSlots = slot
				res.CollisionsAtHalf = res.Collisions
			}
		default:
			res.Collisions++
			var left, right []int
			for _, pkt := range group {
				if g.Bernoulli(0.5) {
					left = append(left, pkt)
				} else {
					right = append(right, pkt)
				}
			}
			// Depth-first: resolve left before right.
			stack = append(stack, right, left)
		}
	}

	// The tree occupies the channel until its stack drains (trailing empty
	// right-subtree slots included), so the makespan is the full slot count.
	res.CWSlots = slot
	res.EmptySlots = res.CWSlots - res.SingletonSlots - res.Collisions
	for _, a := range attempts {
		if a > res.MaxAttemptsPerPacket {
			res.MaxAttemptsPerPacket = a
		}
	}
	return res
}

// attempt is a scheduled transmission attempt in the unaligned model.
type attempt struct {
	slot int
	id   int
}

// attemptHeap is a plain binary min-heap on attempt.slot, with id as the
// tiebreaker only for determinism of pop order (multiplicity in a slot is
// what matters, not order).
type attemptHeap struct {
	a []attempt
}

func (h *attemptHeap) len() int      { return len(h.a) }
func (h *attemptHeap) peek() attempt { return h.a[0] }

func (h *attemptHeap) less(i, j int) bool {
	if h.a[i].slot != h.a[j].slot {
		return h.a[i].slot < h.a[j].slot
	}
	return h.a[i].id < h.a[j].id
}

func (h *attemptHeap) push(x attempt) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *attemptHeap) pop() attempt {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.a) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.a) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.a[i], h.a[smallest] = h.a[smallest], h.a[i]
		i = smallest
	}
}

// checkRefInvariants asserts the per-packet invariants only the reference
// can observe: every packet finishes exactly once inside the makespan, and
// slots and attempts account for each other.
func checkRefInvariants(t *testing.T, res refResult, n int) {
	t.Helper()
	if res.N != n {
		t.Fatalf("N = %d, want %d", res.N, n)
	}
	if len(res.FinishSlots) != n {
		t.Fatalf("FinishSlots length %d", len(res.FinishSlots))
	}
	for i, s := range res.FinishSlots {
		if s < 1 {
			t.Fatalf("packet %d never finished (slot %d)", i, s)
		}
		if s > res.CWSlots {
			t.Fatalf("packet %d finished at %d > makespan %d", i, s, res.CWSlots)
		}
	}
	if res.SingletonSlots != n {
		t.Fatalf("SingletonSlots = %d, want %d (every packet exactly once)", res.SingletonSlots, n)
	}
	if res.CollisionsAtHalf > res.Collisions {
		t.Fatalf("CollisionsAtHalf %d > Collisions %d", res.CollisionsAtHalf, res.Collisions)
	}
	if res.Attempts < n {
		t.Fatalf("Attempts %d < n", res.Attempts)
	}
	// Each collision consumes >= 2 attempts; attempts = n successes plus
	// those lost to collisions.
	if res.Attempts-n < 2*res.Collisions {
		t.Fatalf("attempts %d inconsistent with %d collisions", res.Attempts, res.Collisions)
	}
	if res.MaxAttemptsPerPacket < 1 {
		t.Fatal("MaxAttemptsPerPacket < 1")
	}
	if res.EmptySlots < 0 || res.EmptySlots > res.CWSlots {
		t.Fatalf("EmptySlots %d out of range", res.EmptySlots)
	}
}

// diffAlgorithms is the differential space's algorithm axis: the paper's
// four schedules at any n, plus fixed and polynomial backoff at n < 32,
// where they still resolve a batch quickly.
var diffAlgorithms = []struct {
	name string
	f    backoff.Factory
	maxN int
}{
	{"BEB", backoff.NewBEB, 5000},
	{"LB", backoff.NewLB, 5000},
	{"LLB", backoff.NewLLB, 5000},
	{"STB", backoff.NewSTB, 5000},
	{"FIXED:64", func() backoff.Policy { return backoff.NewFixed(64) }, 31},
	{"POLY:2", func() backoff.Policy { return backoff.NewPoly(2) }, 31},
}

var diffModes = []string{"aligned", "unaligned", "tree"}

// diffKernel runs one point of the differential space through production
// and the reference and fails on any difference in the three public fields.
func diffKernel(t *testing.T, algo, mode int, n int, seed uint64) {
	t.Helper()
	a := diffAlgorithms[algo]
	var got Result
	var want refResult
	var err error
	switch diffModes[mode] {
	case "aligned":
		got, err = RunBatch(n, a.f, rng.New(seed))
		want = refRunBatch(n, a.f, rng.New(seed))
	case "unaligned": // RunBatch serves both alignments (see package doc)
		got, err = RunBatch(n, a.f, rng.New(seed))
		want = refRunBatchUnaligned(n, a.f, rng.New(seed))
	case "tree":
		got = RunTreeBatch(n, rng.New(seed))
		want = refRunTreeBatch(n, rng.New(seed))
	}
	if err != nil {
		t.Fatalf("%s %s n=%d seed=%d: %v", a.name, diffModes[mode], n, seed, err)
	}
	if got != counts(want) {
		t.Fatalf("%s %s n=%d seed=%d: got %+v, reference %+v", a.name, diffModes[mode], n, seed, got, counts(want))
	}
}

// counts projects a reference result onto the production Result.
func counts(r refResult) Result {
	return Result{CWSlots: r.CWSlots, HalfSlots: r.HalfSlots, Collisions: r.Collisions}
}

// TestAbstractKernelMatchesReference pins the count-only kernels to the
// frozen identity-tracking reference over algorithm × n × seed × mode.
func TestAbstractKernelMatchesReference(t *testing.T) {
	ns := []int{1, 2, 3, 5, 8, 17, 31, 100, 500, 2000}
	if testing.Short() {
		ns = ns[:8]
	}
	for algo, a := range diffAlgorithms {
		for mode := range diffModes {
			if diffModes[mode] == "tree" && algo > 0 {
				continue // the tree takes no schedule: run it once
			}
			for _, n := range ns {
				if n > a.maxN {
					continue
				}
				for seed := uint64(1); seed <= 3; seed++ {
					diffKernel(t, algo, mode, n, seed)
				}
			}
		}
	}
}

// FuzzAbstractKernelMatchesReference extends the table test to arbitrary
// seeds, batch sizes, algorithms and modes.
func FuzzAbstractKernelMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint8(0), uint8(0))
	f.Add(uint64(7), uint16(150), uint8(1), uint8(1))
	f.Add(uint64(42), uint16(999), uint8(2), uint8(0))
	f.Add(uint64(3), uint16(4999), uint8(3), uint8(1))
	f.Add(uint64(11), uint16(30), uint8(4), uint8(1))
	f.Add(uint64(12), uint16(30), uint8(5), uint8(0))
	f.Add(uint64(5), uint16(777), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, algoRaw, modeRaw uint8) {
		algo := int(algoRaw) % len(diffAlgorithms)
		n := int(nRaw)%diffAlgorithms[algo].maxN + 1
		diffKernel(t, algo, int(modeRaw)%len(diffModes), n, seed)
	})
}
