package slotted

import (
	"testing"
	"testing/quick"

	"repro/internal/backoff"
	"repro/internal/rng"
)

// mustRun runs RunBatch on a schedule that always makes progress.
func mustRun(t testing.TB, n int, f backoff.Factory, g *rng.Source) Result {
	t.Helper()
	res, err := RunBatch(n, f, g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkInvariants asserts what the production Result alone pins down; the
// per-packet invariants live on the reference (checkRefInvariants).
func checkInvariants(t *testing.T, res Result, n int) {
	t.Helper()
	if res.CWSlots < n {
		t.Fatalf("makespan %d < n = %d: pigeonhole violated", res.CWSlots, n)
	}
	if res.HalfSlots < 1 || res.HalfSlots > res.CWSlots {
		t.Fatalf("HalfSlots %d out of range (makespan %d)", res.HalfSlots, res.CWSlots)
	}
	if res.Collisions < 0 || res.Collisions > res.CWSlots {
		t.Fatalf("Collisions %d out of range (makespan %d)", res.Collisions, res.CWSlots)
	}
}

func TestRunBatchInvariantsAllAlgorithms(t *testing.T) {
	g := rng.New(1)
	for _, f := range backoff.PaperAlgorithms() {
		for _, n := range []int{1, 2, 3, 10, 50, 150} {
			res := mustRun(t, n, f, g.Derive(f().Name()))
			checkInvariants(t, res, n)
			checkRefInvariants(t, refRunBatch(n, f, g.Derive(f().Name())), n)
		}
	}
}

func TestRunBatchUnalignedInvariants(t *testing.T) {
	g := rng.New(2)
	for _, f := range backoff.PaperAlgorithms() {
		for _, n := range []int{1, 2, 10, 80} {
			// RunBatch is also the per-station kernel (see package doc).
			res := mustRun(t, n, f, g.Derive(f().Name()))
			checkInvariants(t, res, n)
			ref := refRunBatchUnaligned(n, f, g.Derive(f().Name()))
			checkRefInvariants(t, ref, n)
			if counts(ref) != res {
				t.Fatalf("%s n=%d: %+v, per-station reference %+v", f().Name(), n, res, counts(ref))
			}
		}
	}
}

func TestSinglePacketFinishesFirstWindow(t *testing.T) {
	res := mustRun(t, 1, backoff.NewBEB, rng.New(3))
	if res != (Result{CWSlots: 1, HalfSlots: 1}) {
		t.Fatalf("single packet: %+v", res)
	}
	if ref := refRunBatch(1, backoff.NewBEB, rng.New(3)); ref.Windows != 1 {
		t.Fatalf("single packet walked %d windows", ref.Windows)
	}
}

func TestTwoPacketsAlwaysCollideInWindowOne(t *testing.T) {
	// BEB's first window has size 1, so both packets must collide there.
	g := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		res := mustRun(t, 2, backoff.NewBEB, g.Derive(string(rune(trial))))
		if res.Collisions < 1 {
			t.Fatalf("trial %d: 2 packets in window of size 1 did not collide", trial)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := mustRun(t, 50, backoff.NewBEB, rng.New(99))
	b := mustRun(t, 50, backoff.NewBEB, rng.New(99))
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestHalfSlotsMatchesFinishOrder(t *testing.T) {
	g := rng.New(5)
	err := quick.Check(func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		res := mustRun(t, n, backoff.NewBEB, g.Derive(string(rune(seed))))
		ref := refRunBatch(n, backoff.NewBEB, g.Derive(string(rune(seed))))
		// Count packets finishing at or before HalfSlots: must be exactly
		// ceil(n/2) ... or more only if ties share the boundary slot, which
		// cannot happen (one success per slot).
		count := 0
		for _, s := range ref.FinishSlots {
			if s <= res.HalfSlots {
				count++
			}
		}
		return count == (n+1)/2
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSlotAccounting(t *testing.T) {
	// Within the makespan: empty + singleton + collision slots <= CWSlots,
	// and the gap is exactly 0 given EmptySlots is computed as remainder.
	g := rng.New(6)
	for _, f := range backoff.PaperAlgorithms() {
		res := refRunBatch(60, f, g.Derive(f().Name()))
		total := res.EmptySlots + res.SingletonSlots + res.Collisions
		if total != res.CWSlots {
			t.Fatalf("%s: slot accounting %d != makespan %d", f().Name(), total, res.CWSlots)
		}
	}
}

// TestExpectedOrderingCWSlots reproduces the qualitative content of Figure 5
// in miniature: with n = 150, the median CW slots should order
// STB < LB,LLB < BEB (the newer algorithms beat BEB on this metric).
func TestExpectedOrderingCWSlots(t *testing.T) {
	const n, trials = 150, 31
	g := rng.New(7)
	med := map[string]int{}
	for _, f := range backoff.PaperAlgorithms() {
		name := f().Name()
		vals := make([]int, trials)
		for tr := 0; tr < trials; tr++ {
			vals[tr] = mustRun(t, n, f, g.Derive(name+string(rune(tr)))).CWSlots
		}
		med[name] = medianInt(vals)
	}
	if !(med["STB"] < med["BEB"]) {
		t.Errorf("STB median CW slots %d not below BEB %d", med["STB"], med["BEB"])
	}
	if !(med["LB"] < med["BEB"]) {
		t.Errorf("LB median CW slots %d not below BEB %d", med["LB"], med["BEB"])
	}
	if !(med["LLB"] < med["BEB"]) {
		t.Errorf("LLB median CW slots %d not below BEB %d", med["LLB"], med["BEB"])
	}
}

// TestExpectedOrderingCollisions reproduces the core of Table III in
// miniature: at n = 150 the slower-backoff algorithms LB and LLB suffer
// more disjoint collisions than BEB.
func TestExpectedOrderingCollisions(t *testing.T) {
	const n, trials = 150, 31
	g := rng.New(8)
	med := map[string]int{}
	for _, f := range backoff.PaperAlgorithms() {
		name := f().Name()
		vals := make([]int, trials)
		for tr := 0; tr < trials; tr++ {
			vals[tr] = mustRun(t, n, f, g.Derive(name+string(rune(tr)))).Collisions
		}
		med[name] = medianInt(vals)
	}
	if !(med["LB"] > med["BEB"]) {
		t.Errorf("LB collisions %d not above BEB %d", med["LB"], med["BEB"])
	}
	if !(med["LLB"] > med["BEB"]) {
		t.Errorf("LLB collisions %d not above BEB %d", med["LLB"], med["BEB"])
	}
}

func TestCollisionsScaleRoughlyLinearlyForBEB(t *testing.T) {
	// Claim 1: BEB has O(n) collisions. Check the ratio collisions/n stays
	// bounded as n grows by 16x.
	g := rng.New(9)
	ratio := func(n int) float64 {
		const trials = 9
		vals := make([]int, trials)
		for tr := 0; tr < trials; tr++ {
			vals[tr] = mustRun(t, n, backoff.NewBEB, g.Derive(string(rune(n*100+tr)))).Collisions
		}
		return float64(medianInt(vals)) / float64(n)
	}
	r1, r2 := ratio(500), ratio(8000)
	if r2 > 2.5*r1 {
		t.Fatalf("BEB collisions/n grew from %.2f to %.2f over 16x n: not O(n)", r1, r2)
	}
}

func TestUnalignedStillFinishesEveryone(t *testing.T) {
	g := rng.New(10)
	for i, s := range refRunBatchUnaligned(120, backoff.NewSTB, g).FinishSlots {
		if s == 0 {
			t.Fatalf("unaligned STB: packet %d unfinished", i)
		}
	}
}

func TestRunBatchPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunBatch(0) did not panic")
		}
	}()
	_, _ = RunBatch(0, backoff.NewBEB, rng.New(1))
}

func TestHeapOrdering(t *testing.T) {
	h := &attemptHeap{}
	g := rng.New(11)
	for i := 0; i < 500; i++ {
		h.push(attempt{slot: g.Intn(100), id: i})
	}
	last := -1
	for h.len() > 0 {
		a := h.pop()
		if a.slot < last {
			t.Fatalf("heap popped out of order: %d after %d", a.slot, last)
		}
		last = a.slot
	}
}

func medianInt(xs []int) int {
	s := append([]int(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkRunBatchBEB150(b *testing.B) {
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		mustRun(b, 150, backoff.NewBEB, g)
	}
}

func BenchmarkRunBatchSTB150(b *testing.B) {
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		mustRun(b, 150, backoff.NewSTB, g)
	}
}

func BenchmarkRunBatchBEB10k(b *testing.B) {
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		mustRun(b, 10000, backoff.NewBEB, g)
	}
}

// BenchmarkRunBatchLLB10k prices the schedule with the most windows per
// batch; at n=10^4 it is what an abstract-unaligned LLB cell used to cost
// ~60 ms/op and 20k allocs/op for through one Policy per station.
func BenchmarkRunBatchLLB10k(b *testing.B) {
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		mustRun(b, 10000, backoff.NewLLB, g)
	}
}

func BenchmarkRunTreeBatch10k(b *testing.B) {
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		RunTreeBatch(10000, g)
	}
}

// TestNoProgressReturnsError: a schedule that can never resolve the batch
// (two stations in a window of one slot, forever) ends in an error once a
// station has walked maxWindows windows.
func TestNoProgressReturnsError(t *testing.T) {
	fixed1 := func() backoff.Policy { return backoff.NewFixed(1) }
	if _, err := RunBatch(2, fixed1, rng.New(1)); err == nil {
		t.Error("FIXED:1 n=2 returned no error")
	}
}
