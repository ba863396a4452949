package mac

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/phy"
	"repro/internal/rng"
)

// TestBatchResultsPinned pins full batch results captured before the event
// kernel rework (pooling, typed handlers, idle-slot fast-forward, latency
// gating). Any drift here means an "optimization" changed simulation
// semantics.
func TestBatchResultsPinned(t *testing.T) {
	cases := []struct {
		algo              string
		n                 int
		seed              uint64
		total, half       time.Duration
		cwSlots, cwAtHalf int
		collisions        int
		maxTimeouts       int
		maxTimeoutWait    time.Duration
		events            uint64
	}{
		{"BEB", 25, 7, 7030000, 3683000, 186, 37, 22, 7, 525000, 1712},
		{"LLB", 40, 11, 8662000, 5462000, 141, 69, 28, 7, 525000, 2939},
		{"STB", 10, 3, 2825000, 1881000, 27, 9, 13, 6, 450000, 305},
	}
	factories := map[string]backoff.Factory{
		"BEB": backoff.NewBEB, "LLB": backoff.NewLLB, "STB": backoff.NewSTB,
	}
	cfg := DefaultConfig()
	for _, c := range cases {
		res := RunBatch(cfg, c.n, factories[c.algo], rng.New(c.seed), nil)
		if res.TotalTime != c.total || res.HalfTime != c.half {
			t.Errorf("%s n=%d: times %v/%v, want %v/%v",
				c.algo, c.n, res.TotalTime, res.HalfTime, c.total, c.half)
		}
		if res.CWSlots != c.cwSlots || res.CWSlotsAtHalf != c.cwAtHalf {
			t.Errorf("%s n=%d: CW slots %d/%d, want %d/%d",
				c.algo, c.n, res.CWSlots, res.CWSlotsAtHalf, c.cwSlots, c.cwAtHalf)
		}
		if res.Collisions != c.collisions {
			t.Errorf("%s n=%d: collisions %d, want %d", c.algo, c.n, res.Collisions, c.collisions)
		}
		if res.MaxAckTimeouts != c.maxTimeouts || res.MaxAckTimeoutWait != c.maxTimeoutWait {
			t.Errorf("%s n=%d: worst timeouts %d/%v, want %d/%v",
				c.algo, c.n, res.MaxAckTimeouts, res.MaxAckTimeoutWait, c.maxTimeouts, c.maxTimeoutWait)
		}
		if res.Events != c.events {
			t.Errorf("%s n=%d: events %d, want %d (elided slots must be added back)",
				c.algo, c.n, res.Events, c.events)
		}
	}
}

// TestBatchDoesNotCollectLatencies: batch runs drop per-packet latencies
// instead of appending one unread slice entry per station.
func TestBatchDoesNotCollectLatencies(t *testing.T) {
	cfg := DefaultConfig()
	m := newSim(cfg, phy.StationGrid(20), backoff.NewBEB, rng.New(5), nil)
	m.allowSlotSkip = true
	for _, s := range m.sts {
		s.begin()
	}
	if _, drained := m.sched.Run(cfg.maxEvents()); !drained {
		t.Fatal("event budget exhausted")
	}
	if m.finished != 20 {
		t.Fatalf("finished %d of 20", m.finished)
	}
	if m.latencies != nil {
		t.Fatalf("batch run collected %d latencies; collectLatencies must stay off", len(m.latencies))
	}
}

// runWithoutSlotSkip is RunBatch with the idle-slot fast-forward left off:
// the slow side of TestSlotSkipEquivalence.
func runWithoutSlotSkip(t *testing.T, cfg Config, n int, f backoff.Factory, g *rng.Source) Result {
	t.Helper()
	m := newSim(cfg, cfg.positions(n), f, g, nil)
	m.allowSlotSkip = false
	for _, s := range m.sts {
		s.begin()
	}
	fired, drained := m.sched.Run(cfg.maxEvents())
	if !drained {
		t.Fatal("event budget exhausted")
	}
	if m.finished != n {
		t.Fatalf("only %d of %d stations finished", m.finished, n)
	}
	return m.collect(fired)
}

// TestSlotSkipEquivalence: the idle-slot fast-forward's contract is that
// results are bit-identical with and without it — same times, same counters,
// same per-station stats, same logical event count. (Referenced from the
// trySkipSlots comment in run.go.)
func TestSlotSkipEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	factories := []struct {
		name string
		f    backoff.Factory
	}{
		{"BEB", backoff.NewBEB}, {"LB", backoff.NewLB},
		{"LLB", backoff.NewLLB}, {"STB", backoff.NewSTB},
	}
	for _, fc := range factories {
		for _, n := range []int{1, 2, 5, 30, 80} {
			for seed := uint64(1); seed <= 3; seed++ {
				fast := RunBatch(cfg, n, fc.f, rng.New(seed), nil)

				slow := runWithoutSlotSkip(t, cfg, n, fc.f, rng.New(seed))

				// Kernel is the work profile, not the result: the
				// fast-forward exists precisely to change it (fewer events
				// scheduled, slots elided). Compare everything else.
				fast.Kernel, slow.Kernel = KernelStats{}, KernelStats{}
				if !reflect.DeepEqual(fast, slow) {
					t.Fatalf("%s n=%d seed=%d: slot-skip changed the result\nfast: %+v\nslow: %+v",
						fc.name, n, seed, fast, slow)
				}
				if fast.Events != slow.Events {
					t.Fatalf("%s n=%d seed=%d: logical event count drifted: %d vs %d",
						fc.name, n, seed, fast.Events, slow.Events)
				}
			}
		}
	}
}

// TestSlotSkipElidesEvents confirms the fast-forward actually engages on a
// contended batch (otherwise TestSlotSkipEquivalence proves nothing).
func TestSlotSkipElidesEvents(t *testing.T) {
	cfg := DefaultConfig()
	m := newSim(cfg, phy.StationGrid(30), backoff.NewBEB, rng.New(2), nil)
	m.allowSlotSkip = true
	for _, s := range m.sts {
		s.begin()
	}
	fired, drained := m.sched.Run(cfg.maxEvents())
	if !drained {
		t.Fatal("event budget exhausted")
	}
	if m.elidedSlots == 0 {
		t.Fatal("fast-forward never engaged on a 30-station batch")
	}
	res := m.collect(fired)
	if res.Events != fired+m.elidedSlots {
		t.Fatalf("Events %d != fired %d + elided %d", res.Events, fired, m.elidedSlots)
	}
}

// TestMaxTimeoutStatsTieBreak pins the Figure 11/12 selection rule: the
// worst-off station has the most ACK timeouts, and among stations tying on
// the count, the longest timeout wait is reported. The old strict-greater
// rule silently kept the lowest-index station's wait on ties.
func TestMaxTimeoutStatsTieBreak(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name      string
		stations  []StationStats
		wantCount int
		wantWait  time.Duration
	}{
		{"empty", nil, 0, 0},
		{"single", []StationStats{{AckTimeouts: 3, AckTimeoutWait: 9 * ms}}, 3, 9 * ms},
		{"strict max wins", []StationStats{
			{AckTimeouts: 2, AckTimeoutWait: 50 * ms},
			{AckTimeouts: 5, AckTimeoutWait: 10 * ms},
		}, 5, 10 * ms},
		{"tie breaks to longer wait", []StationStats{
			{AckTimeouts: 4, AckTimeoutWait: 8 * ms},
			{AckTimeouts: 4, AckTimeoutWait: 20 * ms},
		}, 4, 20 * ms},
		{"tie with longer wait first", []StationStats{
			{AckTimeouts: 4, AckTimeoutWait: 20 * ms},
			{AckTimeouts: 4, AckTimeoutWait: 8 * ms},
		}, 4, 20 * ms},
		{"later lower count cannot shrink wait", []StationStats{
			{AckTimeouts: 6, AckTimeoutWait: 30 * ms},
			{AckTimeouts: 2, AckTimeoutWait: 99 * ms},
		}, 6, 30 * ms},
	}
	for _, c := range cases {
		count, wait := maxTimeoutStats(c.stations)
		if count != c.wantCount || wait != c.wantWait {
			t.Errorf("%s: got (%d, %v), want (%d, %v)", c.name, count, wait, c.wantCount, c.wantWait)
		}
	}
}

// TestVerdictCountersDeterministic: the PHY verdict counters are work
// counters, pure functions of (scenario, seed) like the rest of
// KernelStats, and on the paper grid the capture certificate settles a
// share of them.
func TestVerdictCountersDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := RunBatch(cfg, 60, backoff.NewBEB, rng.New(4), nil)
	b := RunBatch(cfg, 60, backoff.NewBEB, rng.New(4), nil)
	if a.Kernel != b.Kernel {
		t.Fatalf("kernel stats differ across identical runs:\n%+v\n%+v", a.Kernel, b.Kernel)
	}
	k := a.Kernel
	if k.VerdictsEvaluated == 0 || k.VerdictsCertified == 0 || k.VerdictsCertified > k.VerdictsEvaluated {
		t.Fatalf("verdicts evaluated %d, certified %d", k.VerdictsEvaluated, k.VerdictsCertified)
	}
}
