package repro

// Golden regression tests: exact outcomes for pinned seeds. The RNG,
// stream-derivation labels, and both simulators are fully deterministic, so
// any diff here means an intentional behavioural change — update the values
// together with DESIGN.md/EXPERIMENTS.md when that happens — or an
// accidental one, which this file exists to catch.

import (
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/slotted"
)

func TestGoldenWiFiBatch(t *testing.T) {
	want := map[string]struct {
		total      time.Duration
		cwSlots    int
		collisions int
	}{
		"BEB": {7440 * time.Microsecond, 187, 22},
		"LB":  {8589 * time.Microsecond, 163, 36},
		"LLB": {7093 * time.Microsecond, 104, 25},
		"STB": {8308 * time.Microsecond, 83, 40},
	}
	for algo, w := range want {
		res := mustRun(t, Scenario{Model: WiFi(), Algorithm: MustAlgorithm(algo), N: 30,
			Options: []Option{WithSeed(42)}}).Batch
		if res.TotalTime != w.total || res.CWSlots != w.cwSlots || res.Collisions != w.collisions {
			t.Errorf("%s: got (total %v, cw %d, coll %d), want (%v, %d, %d)",
				algo, res.TotalTime, res.CWSlots, res.Collisions, w.total, w.cwSlots, w.collisions)
		}
	}
}

func TestGoldenAbstractBatch(t *testing.T) {
	want := map[string]struct{ cwSlots, collisions int }{
		"BEB": {115, 21},
		"LB":  {121, 43},
		"LLB": {130, 39},
		"STB": {111, 53},
	}
	for algo, w := range want {
		res := mustRun(t, Scenario{Model: Abstract(), Algorithm: MustAlgorithm(algo), N: 30,
			Options: []Option{WithSeed(42)}}).Batch
		if res.CWSlots != w.cwSlots || res.Collisions != w.collisions {
			t.Errorf("%s: got (cw %d, coll %d), want (%d, %d)",
				algo, res.CWSlots, res.Collisions, w.cwSlots, w.collisions)
		}
	}
}

func TestGoldenBestOfK(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), N: 30, Workload: BestOfKWorkload{K: 3},
		Options: []Option{WithSeed(42)}}).BestOfK
	if res.TotalTime != 6582*time.Microsecond || res.MedianEstimate != 32 {
		t.Errorf("best-of-3: got (total %v, est %d), want (6.582ms, 32)",
			res.TotalTime, res.MedianEstimate)
	}
}

func TestGoldenTreeBatch(t *testing.T) {
	res := slotted.RunTreeBatch(100, rng.New(42))
	if res.CWSlots != 267 || res.Collisions != 133 {
		t.Errorf("tree: got (cw %d, coll %d), want (267, 133)", res.CWSlots, res.Collisions)
	}
}

func TestGoldenSmallLLBRun(t *testing.T) {
	res := mac.RunBatch(mac.DefaultConfig(), 10, backoff.NewLLB, rng.New(9), nil)
	if res.TotalTime != 2488*time.Microsecond || res.CWSlots != 37 {
		t.Errorf("LLB n=10: got (total %v, cw %d), want (2.488ms, 37)", res.TotalTime, res.CWSlots)
	}
}
