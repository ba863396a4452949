package main

// The three batch workloads: a scenario grid swept on the engine's worker
// pool with no store, the way cmd/figures regenerates a figure. Each pass
// sweeps the whole grid once with fresh cell seeds and folds the cells into
// an Aggregator; a run makes passes until its time is up.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro"
)

// gridSpec is a batch workload's inputs apart from the seeds: each pass
// runs every scenario trials times and summarizes metrics per scenario.
type gridSpec struct {
	scenarios []repro.Scenario
	trials    int
	metrics   []repro.Metric
}

// nAxis returns lo, lo+step, ..., hi.
func nAxis(lo, hi, step int) []int {
	var ns []int
	for n := lo; n <= hi; n += step {
		ns = append(ns, n)
	}
	return ns
}

// wifiGrid is the paper's batch grid on the 802.11g model: the four
// algorithms at 64 B and 1024 B payloads (Figures 3/4 and 7/8) and
// Best-of-3 (Figure 19).
func wifiGrid(s size) gridSpec {
	ns, trials := nAxis(10, 150, 10), 2
	if s == tiny {
		ns, trials = []int{4, 8}, 1
	}
	var sc []repro.Scenario
	for _, payload := range []int{64, 1024} {
		for _, a := range repro.PaperAlgorithmList() {
			for _, n := range ns {
				sc = append(sc, repro.Scenario{Model: repro.WiFi(), Algorithm: a, N: n,
					Options: []repro.Option{repro.WithPayload(payload)}})
			}
		}
	}
	for _, n := range ns {
		sc = append(sc, repro.Scenario{Model: repro.WiFi(), N: n, Workload: repro.BestOfKWorkload{K: 3}})
	}
	return gridSpec{sc, trials, []repro.Metric{repro.MakespanSlots(), repro.TotalTime()}}
}

// abstractGrid is the abstract slotted model at large n: the four
// algorithms plus tree splitting (Figures 15/16, Table III).
func abstractGrid(s size) gridSpec {
	ns, trials := []int{1000, 2000, 5000, 10000, 20000}, 2
	if s == tiny {
		ns, trials = []int{50, 100}, 1
	}
	var sc []repro.Scenario
	for _, a := range repro.PaperAlgorithmList() {
		for _, n := range ns {
			sc = append(sc, repro.Scenario{Model: repro.Abstract(), Algorithm: a, N: n})
		}
	}
	for _, n := range ns {
		sc = append(sc, repro.Scenario{Model: repro.Abstract(), N: n, Workload: repro.TreeWorkload{}})
	}
	return gridSpec{sc, trials, []repro.Metric{repro.MakespanSlots(), repro.CollisionCount()}}
}

// continuousGrid runs the MAC under ongoing Poisson, bursty Pareto and
// saturated arrivals at a few n.
func continuousGrid(s size) gridSpec {
	ns, trials, horizon := []int{10, 20, 40}, 4, 200*time.Millisecond
	if s == tiny {
		ns, trials, horizon = []int{3, 5}, 1, 100*time.Millisecond
	}
	arrivals := []repro.ArrivalSpec{
		repro.Poisson(50),
		repro.BurstyPareto(1.5, 20*time.Millisecond, 4),
		repro.Saturated(),
	}
	var sc []repro.Scenario
	for _, a := range []repro.Algorithm{repro.MustAlgorithm("BEB"), repro.MustAlgorithm("LLB")} {
		for _, arr := range arrivals {
			for _, n := range ns {
				sc = append(sc, repro.Scenario{Model: repro.WiFi(), Algorithm: a, N: n,
					Workload: repro.ContinuousWorkload{Arrivals: arr, Horizon: horizon}})
			}
		}
	}
	return gridSpec{sc, trials, []repro.Metric{repro.ThroughputMbps()}}
}

// gridRun is a set-up batch workload.
type gridRun struct {
	spec   gridSpec
	seed   uint64
	eng    *repro.Engine
	passes int
	// minCells is the fewest cells a measurement may end with.
	minCells int
	// pass0 holds the first pass's results in stream order: the digest
	// cells.
	pass0 []repro.Result
}

// setupGrid returns the set-up function of a batch workload: validate the
// grid, build the engine, and warm it up.
func setupGrid(build func(size) gridSpec) func(context.Context, config, uint64) (instance, error) {
	return func(ctx context.Context, cfg config, seed uint64) (instance, error) {
		g, err := newGridRun(ctx, build(cfg.size), seed)
		if err == nil && cfg.size == full {
			g.minCells = minRequests
		}
		return g, err
	}
}

// newGridRun validates the grid and warms the engine with one cell of
// every distinct (model, workload, n), so that state built lazily per
// station count or arrival process is in place before timing starts.
func newGridRun(ctx context.Context, spec gridSpec, seed uint64) (*gridRun, error) {
	seen := map[string]bool{}
	var warm []repro.Scenario
	for i, s := range spec.scenarios {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		if key := fmt.Sprintf("%s|%+v|%d", s.Model.Name(), s.Workload, s.N); !seen[key] {
			seen[key] = true
			warm = append(warm, s)
		}
	}
	g := &gridRun{spec: spec, seed: seed, eng: &repro.Engine{Workers: runtime.NumCPU()}}
	for c := range g.eng.Sweep(ctx, warm, repro.Seeds(seed, 1)) {
		if err := checkCell(c); err != nil {
			return nil, fmt.Errorf("warm-up cell %s: %w", warm[c.ScenarioIndex], err)
		}
	}
	return g, ctx.Err()
}

func (g *gridRun) workers() int { return g.eng.Workers }
func (g *gridRun) close() error { return nil }

// verify has nothing left to check: every cell is checked as it streams.
func (g *gridRun) verify(context.Context, *tally) error { return nil }

// measure makes whole passes until d has passed and at least minCells
// cells have completed.
func (g *gridRun) measure(ctx context.Context, d time.Duration, t *tally, lt *layerTally) error {
	obs := &cellLatencies{lt: lt}
	g.eng.Observer = obs
	defer func() { g.eng.Observer = nil }()
	err := timed(t, func() error {
		for start, cells := time.Now(), t.cells; ; {
			if err := g.pass(ctx, t, lt); err != nil {
				return err
			}
			if time.Since(start) >= d && t.cells-cells >= int64(g.minCells) {
				return nil
			}
		}
	})
	t.latencies = append(t.latencies, obs.totals...)
	return err
}

// pass sweeps the grid once with the next pass's seeds, checking every
// cell and the aggregated report.
func (g *gridRun) pass(ctx context.Context, t *tally, lt *layerTally) error {
	p := g.passes
	g.passes++
	cells := len(g.spec.scenarios) * g.spec.trials
	seeds := repro.Seeds(repro.Seeds(g.seed, p+1)[p], cells)
	agg := repro.NewAggregator(g.spec.metrics...)
	seedOf := func(si, ti int) uint64 { return seeds[si*g.spec.trials+ti] }
	for c := range g.eng.SweepSeeded(ctx, g.spec.scenarios, g.spec.trials, seedOf) {
		t.cells++
		t.attempted++
		s := g.spec.scenarios[c.ScenarioIndex]
		if err := checkCell(c); err != nil {
			t.fail(fmt.Errorf("%s seed %d: %w", s, c.Seed, err))
		} else if lt != nil {
			lt.observeResult(s, c.Result)
		}
		if p == 0 {
			g.pass0 = append(g.pass0, c.Result)
		}
		if err := agg.Add(c); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t.attempted++
	if rows := len(agg.Finish().Rows); rows != len(g.spec.scenarios) {
		t.fail(fmt.Errorf("pass %d: report has %d rows for %d scenarios", p, rows, len(g.spec.scenarios)))
	}
	return nil
}

// digest hashes the first pass's results, running it if no pass has run.
func (g *gridRun) digest(ctx context.Context) (string, error) {
	if g.passes == 0 {
		if err := g.pass(ctx, &tally{}, nil); err != nil {
			return "", err
		}
	}
	h := sha256.New()
	for _, r := range g.pass0 {
		b, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkCell checks one cell's result against what any correct run must
// produce: no error, and a batch that delivered all n packets.
func checkCell(c repro.Cell) error {
	if c.Err != nil {
		return c.Err
	}
	switch r := c.Result; {
	case r.Batch != nil:
		return checkBatch(*r.Batch)
	case r.BestOfK != nil:
		return checkBatch(r.BestOfK.BatchResult)
	case r.Traffic != nil:
		return checkTraffic(*r.Traffic)
	}
	return errors.New("empty result")
}

func checkBatch(b repro.BatchResult) error {
	if b.CWSlotsAtHalf < 1 || b.CWSlotsAtHalf > b.CWSlots {
		return fmt.Errorf("half-way slot %d outside [1, %d]", b.CWSlotsAtHalf, b.CWSlots)
	}
	if b.Model != "wifi" {
		// Every packet succeeds alone in its own slot.
		if b.CWSlots < b.N {
			return fmt.Errorf("%d packets resolved in %d slots", b.N, b.CWSlots)
		}
		return nil
	}
	if len(b.Stations) != b.N {
		return fmt.Errorf("%d station records for n=%d", len(b.Stations), b.N)
	}
	for i, st := range b.Stations {
		if st.Delivered != 1 || st.FinishTime <= 0 || st.FinishTime > b.TotalTime {
			return fmt.Errorf("station %d delivered %d packets, finishing at %v of %v",
				i, st.Delivered, st.FinishTime, b.TotalTime)
		}
	}
	return nil
}

func checkTraffic(r repro.TrafficResult) error {
	if r.Delivered < 0 || r.Delivered > r.Offered || r.Backlog != r.Offered-r.Delivered {
		return fmt.Errorf("offered %d, delivered %d, backlog %d", r.Offered, r.Delivered, r.Backlog)
	}
	return nil
}
