package repro

// Parallel execution of scenario grids. Engine.Sweep fans scenarios × seeds
// across the shared worker pool (internal/harness.ForEach — the same
// primitive behind the figure harness) and streams cells back in stable
// order; Engine.RunMany is the slice-shaped convenience for heterogeneous
// scenario lists. Determinism is free: every run derives its RNG stream
// from (seed, model, algorithm, n) labels, so results are bit-identical to
// serial execution regardless of GOMAXPROCS or scheduling order.

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/rng"
)

// Cell is one completed cell of a sweep grid: scenario index i, seed index
// j, streamed in row-major (scenario-major, then seed) order.
type Cell struct {
	// ScenarioIndex and SeedIndex locate the cell in the input grid.
	ScenarioIndex int
	SeedIndex     int
	// Seed is the seed the cell ran with (overriding any WithSeed in the
	// scenario's options).
	Seed uint64
	// Result holds the outcome when Err is nil.
	Result Result
	// Err is the validation, unsupported-workload, or context error.
	Err error
}

// Seeds derives n statistically independent seeds from base via
// rng.DeriveSeed — the sweep-grid counterpart of the harness's per-trial
// stream derivation. Seeds(base, n) is deterministic in (base, n).
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.DeriveSeed(base, fmt.Sprintf("sweep|trial=%d", i))
	}
	return out
}

// SequentialSeeds returns seed, seed+1, ..., seed+n-1: the seed ladder
// the legacy per-trial loops used (WithSeed(seed + trial)), for byte-exact
// migrations of existing experiments. New code should prefer Seeds, whose
// hashed derivation keeps ladders from different bases disjoint.
func SequentialSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		//replint:allow seedlint — the sanctioned legacy ladder: consecutive seeds ARE its contract
		out[i] = seed + uint64(i)
	}
	return out
}

// SeedFunc supplies the seed for the sweep-grid cell at scenario index si,
// trial index ti. It generalizes the flat seed list of Sweep for grids whose
// seed ladder varies per scenario — notably the figure regenerator, whose
// legacy per-trial streams are a function of both the series and the point.
type SeedFunc func(si, ti int) uint64

// Sweep runs every scenario × seed cell of the grid on the engine's worker
// pool and streams the cells in stable row-major order: all seeds of
// scenario 0, then scenario 1, and so on, regardless of which worker
// finishes first. Each cell runs the scenario reseeded with its grid seed,
// so a cell's Result is bit-identical to a serial Engine.Run call with the
// same seed.
//
// Cancelling ctx stops the sweep early: cells not yet started report
// ctx.Err(), and the stream closes without emitting cells past the
// cancellation point. Either drain the channel or cancel ctx when
// abandoning it early — breaking out of the range with an uncancelled
// context leaks the sweep's forwarding goroutine.
//
// Scenarios carrying WithTrace are rejected per cell: cells run
// concurrently, and interleaving many runs into one recorder would race.
// Trace single runs with Engine.Run.
//
// With a Store attached to the engine, each cell is first looked up by
// (Scenario.Fingerprint, seed) and replayed from the log on a hit; see
// Engine.Store. Order and cell values are identical either way.
func (e *Engine) Sweep(ctx context.Context, scenarios []Scenario, seeds []uint64) <-chan Cell {
	return e.SweepSeeded(ctx, scenarios, len(seeds), func(_, ti int) uint64 { return seeds[ti] })
}

// SweepSeeded is Sweep with the per-cell seeds supplied by seed instead of
// one shared seed list: cell (si, ti) runs scenarios[si] reseeded with
// seed(si, ti). Ordering, cancellation, and tracer-rejection semantics are
// those of Sweep.
func (e *Engine) SweepSeeded(ctx context.Context, scenarios []Scenario, trials int, seed SeedFunc) <-chan Cell {
	out := make(chan Cell)
	cells := len(scenarios) * trials
	if cells <= 0 {
		close(out)
		return out
	}
	slots := make([]chan Cell, cells)
	for i := range slots {
		slots[i] = make(chan Cell, 1)
	}

	// With a store attached, fingerprint each scenario once up front — the
	// address is seed-independent, so all of a scenario's cells share it.
	fps := e.fingerprints(scenarios)

	// Workers fill slots in whatever order the pool schedules.
	go func() {
		harness.ForEach(e.Workers, cells, func(i int) {
			si, ji := i/trials, i%trials
			c := Cell{ScenarioIndex: si, SeedIndex: ji, Seed: seed(si, ji)}
			if err := ctx.Err(); err != nil {
				c.Err = err
			} else if err := rejectTracer(scenarios[si]); err != nil {
				c.Err = err
			} else {
				c.Result, c.Err = e.runCell(ctx, scenarios[si], c.Seed, fps[si])
			}
			slots[i] <- c
		})
	}()

	// The forwarder alone touches out, draining slots in stable order and
	// stopping at the first sign of cancellation.
	go func() {
		defer close(out)
		for i := range slots {
			if ctx.Err() != nil {
				return
			}
			c := <-slots[i]
			select {
			case out <- c:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// fingerprints computes each scenario's content address for the store. An
// unfingerprintable scenario — or every scenario, when no store is attached
// — gets the empty address, which runCell treats as "execute uncached".
func (e *Engine) fingerprints(scenarios []Scenario) []string {
	fps := make([]string, len(scenarios))
	if e.Store == nil {
		return fps
	}
	for i, s := range scenarios {
		fps[i], _ = s.Fingerprint()
	}
	return fps
}

// runCell executes one grid cell — the scenario reseeded with its grid
// seed. With a store attached and a valid fingerprint, the cell is served
// through the store: replayed on a hit, simulated and written through on a
// miss, deduplicated against identical in-flight cells. Replayed cells are
// bit-identical to simulated ones, so callers cannot tell the difference.
func (e *Engine) runCell(ctx context.Context, s Scenario, seed uint64, fp string) (Result, error) {
	if e.Observer != nil {
		return e.runCellObserved(ctx, s, seed, fp)
	}
	run := func() (Result, error) {
		if e.Admit != nil {
			release, err := e.Admit(ctx)
			if err != nil {
				return Result{}, err
			}
			defer release()
		}
		return e.Run(ctx, s.WithOptions(WithSeed(seed)))
	}
	if e.Store == nil || fp == "" {
		return run()
	}
	return e.Store.do(fp, seed, run)
}

// rejectTracer refuses scenarios that would feed a shared trace.Recorder
// from concurrent workers; the Recorder is an unsynchronized append and a
// merged multi-run timeline would be meaningless anyway.
func rejectTracer(s Scenario) error {
	if buildOptions(s.Options).tracer != nil {
		return fmt.Errorf("repro: WithTrace is not supported in parallel execution (%s); trace single runs with Engine.Run", s)
	}
	return nil
}

// RunMany executes scenarios in parallel on the engine's worker pool,
// seeding each from its own Options, and returns results in input order.
// The returned error is the first (lowest-index) scenario error, if any;
// results of successful scenarios are valid either way. A cancelled context
// makes unstarted scenarios fail with ctx.Err(). Like Sweep, RunMany
// rejects scenarios carrying WithTrace, and like Sweep it serves scenarios
// from the engine's Store when one is attached (the seed resolved from the
// scenario's own Options keys the record).
func (e *Engine) RunMany(ctx context.Context, scenarios []Scenario) ([]Result, error) {
	results := make([]Result, len(scenarios))
	errs := make([]error, len(scenarios))
	fps := e.fingerprints(scenarios)
	harness.ForEach(e.Workers, len(scenarios), func(i int) {
		if errs[i] = rejectTracer(scenarios[i]); errs[i] != nil {
			return
		}
		results[i], errs[i] = e.runCell(ctx, scenarios[i], buildOptions(scenarios[i].Options).seed, fps[i])
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
