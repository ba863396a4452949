package repro

// Engine executes Scenarios against pluggable channel Models. The two
// models are peers behind one interface, so the same Scenario value runs
// under either — the paper's method of pricing one workload two ways —
// and future models (a lossy channel, multiple access points) drop in
// without growing the API surface.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/slotted"
)

// Model is a channel model: it prices a scenario's workload in that model's
// currency (abstract CW slots, or 802.11g microseconds). Implementations
// live in this package — Abstract and WiFi today — and must be deterministic
// given the scenario's options: equal scenarios produce equal Results.
//
// Not every model supports every workload; unsupported combinations return
// an error from run (best-of-k and continuous traffic need real time, tree
// splitting is defined on the abstract channel).
type Model interface {
	// Name is the stable identifier used in results and RNG stream labels
	// ("abstract", "wifi"). Renaming a model changes its random streams.
	Name() string

	// run executes the scenario with resolved options. The scenario has
	// already been validated. Implementations are in-package: run keeps the
	// interface closed so the RNG-label contract stays enforceable.
	run(ctx context.Context, s Scenario, o options) (Result, error)
}

// Abstract returns the abstract slotted model (assumptions A0–A2): a
// collision costs one slot, time is not modelled. Payload, RTS/CTS, trace
// and config options do not apply.
func Abstract() Model { return abstractModel{} }

// WiFi returns the IEEE 802.11g DCF model with the paper's Table I
// parameters: a collision costs a full transmission plus an ACK timeout.
func WiFi() Model { return wifiModel{} }

// AbstractUnaligned returns the abstract slotted model with per-station
// contention windows instead of globally aligned ones — the MAC's window
// semantics priced in the abstract currency. It exists for the alignment
// ablation DESIGN.md documents; the paper's analysis assumes aligned
// windows, which Abstract implements.
func AbstractUnaligned() Model { return abstractUnalignedModel{} }

// errUnsupported formats the model × workload incompatibility error.
func errUnsupported(m Model, w Workload) error {
	return fmt.Errorf("repro: the %s model does not support the %s workload",
		m.Name(), w.workloadName())
}

// --- Abstract slotted model -------------------------------------------------

type abstractModel struct{}

func (abstractModel) Name() string { return "abstract" }

func (m abstractModel) run(_ context.Context, s Scenario, o options) (Result, error) {
	switch s.workload().(type) {
	case SingleBatch:
		f, err := s.Algorithm.factory()
		if err != nil {
			return Result{}, err
		}
		g := o.stream(fmt.Sprintf("abstract|%s|n=%d", s.Algorithm, s.N))
		res := slotted.RunBatch(s.N, f, g)
		return Result{Batch: &BatchResult{
			N:             s.N,
			Model:         m.Name(),
			Algorithm:     s.Algorithm.String(),
			CWSlots:       res.CWSlots,
			Collisions:    res.Collisions,
			CWSlotsAtHalf: res.HalfSlots,
		}}, nil
	case TreeWorkload:
		g := o.stream(fmt.Sprintf("tree|n=%d", s.N))
		res := slotted.RunTreeBatch(s.N, g)
		return Result{Batch: &BatchResult{
			N:             s.N,
			Model:         m.Name(),
			Algorithm:     "TREE",
			CWSlots:       res.CWSlots,
			Collisions:    res.Collisions,
			CWSlotsAtHalf: res.HalfSlots,
		}}, nil
	default:
		return Result{}, errUnsupported(m, s.workload())
	}
}

// --- Abstract model, per-station windows (alignment ablation) ---------------

type abstractUnalignedModel struct{}

func (abstractUnalignedModel) Name() string { return "abstract-unaligned" }

func (m abstractUnalignedModel) run(_ context.Context, s Scenario, o options) (Result, error) {
	switch s.workload().(type) {
	case SingleBatch:
		f, err := s.Algorithm.factory()
		if err != nil {
			return Result{}, err
		}
		g := o.stream(fmt.Sprintf("abstract-unaligned|%s|n=%d", s.Algorithm, s.N))
		res := slotted.RunBatchUnaligned(s.N, f, g)
		return Result{Batch: &BatchResult{
			N:             s.N,
			Model:         m.Name(),
			Algorithm:     s.Algorithm.String(),
			CWSlots:       res.CWSlots,
			Collisions:    res.Collisions,
			CWSlotsAtHalf: res.HalfSlots,
		}}, nil
	default:
		return Result{}, errUnsupported(m, s.workload())
	}
}

// --- IEEE 802.11g DCF model -------------------------------------------------

type wifiModel struct{}

func (wifiModel) Name() string { return "wifi" }

// materializeMACConfig resolves the effective MAC configuration of a wifi
// run from the workload and resolved options. It is the single source of
// truth shared by wifiModel.run and Scenario.Fingerprint, so the config a
// run executes with is exactly the config its fingerprint hashes.
func materializeMACConfig(w Workload, o options) mac.Config {
	cfg := mac.DefaultConfig()
	cfg.PayloadBytes = o.payload
	if _, bok := w.(BestOfKWorkload); !bok {
		// RTS/CTS does not apply to the best-of-k probe phase; the legacy
		// path never set it, so keeping it off there preserves byte-identical
		// configs across the migration.
		cfg.RTSCTS = o.rtscts
	}
	for _, tweak := range o.cfgTweaks {
		tweak(&cfg)
	}
	return cfg
}

// config materializes the MAC configuration from resolved options.
func (wifiModel) config(o options) mac.Config {
	return materializeMACConfig(SingleBatch{}, o)
}

func (wifiModel) tracer(o options) mac.Tracer {
	if o.tracer != nil {
		return o.tracer
	}
	return nil
}

func (m wifiModel) run(_ context.Context, s Scenario, o options) (Result, error) {
	switch w := s.workload().(type) {
	case SingleBatch:
		f, err := s.Algorithm.factory()
		if err != nil {
			return Result{}, err
		}
		cfg := m.config(o)
		g := o.stream(fmt.Sprintf("wifi|%s|n=%d", s.Algorithm, s.N))
		res := mac.RunBatch(cfg, s.N, f, g, m.tracer(o))
		if o.simStats != nil {
			*o.simStats = res.Kernel
		}
		d := core.Decompose(cfg, res)
		return Result{Batch: &BatchResult{
			N:                 s.N,
			Model:             m.Name(),
			Algorithm:         s.Algorithm.String(),
			CWSlots:           res.CWSlots,
			Collisions:        res.Collisions,
			TotalTime:         res.TotalTime,
			HalfTime:          res.HalfTime,
			CWSlotsAtHalf:     res.CWSlotsAtHalf,
			MaxAckTimeouts:    res.MaxAckTimeouts,
			MaxAckTimeoutWait: res.MaxAckTimeoutWait,
			Captures:          res.Captures,
			Stations:          append([]StationStats(nil), res.Stations...),
			Decomposition:     &d,
		}}, nil

	case BestOfKWorkload:
		cfg := materializeMACConfig(w, o)
		g := o.stream(fmt.Sprintf("bok|k=%d|n=%d", w.K, s.N))
		res := mac.RunBestOfK(cfg, mac.DefaultBestOfK(w.K), s.N, g, m.tracer(o))
		if o.simStats != nil {
			*o.simStats = res.Kernel
		}
		d := core.Decompose(cfg, res.Result)
		ests := append([]int(nil), res.Estimates...)
		for i := 1; i < len(ests); i++ {
			for j := i; j > 0 && ests[j] < ests[j-1]; j-- {
				ests[j], ests[j-1] = ests[j-1], ests[j]
			}
		}
		return Result{BestOfK: &BestOfKResult{
			BatchResult: BatchResult{
				N:                 s.N,
				Model:             m.Name(),
				Algorithm:         fmt.Sprintf("Best-of-%d", w.K),
				CWSlots:           res.CWSlots,
				Collisions:        res.Collisions,
				TotalTime:         res.TotalTime,
				HalfTime:          res.HalfTime,
				CWSlotsAtHalf:     res.CWSlotsAtHalf,
				MaxAckTimeouts:    res.MaxAckTimeouts,
				MaxAckTimeoutWait: res.MaxAckTimeoutWait,
				Captures:          res.Captures,
				Stations:          append([]StationStats(nil), res.Stations...),
				Decomposition:     &d,
			},
			MedianEstimate: ests[len(ests)/2],
			EstimationTime: res.EstimationTime,
		}}, nil

	case ContinuousWorkload:
		f, err := s.Algorithm.factory()
		if err != nil {
			return Result{}, err
		}
		proc, err := w.Arrivals.process()
		if err != nil {
			return Result{}, err
		}
		cfg := m.config(o)
		g := o.stream(fmt.Sprintf("traffic|%s|%s|n=%d", s.Algorithm, proc.Name(), s.N))
		res := mac.RunContinuous(cfg, s.N, f, proc, w.Horizon, g, m.tracer(o))
		if o.simStats != nil {
			*o.simStats = res.Kernel
		}
		return Result{Traffic: &TrafficResult{
			N:              s.N,
			Horizon:        w.Horizon,
			Offered:        res.Offered,
			Delivered:      res.Delivered,
			Backlog:        res.Backlog,
			ThroughputMbps: res.ThroughputMbps,
			LatencyP50:     res.LatencyP50,
			LatencyP95:     res.LatencyP95,
			LatencyMax:     res.LatencyMax,
			Collisions:     res.Collisions,
			JainFairness:   res.JainFairness,
		}}, nil

	default:
		return Result{}, errUnsupported(m, s.workload())
	}
}

// --- Engine -----------------------------------------------------------------

// Engine executes scenarios. The zero value is ready to use and sizes its
// worker pool to GOMAXPROCS; set Workers to cap parallelism. Engines are
// stateless and safe for concurrent use; attaching a Store adds shared
// state, but the Store itself is concurrency-safe.
type Engine struct {
	// Workers caps the parallelism of Sweep and RunMany (0 = GOMAXPROCS).
	// Run is always a single synchronous execution.
	Workers int

	// Store, when non-nil, memoizes grid execution: Sweep, SweepSeeded,
	// Aggregate, AggregateSeeded and RunMany serve cells whose
	// (Scenario.Fingerprint, seed) is already stored by replaying the
	// persisted Result instead of simulating, write misses through, and
	// collapse identical in-flight cells into one simulation. Streaming
	// order, cell values, and reports are bit-identical with or without a
	// store. Run is always a direct execution (it is the traced-run path,
	// and a replay would skip trace side effects); scenarios that cannot be
	// fingerprinted run uncached.
	Store *Store

	// Admit, when non-nil, gates every simulator invocation of the grid
	// paths (Sweep, SweepSeeded, RunMany, Aggregate, AggregateSeeded): it is
	// called just before a cell simulates, and the release it returns when
	// the simulation finishes. Store replays and singleflight followers
	// never call it — admission budgets spend on simulations, not on cache
	// traffic — which is what lets a serving layer bound concurrent
	// simulation work globally while warm requests stay unthrottled
	// (internal/serve). An Admit error fails the cell with that error.
	// Admit must be safe for concurrent use; blocking implementations
	// should honor ctx so cancelled sweeps stop waiting for budget. Run
	// does not consult Admit (it is the synchronous single-execution path).
	Admit func(ctx context.Context) (release func(), err error)

	// Observer, when non-nil, receives a CellInfo for every completed grid
	// cell (Sweep, SweepSeeded, RunMany, and the aggregation paths built on
	// them): admit wait, store hit/miss, simulate and write-through
	// durations, and the run's deterministic kernel profile. Observation is
	// passive — cell values, streaming order, goldens, and fingerprints are
	// identical with or without one — and strictly pay-for-use: a nil
	// Observer takes the exact uninstrumented path, with no wall-clock
	// reads and no allocations. Implementations must be safe for concurrent
	// use. See observe.go.
	Observer Observer
}

// WithStore returns a copy of the engine that serves grid cells through st;
// a nil st detaches the store. The receiver is not modified.
func (e Engine) WithStore(st *Store) *Engine {
	e.Store = st
	return &e
}

// Run validates and executes one scenario synchronously. It returns
// ctx.Err() without running if the context is already cancelled; a started
// simulation always runs to completion (cancellation is checked between
// scenarios, not inside the discrete-event loop).
func (e *Engine) Run(ctx context.Context, s Scenario) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	return s.Model.run(ctx, s, buildOptions(s.Options))
}
