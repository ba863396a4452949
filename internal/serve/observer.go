package serve

// engineObserver plugs into repro.Engine.Observer and turns per-cell
// CellInfo callbacks into registry families:
//
//   - contend_engine_*: cell counts by outcome, wall-clock histograms for
//     admit wait, simulate, and store write-through;
//   - contend_kernel_*: the deterministic event-kernel work profile
//     (events scheduled/fired/canceled/pooled, idle slots fast-forwarded,
//     queue-depth high-water mark);
//   - contend_pool_*: Tx pool traffic (transmissions, pool reuses,
//     recycles, quarantines);
//   - contend_phy_*: reception verdicts computed, and how many the capture
//     certificate settled without an interference sweep.
//
// When a span sink is attached, each cell additionally emits one JSONL
// lifecycle span carrying the same stages as attributes. All collectors
// are registered once at construction; the per-cell path is atomic adds
// only.

import (
	"time"

	"repro"
	"repro/internal/obs"
)

// simDurationBucketsMS spans 0.1 ms .. ~1.6 min, doubling: single small
// cells land in the bottom buckets, 10^5-station batches in the top.
var simDurationBucketsMS = obs.ExpBuckets(0.1, 2, 20)

// waitBucketsMS spans 0.05 ms .. ~26 s for admit waits and store puts.
var waitBucketsMS = obs.ExpBuckets(0.05, 2, 20)

type engineObserver struct {
	cellsSimulated *obs.Counter
	cellsReplayed  *obs.Counter
	cellErrors     *obs.Counter

	admitWait *obs.Histogram
	simDur    *obs.Histogram
	putDur    *obs.Histogram

	evScheduled *obs.Counter
	evFired     *obs.Counter
	evCanceled  *obs.Counter
	evReused    *obs.Counter
	idleElided  *obs.Counter
	maxQueue    *obs.Gauge

	txTotal       *obs.Counter
	txReuses      *obs.Counter
	txRecycles    *obs.Counter
	txQuarantined *obs.Counter

	verdicts          *obs.Counter
	verdictsCertified *obs.Counter

	spans obs.SpanSink // nil = no span emission
}

func newEngineObserver(reg *obs.Registry, spans obs.SpanSink) *engineObserver {
	return &engineObserver{
		cellsSimulated: reg.Counter("contend_engine_cells_total",
			"Grid cells completed, by outcome.", "outcome", "simulated"),
		cellsReplayed: reg.Counter("contend_engine_cells_total",
			"Grid cells completed, by outcome.", "outcome", "replayed"),
		cellErrors: reg.Counter("contend_engine_cell_errors_total",
			"Grid cells that finished with an error."),
		admitWait: reg.Histogram("contend_engine_admit_wait_ms",
			"Wall time cells spent waiting for simulation budget, in milliseconds.", waitBucketsMS),
		simDur: reg.Histogram("contend_engine_sim_duration_ms",
			"Wall time inside Model.run per simulated cell, in milliseconds.", simDurationBucketsMS),
		putDur: reg.Histogram("contend_engine_put_duration_ms",
			"Wall time writing results through to the store, in milliseconds.", waitBucketsMS),

		evScheduled: reg.Counter("contend_kernel_events_scheduled_total",
			"Events armed in the simulation kernel."),
		evFired: reg.Counter("contend_kernel_events_fired_total",
			"Events executed by the simulation kernel."),
		evCanceled: reg.Counter("contend_kernel_events_canceled_total",
			"Events removed from the kernel before firing."),
		evReused: reg.Counter("contend_kernel_events_reused_total",
			"Kernel event allocations served from the free list."),
		idleElided: reg.Counter("contend_kernel_idle_slots_skipped_total",
			"Idle backoff slots fast-forwarded instead of fired."),
		maxQueue: reg.Gauge("contend_kernel_max_queue_len",
			"High-water mark of the kernel event queue over all observed cells."),

		txTotal: reg.Counter("contend_pool_tx_total",
			"Transmissions put on the air."),
		txReuses: reg.Counter("contend_pool_tx_reuses_total",
			"Tx allocations served from the pool."),
		txRecycles: reg.Counter("contend_pool_tx_recycles_total",
			"Tx objects returned to the pool."),
		txQuarantined: reg.Counter("contend_pool_tx_quarantined_total",
			"Tx objects quarantined under CheckTxReuse."),

		verdicts: reg.Counter("contend_phy_verdicts_total",
			"Reception verdicts computed, one per frame and listening receiver."),
		verdictsCertified: reg.Counter("contend_phy_verdicts_certified_total",
			"Reception verdicts settled by the capture certificate without an interference sweep."),

		spans: spans,
	}
}

// ObserveCell implements repro.Observer.
func (o *engineObserver) ObserveCell(c repro.CellInfo) {
	if c.Err != nil {
		o.cellErrors.Inc()
	}
	if !c.Simulated {
		o.cellsReplayed.Inc()
	} else {
		o.cellsSimulated.Inc()
		o.admitWait.Observe(float64(c.AdmitWait) / float64(time.Millisecond))
		o.simDur.Observe(float64(c.SimDuration) / float64(time.Millisecond))
		if c.PutDuration > 0 {
			o.putDur.Observe(float64(c.PutDuration) / float64(time.Millisecond))
		}

		o.evScheduled.Add(int64(c.Sim.EventsScheduled))
		o.evFired.Add(int64(c.Sim.EventsFired))
		o.evCanceled.Add(int64(c.Sim.EventsCanceled))
		o.evReused.Add(int64(c.Sim.EventsReused))
		o.idleElided.Add(int64(c.Sim.IdleSlotsElided))
		o.maxQueue.SetMax(float64(c.Sim.MaxQueueLen))

		o.txTotal.Add(int64(c.Sim.TxTotal))
		o.txReuses.Add(int64(c.Sim.TxReuses))
		o.txRecycles.Add(int64(c.Sim.TxRecycles))
		o.txQuarantined.Add(int64(c.Sim.TxQuarantined))

		o.verdicts.Add(int64(c.Sim.VerdictsEvaluated))
		o.verdictsCertified.Add(int64(c.Sim.VerdictsCertified))
	}

	if o.spans != nil {
		o.spans.EmitSpan(obs.Span{
			Name:     "cell",
			Start:    c.Start,
			Duration: c.Total,
			Attrs: []obs.Attr{
				obs.String("scenario", c.Scenario.String()),
				obs.Int64("seed", int64(c.Seed)),
				obs.String("fingerprint", c.Fingerprint),
				obs.Bool("simulated", c.Simulated),
				obs.Int64("admit_wait_ns", int64(c.AdmitWait)),
				obs.Int64("sim_ns", int64(c.SimDuration)),
				obs.Int64("put_ns", int64(c.PutDuration)),
				obs.Int64("events", int64(c.Sim.EventsFired)),
				obs.Bool("err", c.Err != nil),
			},
		})
	}
}
