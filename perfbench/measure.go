package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
)

// minRequests is the fewest requests a full-size measurement ends with, so
// that a p99 latency has at least ten samples beyond it.
const minRequests = 1000

// workload is one named benchmark workload.
type workload struct {
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median, and the last instance is the one measured.
	setupReps int
	// setup builds the workload's inputs from seed and readies the program
	// under test.
	setup func(ctx context.Context, cfg config, seed uint64) (instance, error)
}

// workloads maps --workload names to their definitions. README.md says why
// each one was chosen.
var workloads = map[string]workload{
	"wifi-grid":       {setupReps: 5, setup: setupGrid(wifiGrid)},
	"abstract-largen": {setupReps: 5, setup: setupGrid(abstractGrid)},
	"wifi-continuous": {setupReps: 5, setup: setupGrid(continuousGrid)},
	"serve-mixed":     {setupReps: 3, setup: setupServe},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// instance is one set-up workload.
type instance interface {
	// measure runs the workload for at least d and adds what it did to t.
	// With lt non-nil it also feeds the per-layer tally.
	measure(ctx context.Context, d time.Duration, t *tally, lt *layerTally) error
	// verify runs the output checks too slow for the measured loop.
	verify(ctx context.Context, t *tally) error
	// digest returns the hex SHA-256 over the store's JSON encoding of the
	// instance's digest cells, in stream order.
	digest(ctx context.Context) (string, error)
	// workers is the engine's worker count.
	workers() int
	close() error
}

// tally accumulates what one measured pass did.
type tally struct {
	cells     int64
	attempted int64
	failed    int64
	failures  []string
	// latencies holds one entry per request: an HTTP request on
	// serve-mixed, a grid cell on the batch workloads.
	latencies  []time.Duration
	elapsed    time.Duration
	allocBytes uint64
	gcCycles   uint32
}

// fail counts one failed operation and keeps the first few reasons.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, err.Error())
	}
}

// merge adds o's operation counts to t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
}

func (t *tally) cellsPerSec() float64 { return float64(t.cells) / t.elapsed.Seconds() }

// timed runs body on a freshly collected heap and charges its wall time,
// allocation and GC cycles to t.
func timed(t *tally, body func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := body()
	t.elapsed += time.Since(t0)
	runtime.ReadMemStats(&m1)
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	t.gcCycles += m1.NumGC - m0.NumGC
	return err
}

// cellLatencies is the Engine.Observer of the batch workloads: it records
// each cell's end-to-end engine time, and feeds the layer tally when one
// is attached.
type cellLatencies struct {
	mu     sync.Mutex
	totals []time.Duration
	lt     *layerTally
}

func (o *cellLatencies) ObserveCell(c repro.CellInfo) {
	o.mu.Lock()
	o.totals = append(o.totals, c.Total)
	o.mu.Unlock()
	if o.lt != nil {
		o.lt.observeCell(c)
	}
}

// layerTally accumulates the traced pass's per-layer numbers. The engine
// fields come from Engine.Observer (batch workloads) or the serving
// layer's cell spans; result-derived fields from the cells themselves.
type layerTally struct {
	mu sync.Mutex

	kernelCells int64 // simulated cells that ran the event kernel
	scheduled   uint64
	fired       uint64
	canceled    uint64
	reused      uint64
	idleElided  uint64
	maxQueue    int
	txTotal     uint64
	txReuses    uint64
	kernelSim   time.Duration

	abstractSim   time.Duration
	abstractSlots int64

	trafficCells int64
	offered      int64
	delivered    int64

	topology     map[string]bool
	topoCells    int64
	topoRepeated int64

	sim    []time.Duration
	admit  []time.Duration
	replay []time.Duration
	put    []time.Duration
	busy   time.Duration

	// Serving-layer numbers, set by the serve workload.
	hitFrac float64
	// recordKB is the mean store record size.
	recordKB            float64
	respBytes, respCell int64
	handlerP50          float64
	handlerP99          float64
}

func newLayerTally() *layerTally { return &layerTally{topology: map[string]bool{}} }

// observeCell folds one engine cell report into the tally.
func (lt *layerTally) observeCell(c repro.CellInfo) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.busy += c.Total
	if !c.Simulated {
		lt.replay = append(lt.replay, c.Total)
		return
	}
	lt.sim = append(lt.sim, c.SimDuration)
	lt.admit = append(lt.admit, c.AdmitWait)
	if c.PutDuration > 0 {
		lt.put = append(lt.put, c.PutDuration)
	}
	switch c.Scenario.Model.Name() {
	case "wifi":
		lt.kernelCells++
		lt.kernelSim += c.SimDuration
		lt.scheduled += c.Sim.EventsScheduled
		lt.fired += c.Sim.EventsFired
		lt.canceled += c.Sim.EventsCanceled
		lt.reused += c.Sim.EventsReused
		lt.idleElided += c.Sim.IdleSlotsElided
		lt.maxQueue = max(lt.maxQueue, c.Sim.MaxQueueLen)
		lt.txTotal += uint64(c.Sim.TxTotal)
		lt.txReuses += uint64(c.Sim.TxReuses)
	default:
		lt.abstractSim += c.SimDuration
	}
}

// observeResult folds the result-derived numbers of one simulated cell:
// abstract slots, traffic counts, and whether its topology repeats.
func (lt *layerTally) observeResult(s repro.Scenario, r repro.Result) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if s.Model.Name() == "wifi" {
		// Positions and radio parameters are a function of n alone here:
		// no benchmark input overrides the default grid layout or radio
		// configuration.
		key := "n=" + strconv.Itoa(s.N)
		lt.topoCells++
		if lt.topology[key] {
			lt.topoRepeated++
		}
		lt.topology[key] = true
	} else if r.Batch != nil {
		lt.abstractSlots += int64(r.Batch.CWSlots)
	}
	if r.Traffic != nil {
		lt.trafficCells++
		lt.offered += int64(r.Traffic.Offered)
		lt.delivered += int64(r.Traffic.Delivered)
	}
}

// finish converts the tally into per-layer metrics for a traced pass that
// ran t on the given number of workers.
func (lt *layerTally) finish(m map[string]metricValue, t *tally, workers int) {
	set := func(name, unit string, v float64) { m[name] = metricValue{v, unit} }
	kc := float64(lt.kernelCells)
	set("event.fired_per_cell", "count", ratio(float64(lt.fired), kc))
	set("event.scheduled_per_cell", "count", ratio(float64(lt.scheduled), kc))
	set("event.cancel_frac", "frac", ratio(float64(lt.canceled), float64(lt.scheduled)))
	set("event.reuse_frac", "frac", ratio(float64(lt.reused), float64(lt.scheduled)))
	set("event.idle_elided_frac", "frac", ratio(float64(lt.idleElided), float64(lt.idleElided+lt.fired)))
	set("event.queue_high_water", "count", float64(lt.maxQueue))
	set("mac.ns_per_event", "ns", ratio(float64(lt.kernelSim.Nanoseconds()), float64(lt.fired)))
	set("phy.tx_per_cell", "count", ratio(float64(lt.txTotal), kc))
	set("phy.tx_reuse_frac", "frac", ratio(float64(lt.txReuses), float64(lt.txTotal)))
	set("phy.topology_repeat_frac", "frac", ratio(float64(lt.topoRepeated), float64(lt.topoCells)))
	set("slotted.ns_per_slot", "ns", ratio(float64(lt.abstractSim.Nanoseconds()), float64(lt.abstractSlots)))
	set("traffic.offered_per_cell", "count", ratio(float64(lt.offered), float64(lt.trafficCells)))
	set("traffic.delivered_frac", "frac", ratio(float64(lt.delivered), float64(lt.offered)))
	set("engine.sim_ms_p50", "ms", quantileMS(lt.sim, 0.50))
	set("engine.sim_ms_p99", "ms", quantileMS(lt.sim, 0.99))
	set("engine.admit_wait_ms_p99", "ms", quantileMS(lt.admit, 0.99))
	set("harness.worker_busy_frac", "frac", ratio(lt.busy.Seconds(), t.elapsed.Seconds()*float64(workers)))
	set("store.replay_us_p50", "us", 1000*quantileMS(lt.replay, 0.50))
	set("store.replay_us_p99", "us", 1000*quantileMS(lt.replay, 0.99))
	set("store.put_us_p50", "us", 1000*quantileMS(lt.put, 0.50))
	set("store.put_us_p99", "us", 1000*quantileMS(lt.put, 0.99))
	set("store.hit_frac", "frac", lt.hitFrac)
	set("store.record_kb", "KB", lt.recordKB)
	set("serve.response_kb_per_cell", "KB", ratio(float64(lt.respBytes)/1024, float64(lt.respCell)))
	set("serve.handler_ms_p50", "ms", lt.handlerP50)
	set("serve.handler_ms_p99", "ms", lt.handlerP99)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileMS is the nearest-rank q-quantile of ds in milliseconds, or 0 for
// no samples. ds is sorted in place.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return float64(ds[max(i, 0)]) / float64(time.Millisecond)
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB, or the
// runtime's total mapped memory where /proc is not available.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
