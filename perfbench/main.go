// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload — a figure grid, a large-n abstract grid, continuous
// traffic, or a mixed read/write load against the HTTP service — from a
// single process, checks every output, and prints the workload's metrics.
//
//	perfbench --workload wifi-grid --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing attached; with --trace 1 a separate traced pass reports the
// per-layer ones. README.md lists both sets and what each should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose result digests are pinned in the workload
// definitions. Runs with any other seed also replay the default seed's
// digest pass after measuring, so every run checks outputs against a
// pinned value.
const defaultSeed = 1

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract; BENCHMARK.json mirrors them and
// TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"alloc_kb_per_cell", "KB"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"req_ms_p50", "ms"},
	{"req_ms_p99", "ms"},
	{"req_per_s", "1/s"},
}

var perLayerMetrics = []metricDef{
	{"event.fired_per_cell", "count"},
	{"event.scheduled_per_cell", "count"},
	{"event.cancel_frac", "frac"},
	{"event.reuse_frac", "frac"},
	{"event.idle_elided_frac", "frac"},
	{"event.queue_high_water", "count"},
	{"mac.ns_per_event", "ns"},
	{"phy.tx_per_cell", "count"},
	{"phy.tx_reuse_frac", "frac"},
	{"phy.topology_repeat_frac", "frac"},
	{"slotted.ns_per_slot", "ns"},
	{"traffic.offered_per_cell", "count"},
	{"traffic.delivered_frac", "frac"},
	{"engine.sim_ms_p50", "ms"},
	{"engine.sim_ms_p99", "ms"},
	{"engine.admit_wait_ms_p99", "ms"},
	{"harness.worker_busy_frac", "frac"},
	{"store.replay_us_p50", "us"},
	{"store.replay_us_p99", "us"},
	{"store.put_us_p50", "us"},
	{"store.put_us_p99", "us"},
	{"store.hit_frac", "frac"},
	{"store.record_kb", "KB"},
	{"serve.response_kb_per_cell", "KB"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"event.cpu_frac", "frac"},
	{"phy.cpu_frac", "frac"},
	{"mac.cpu_frac", "frac"},
	{"slotted.cpu_frac", "frac"},
	{"backoff.cpu_frac", "frac"},
	{"traffic.cpu_frac", "frac"},
	{"engine.cpu_frac", "frac"},
	{"aggregate.cpu_frac", "frac"},
	{"store.cpu_frac", "frac"},
	{"serve.cpu_frac", "frac"},
	{"json.cpu_frac", "frac"},
	{"net.cpu_frac", "frac"},
	{"gc.cpu_frac", "frac"},
	{"gc.cycles_per_cell", "count"},
	{"trace.overhead_frac", "frac"},
}

// size selects full benchmark inputs or the tiny ones the self-tests use.
type size int

const (
	full size = iota
	tiny
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     size
	// workDir holds scratch state (the serve workload's result store). It
	// must lie inside the checkout the benchmark runs from.
	workDir string
	// pinned maps workload name to the result digest expected at
	// defaultSeed for this size.
	pinned map[string]string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// mainErr parses args, runs the benchmark, and returns the exit code: 0
// for a correct run, 1 for a run whose outputs were wrong (the report is
// still printed), 2 for a run that could not complete.
func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; inputs are a pure function of it")
	seconds := fs.Float64("seconds", 20, "measured seconds; a batch workload finishes the grid pass it is in")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		size: full, workDir: ".bench_build", pinned: pinnedFull,
	}
	fmt.Fprintln(stdout, envHeader(cfg))
	rep, err := run(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := printReport(stdout, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// envHeader describes the machine and run, so later comparisons can be
// made like for like.
func envHeader(cfg config) string {
	return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%g trace=%t go=%s gomaxprocs=%d nproc=%d cpu=%q",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

// cpuModel reads the processor name from /proc/cpuinfo, or reports
// "unknown" where that file does not exist.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes one human-readable line per metric, then the JSON
// report as the last line.
func printReport(w io.Writer, cfg config, rep report) error {
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		m := rep.Metrics[d.name]
		if _, err := fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, m.Value, m.Unit); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run executes one invocation: set-up (repeated, median reported), the
// measurement — with tracing, a traced half and then an untraced half —
// and the correctness gate.
func run(ctx context.Context, cfg config, log io.Writer) (report, error) {
	w := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return report{}, err
	}
	reps := w.setupReps
	if cfg.size == tiny {
		reps = 1
	}
	var inst instance
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return report{}, err
			}
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(ctx, cfg, cfg.seed)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintf(log, "perfbench: closing workload: %v\n", err)
		}
	}()

	d := time.Duration(cfg.seconds * float64(time.Second))
	var t tally
	metrics := map[string]metricValue{}
	if cfg.trace {
		// The traced and untraced halves share the run's time, so a traced
		// run takes as long as an untraced one.
		d /= 2
		lt := newLayerTally()
		prof, err := profileCPU(func() error { return inst.measure(ctx, d, &t, lt) })
		if err != nil {
			return report{}, err
		}
		traced := t.cellsPerSec()
		var base tally
		if err := inst.measure(ctx, d, &base, nil); err != nil {
			return report{}, err
		}
		lt.finish(metrics, &t, inst.workers())
		for layer, share := range prof.shares() {
			metrics[layer+".cpu_frac"] = metricValue{share, "frac"}
		}
		metrics["gc.cycles_per_cell"] = metricValue{ratio(float64(t.gcCycles), float64(t.cells)), "count"}
		metrics["trace.overhead_frac"] = metricValue{1 - traced/base.cellsPerSec(), "frac"}
		t.merge(&base)
	} else {
		if err := inst.measure(ctx, d, &t, nil); err != nil {
			return report{}, err
		}
		metrics["setup_s"] = metricValue{median(setups), "s"}
		metrics["cells_per_s"] = metricValue{t.cellsPerSec(), "1/s"}
		metrics["alloc_kb_per_cell"] = metricValue{ratio(float64(t.allocBytes)/1024, float64(t.cells)), "KB"}
		metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
		metrics["req_ms_p50"] = metricValue{quantileMS(t.latencies, 0.50), "ms"}
		metrics["req_ms_p99"] = metricValue{quantileMS(t.latencies, 0.99), "ms"}
		metrics["req_per_s"] = metricValue{float64(len(t.latencies)) / t.elapsed.Seconds(), "1/s"}
	}

	// The correctness gate: the pinned digest of this seed's inputs when
	// they are the default seed's, and otherwise a replay of the default
	// seed's digest pass, so every run is checked against pinned data.
	if err := inst.verify(ctx, &t); err != nil {
		return report{}, err
	}
	dinst := inst
	if cfg.seed != defaultSeed {
		var err error
		if dinst, err = w.setup(ctx, cfg, defaultSeed); err != nil {
			return report{}, fmt.Errorf("set-up for the digest check: %w", err)
		}
		defer func() {
			if err := dinst.close(); err != nil {
				fmt.Fprintf(log, "perfbench: closing digest workload: %v\n", err)
			}
		}()
	}
	got, err := dinst.digest(ctx)
	if err != nil {
		return report{}, fmt.Errorf("digest: %w", err)
	}
	t.attempted++
	if want := cfg.pinned[cfg.workload]; got != want {
		t.fail(fmt.Errorf("result digest at seed %d is %s, pinned %s", defaultSeed, got, want))
	}

	if !cfg.trace {
		metrics["ok_frac"] = metricValue{1 - ratio(float64(t.failed), float64(t.attempted)), "frac"}
	}
	for _, msg := range t.failures {
		fmt.Fprintf(log, "perfbench: FAIL %s\n", msg)
	}
	if t.attempted == 0 {
		return report{}, errors.New("no operation was attempted")
	}
	return report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}
