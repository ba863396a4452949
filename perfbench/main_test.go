package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"repro"
)

// tinyConfig is a tiny-input run of workload w.
func tinyConfig(t *testing.T, w string, trace bool) config {
	return config{workload: w, seed: defaultSeed, seconds: 0.05, trace: trace, size: tiny,
		workDir: t.TempDir(), pinned: pinnedTiny}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
}

// TestWorkloadsReportExactlyTheirMetrics runs every workload at tiny size,
// untraced and traced, and checks the report is correct and names exactly
// the contract's metrics with their units.
func TestWorkloadsReportExactlyTheirMetrics(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			rep, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d: %v", w, trace, len(rep.Metrics), len(want), slices.Sorted(maps.Keys(rep.Metrics)))
			}
			for _, d := range want {
				if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}

			var out bytes.Buffer
			if err := printReport(&out, cfg, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w, err)
			}
			if keys := slices.Sorted(maps.Keys(last)); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: report keys %v", w, keys)
			}
		}
	}
}

// TestOtherSeedChecksDefaultDigest runs with a seed other than the default:
// its outputs differ, but the run still checks the pinned digest.
func TestOtherSeedChecksDefaultDigest(t *testing.T) {
	for _, w := range []string{"wifi-continuous", "serve-mixed"} {
		cfg := tinyConfig(t, w, false)
		cfg.seed = 7
		rep, err := run(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Errorf("%s seed 7: not correct", w)
		}
		cfg.pinned = map[string]string{w: "tampered"}
		if rep, err = run(context.Background(), cfg, io.Discard); err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed != 1 {
			t.Errorf("%s seed 7 with a tampered digest: correct=%t failed=%d", w, rep.Correct, rep.Failed)
		}
	}
}

func TestTamperedDigestFails(t *testing.T) {
	for _, w := range workloadNames() {
		cfg := tinyConfig(t, w, false)
		cfg.pinned = maps.Clone(pinnedTiny)
		cfg.pinned[w] = strings.Repeat("0", 64)
		rep, err := run(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed != 1 || rep.Metrics["ok_frac"].Value >= 1 {
			t.Errorf("%s: tampered digest reported correct=%t failed=%d ok_frac=%v",
				w, rep.Correct, rep.Failed, rep.Metrics["ok_frac"].Value)
		}
	}
}

func TestInjectedCellErrorFails(t *testing.T) {
	ctx := context.Background()
	spec := wifiGrid(tiny)
	// The abstract model has no best-of-k workload: the cell fails at run
	// time, after the scenario validates.
	spec.scenarios = append(spec.scenarios, repro.Scenario{Model: repro.Abstract(), N: 4, Workload: repro.BestOfKWorkload{K: 3}})
	if _, err := newGridRun(ctx, spec, defaultSeed); err == nil {
		t.Fatal("warm-up accepted a failing cell")
	}
	g, err := newGridRun(ctx, wifiGrid(tiny), defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	g.spec = spec
	var tl tally
	if err := g.measure(ctx, 0, &tl, nil); err != nil {
		t.Fatal(err)
	}
	if tl.failed != int64(spec.trials) {
		t.Errorf("batch: %d failures for %d injected cell errors", tl.failed, spec.trials)
	}
}

func TestServeMismatchesFail(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(t, "serve-mixed", false)
	inst, err := setupServe(ctx, cfg, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveRun)
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()

	// A warm cell whose served bytes no longer match the direct run.
	for i := range s.warm.encoded {
		s.warm.encoded[i] = []byte(`{"tampered":true}`)
	}
	var tl tally
	if err := s.measure(ctx, 0, &tl, nil); err != nil {
		t.Fatal(err)
	}
	if tl.failed == 0 {
		t.Error("tampered warm results were not reported")
	}

	// Requests the server must reject: every warm scenario is now invalid,
	// so reads and aggregates get a 400.
	for i := range s.warm.specs {
		s.warm.specs[i].N = 0
	}
	tl = tally{}
	if err := s.measure(ctx, 0.05e9, &tl, nil); err != nil {
		t.Fatal(err)
	}
	if tl.failed == 0 || tl.failed == tl.attempted {
		t.Errorf("%d of %d requests failed; want the reads and aggregates only", tl.failed, tl.attempted)
	}
}

func TestFrameLayer(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"repro/internal/phy.(*Medium).endTx", "/src/internal/phy/medium.go", "phy"},
		{"repro/internal/harness.ForEach[...].func1", "/src/internal/harness/harness.go", "engine"},
		{"repro.(*Store).doTimed", "/src/store.go", "store"},
		{"repro.(*Aggregator).Add", "/src/aggregate.go", "aggregate"},
		{"repro.ScenarioSpec.Scenario", "/src/codec.go", "serve"},
		{"repro.Scenario.Fingerprint", "/src/scenario.go", "engine"},
		{"encoding/json.(*decodeState).object", "", "json"},
		{"net/http.(*conn).serve", "", "net"},
		{"net.(*netFD).Write", "", "net"},
		{"slices.SortFunc[go.shape.[]repro/internal/phy.T]", "", ""},
		{"runtime.memmove", "", ""},
		{"repro/internal/rng.(*Source).Uint64", "", ""},
	} {
		if got := frameLayer(c.fn, c.file); got != c.want {
			t.Errorf("frameLayer(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
	gc := []frame{{"runtime.scanobject", ""}, {"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker", ""}}
	if got := sampleLayer(gc); got != "gc" {
		t.Errorf("background mark worker stack attributed to %q", got)
	}
	leaf := []frame{{"runtime.mallocgc", ""}, {"repro/internal/rng.(*Source).Uint64", ""}, {"repro/internal/backoff.(*beb).Next", ""}, {"repro/internal/mac.(*sim).step", ""}}
	if got := sampleLayer(leaf); got != "backoff" {
		t.Errorf("runtime under rng under backoff attributed to %q", got)
	}
}
