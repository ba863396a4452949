package repro

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// mustRun executes s on a zero Engine and fails the test on error.
func mustRun(t testing.TB, s Scenario) Result {
	t.Helper()
	var eng Engine
	res, err := eng.Run(t.Context(), s)
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	return res
}

// mustReject fails the test for every scenario that a zero Engine accepts.
func mustReject(t *testing.T, cases map[string]Scenario) {
	t.Helper()
	var eng Engine
	for name, s := range cases {
		if _, err := eng.Run(t.Context(), s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunAbstractBatch(t *testing.T) {
	res := mustRun(t, Scenario{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 50, Options: []Option{WithSeed(1)}}).Batch
	if res.Model != "abstract" || res.Algorithm != "BEB" || res.N != 50 {
		t.Fatalf("metadata: %+v", res)
	}
	if res.CWSlots < 50 {
		t.Fatalf("CW slots %d below n", res.CWSlots)
	}
	if res.TotalTime != 0 {
		t.Fatal("abstract model should not report wall time")
	}
}

func TestRunWiFiBatch(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), Algorithm: MustAlgorithm("STB"), N: 30, Options: []Option{WithSeed(2)}}).Batch
	if res.TotalTime <= 0 || res.HalfTime <= 0 || res.HalfTime > res.TotalTime {
		t.Fatalf("times: %+v", res)
	}
	if res.Decomposition == nil || res.Decomposition.Observed != res.TotalTime {
		t.Fatalf("decomposition missing or inconsistent: %+v", res.Decomposition)
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	mustReject(t, map[string]Scenario{
		"abstract": {Model: Abstract(), Algorithm: Algorithm{spec: "WAT"}, N: 10},
		"wifi":     {Model: WiFi(), Algorithm: Algorithm{spec: "WAT"}, N: 10},
	})
}

func TestBadNRejected(t *testing.T) {
	mustReject(t, map[string]Scenario{
		"abstract n=0":  {Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 0},
		"wifi n=-1":     {Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: -1},
		"best-of-k n=0": {Model: WiFi(), N: 0, Workload: BestOfKWorkload{K: 3}},
	})
}

func TestDeterminismAcrossCalls(t *testing.T) {
	s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 20}
	a := mustRun(t, s.WithOptions(WithSeed(7))).Batch
	b := mustRun(t, s.WithOptions(WithSeed(7))).Batch
	if a.TotalTime != b.TotalTime || a.CWSlots != b.CWSlots {
		t.Fatal("same options diverged")
	}
	c := mustRun(t, s.WithOptions(WithSeed(8))).Batch
	if a.TotalTime == c.TotalTime && a.CWSlots == c.CWSlots && a.Collisions == c.Collisions {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestPayloadOption(t *testing.T) {
	s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 15, Options: []Option{WithSeed(3)}}
	small := mustRun(t, s.WithOptions(WithPayload(64))).Batch
	large := mustRun(t, s.WithOptions(WithPayload(1024))).Batch
	if large.TotalTime <= small.TotalTime {
		t.Fatalf("1024B (%v) not slower than 64B (%v)", large.TotalTime, small.TotalTime)
	}
}

func TestRTSCTSOption(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10, Options: []Option{WithSeed(4), WithRTSCTS()}}).Batch
	if res.TotalTime <= 0 {
		t.Fatal("RTS/CTS run failed")
	}
}

func TestTraceOption(t *testing.T) {
	rec := &trace.Recorder{}
	mustRun(t, Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 5, Options: []Option{WithSeed(5), WithTrace(rec)}})
	if len(rec.Events) == 0 {
		t.Fatal("trace recorder captured nothing")
	}
}

func TestWithConfigTweak(t *testing.T) {
	s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10, Options: []Option{WithSeed(6)}}
	slow := mustRun(t, s.WithOptions(WithConfig(func(c *MACConfig) {
		c.AckTimeout = 400 * time.Microsecond
	}))).Batch
	fast := mustRun(t, s).Batch
	if slow.Collisions > 0 && slow.TotalTime <= fast.TotalTime {
		t.Fatalf("longer ACK timeout (%v) not slower than default (%v)", slow.TotalTime, fast.TotalTime)
	}
}

func TestRunBestOfK(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), N: 40, Workload: BestOfKWorkload{K: 5},
		Options: []Option{WithSeed(9)}}).BestOfK
	if res.MedianEstimate < 40 {
		t.Fatalf("median estimate %d underestimates n=40", res.MedianEstimate)
	}
	if res.EstimationTime <= 0 || res.TotalTime <= res.EstimationTime {
		t.Fatalf("phase times: est=%v total=%v", res.EstimationTime, res.TotalTime)
	}
}

func TestFixedAndPolyAlgorithms(t *testing.T) {
	for _, spec := range []string{"FIXED:64", "POLY:2"} {
		mustRun(t, Scenario{Model: Abstract(), Algorithm: MustAlgorithm(spec), N: 20, Options: []Option{WithSeed(10)}})
	}
}

func TestAlgorithmsList(t *testing.T) {
	got := Algorithms()
	want := []string{"BEB", "LB", "LLB", "STB"}
	if len(got) != len(want) {
		t.Fatalf("Algorithms() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Algorithms() = %v", got)
		}
	}
}
