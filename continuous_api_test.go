package repro

import (
	"testing"
	"time"
)

func TestRunContinuousTrafficPoisson(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 8,
		Workload: ContinuousWorkload{Arrivals: Poisson(200), Horizon: 100 * time.Millisecond},
		Options:  []Option{WithSeed(1)}}).Traffic
	if res.Offered == 0 || res.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", res)
	}
	if res.Backlog != res.Offered-res.Delivered {
		t.Fatalf("backlog inconsistent: %+v", res)
	}
	if res.ThroughputMbps <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestRunContinuousTrafficSaturatedWithCWMin16(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 8,
		Workload: ContinuousWorkload{Arrivals: Saturated(), Horizon: 100 * time.Millisecond},
		Options:  []Option{WithSeed(2), WithConfig(func(c *MACConfig) { c.CWMin = 16 })}}).Traffic
	if res.JainFairness < 0.5 {
		t.Fatalf("fairness %v too low with CWmin=16", res.JainFairness)
	}
	if res.Backlog == 0 {
		t.Fatal("saturation should leave a backlog")
	}
}

func TestRunContinuousTrafficBursty(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 10,
		Workload: ContinuousWorkload{Arrivals: BurstyPareto(1.5, 5*time.Millisecond, 6), Horizon: 150 * time.Millisecond},
		Options:  []Option{WithSeed(3)}}).Traffic
	if res.Delivered == 0 {
		t.Fatal("bursty run delivered nothing")
	}
	if !(res.LatencyP50 <= res.LatencyP95 && res.LatencyP95 <= res.LatencyMax) {
		t.Fatalf("latency quantiles out of order: %+v", res)
	}
}

func TestRunContinuousTrafficValidation(t *testing.T) {
	continuous := func(n int, alg string, a ArrivalSpec, horizon time.Duration) Scenario {
		return Scenario{Model: WiFi(), Algorithm: Algorithm{spec: alg}, N: n,
			Workload: ContinuousWorkload{Arrivals: a, Horizon: horizon}}
	}
	mustReject(t, map[string]Scenario{
		"n=0":                continuous(0, "BEB", Saturated(), time.Millisecond),
		"zero horizon":       continuous(5, "BEB", Saturated(), 0),
		"unknown algorithm":  continuous(5, "WAT", Saturated(), time.Millisecond),
		"negative rate":      continuous(5, "BEB", Poisson(-1), time.Millisecond),
		"zero interval":      continuous(5, "BEB", Periodic(0), time.Millisecond),
		"bad pareto":         continuous(5, "BEB", BurstyPareto(0.5, 0, 0), time.Millisecond),
		"empty arrival spec": continuous(5, "BEB", ArrivalSpec{}, time.Millisecond),
	})
}

func TestPredictSaturatedThroughput(t *testing.T) {
	th, err := PredictSaturatedThroughput(10, 16, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0 || th > 54 {
		t.Fatalf("Bianchi throughput %v Mbps out of range", th)
	}
	small, _ := PredictSaturatedThroughput(10, 16, 64)
	if small >= th {
		t.Fatalf("64B throughput %v not below 1024B %v", small, th)
	}
}

func TestRunTreeBatchAPI(t *testing.T) {
	res := mustRun(t, Scenario{Model: Abstract(), N: 100, Workload: TreeWorkload{},
		Options: []Option{WithSeed(4)}}).Batch
	if res.Algorithm != "TREE" || res.CWSlots < 100 {
		t.Fatalf("tree result: %+v", res)
	}
}

func TestContinuousTrafficDeterministic(t *testing.T) {
	s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("STB"), N: 6,
		Workload: ContinuousWorkload{Arrivals: Poisson(300), Horizon: 80 * time.Millisecond},
		Options:  []Option{WithSeed(7)}}
	if a, b := *mustRun(t, s).Traffic, *mustRun(t, s).Traffic; a != b {
		t.Fatalf("same options diverged: %+v vs %+v", a, b)
	}
}
