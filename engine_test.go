package repro

import (
	"context"
	"testing"
	"time"
)

func TestEngineRunRejectsInvalidScenarios(t *testing.T) {
	mustReject(t, map[string]Scenario{
		"zero scenario":       {},
		"unknown algorithm":   {Model: WiFi(), Algorithm: Algorithm{spec: "WAT"}, N: 10},
		"tree n=0":            {Model: Abstract(), N: 0, Workload: TreeWorkload{}},
		"wifi tree":           {Model: WiFi(), N: 10, Workload: TreeWorkload{}},
		"abstract best-of-k":  {Model: Abstract(), N: 10, Workload: BestOfKWorkload{K: 3}},
		"abstract continuous": {Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 10, Workload: ContinuousWorkload{Arrivals: Saturated(), Horizon: time.Millisecond}},
	})
}

func TestEngineRunHonoursCancelledContext(t *testing.T) {
	var eng Engine
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestEngineRunManyOrderAndError(t *testing.T) {
	var eng Engine
	scenarios := []Scenario{
		{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 20, Options: []Option{WithSeed(1)}},
		{Model: Abstract(), Algorithm: MustAlgorithm("STB"), N: 40, Options: []Option{WithSeed(2)}},
		{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 15, Options: []Option{WithSeed(3)}},
	}
	results, err := eng.RunMany(t.Context(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(scenarios) {
		t.Fatalf("got %d results", len(results))
	}
	for i, s := range scenarios {
		if results[i].Batch == nil || results[i].Batch.N != s.N || results[i].Batch.Model != s.Model.Name() {
			t.Errorf("result %d does not match its scenario: %+v", i, results[i].Batch)
		}
	}

	// An invalid scenario surfaces as the first-by-index error; the valid
	// ones still produce results.
	bad := append([]Scenario{{Model: WiFi(), N: 0}}, scenarios...)
	results, err = eng.RunMany(t.Context(), bad)
	if err == nil {
		t.Fatal("invalid scenario not reported")
	}
	if results[1].Batch == nil {
		t.Error("valid scenario result missing after sibling error")
	}
}
