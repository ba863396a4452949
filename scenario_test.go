package repro

import (
	"testing"
	"time"
)

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, spec := range []string{"BEB", "LB", "LLB", "STB", "FIXED:1", "FIXED:64", "POLY:2", "POLY:2.5"} {
		a, err := ParseAlgorithm(spec)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", spec, err)
		}
		if a.String() != spec {
			t.Errorf("ParseAlgorithm(%q).String() = %q", spec, a.String())
		}
		b, err := ParseAlgorithm(a.String())
		if err != nil || b != a {
			t.Errorf("round trip of %q: got %v (err %v)", spec, b, err)
		}
		if a.IsZero() {
			t.Errorf("valid algorithm %q reports IsZero", spec)
		}
	}
}

func TestParseAlgorithmErrors(t *testing.T) {
	for _, spec := range []string{"", "WAT", "beb", "FIXED:0", "FIXED:-3", "FIXED:x", "POLY:0.5", "best-of-3"} {
		if _, err := ParseAlgorithm(spec); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", spec)
		}
	}
	var zero Algorithm
	if !zero.IsZero() {
		t.Error("zero Algorithm does not report IsZero")
	}
}

func TestAlgorithmConstructors(t *testing.T) {
	if got := FixedWindow(64).String(); got != "FIXED:64" {
		t.Errorf("FixedWindow(64) = %q", got)
	}
	if got := FixedWindow(0).String(); got != "FIXED:1" {
		t.Errorf("FixedWindow(0) = %q (want clamp to 1)", got)
	}
	if got := Polynomial(2).String(); got != "POLY:2" {
		t.Errorf("Polynomial(2) = %q", got)
	}
	if got := Polynomial(0.2).String(); got != "POLY:1" {
		t.Errorf("Polynomial(0.2) = %q (want clamp to 1)", got)
	}
	if MustAlgorithm("BEB") != MustAlgorithm("BEB") {
		t.Error("equal algorithms compare unequal")
	}
	list := PaperAlgorithmList()
	if len(list) != 4 || list[0].String() != "BEB" || list[3].String() != "STB" {
		t.Errorf("PaperAlgorithmList() = %v", list)
	}
}

func TestMustAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAlgorithm(\"WAT\") did not panic")
		}
	}()
	MustAlgorithm("WAT")
}

func TestScenarioValidate(t *testing.T) {
	valid := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	cases := []struct {
		name string
		s    Scenario
	}{
		{"nil model", Scenario{Algorithm: MustAlgorithm("BEB"), N: 10}},
		{"n=0", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 0}},
		{"zero algorithm", Scenario{Model: WiFi(), N: 10}},
		{"best-of-k k=0", Scenario{Model: WiFi(), N: 10, Workload: BestOfKWorkload{}}},
		{"continuous zero horizon", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
			Workload: ContinuousWorkload{Arrivals: Saturated()}}},
		{"continuous empty arrivals", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
			Workload: ContinuousWorkload{Horizon: time.Millisecond}}},
		{"continuous bad rate", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
			Workload: ContinuousWorkload{Arrivals: Poisson(-1), Horizon: time.Millisecond}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", c.name, c.s)
		}
	}

	// Workloads that prescribe their own algorithm don't need one.
	for _, s := range []Scenario{
		{Model: WiFi(), N: 10, Workload: BestOfKWorkload{K: 3}},
		{Model: Abstract(), N: 10, Workload: TreeWorkload{}},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: Validate rejected: %v", s, err)
		}
	}
}

func TestScenarioString(t *testing.T) {
	s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 150}
	if got := s.String(); got != "wifi/LLB/n=150/single-batch" {
		t.Errorf("String() = %q", got)
	}
	tree := Scenario{Model: Abstract(), N: 30, Workload: TreeWorkload{}}
	if got := tree.String(); got != "abstract/-/n=30/tree" {
		t.Errorf("String() = %q", got)
	}
}

func TestScenarioWithOptionsDoesNotMutate(t *testing.T) {
	base := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
		Options: []Option{WithPayload(1024)}}
	reseeded := base.WithOptions(WithSeed(7))
	if len(base.Options) != 1 {
		t.Fatalf("WithOptions mutated the receiver: %d options", len(base.Options))
	}
	if len(reseeded.Options) != 2 {
		t.Fatalf("WithOptions lost options: %d", len(reseeded.Options))
	}
	// Appending to the copy must not leak into a sibling copy's backing array.
	a := base.WithOptions(WithSeed(1))
	b := base.WithOptions(WithSeed(2))
	ra, rb := mustRun(t, a), mustRun(t, b)
	if ra.Batch.TotalTime == rb.Batch.TotalTime && ra.Batch.CWSlots == rb.Batch.CWSlots {
		t.Error("sibling WithOptions copies shared a seed")
	}
}

// FuzzParseAlgorithm exercises the parser on arbitrary input: it must never
// panic, and every spec it accepts must round-trip through String —
// a.String() is the algorithm's identity (it names the RNG stream and feeds
// Scenario.Fingerprint), so an accepted-but-unstable spec would corrupt
// both determinism and content addressing.
func FuzzParseAlgorithm(f *testing.F) {
	for _, spec := range []string{
		"BEB", "LB", "LLB", "STB",
		"FIXED:1", "FIXED:64", "FIXED:0", "FIXED:-3", "FIXED:9999999999999999999999",
		"POLY:2", "POLY:2.5", "POLY:0.5", "POLY:NaN", "POLY:Inf", "POLY:1e309",
		"", "WAT", "beb", "best-of-3", "FIXED:", "POLY:", "FIXED:1:2", ":::", "FIXED:+64", "POLY:+2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := ParseAlgorithm(spec)
		if err != nil {
			if !a.IsZero() {
				t.Fatalf("ParseAlgorithm(%q) errored but returned non-zero %v", spec, a)
			}
			return
		}
		if a.String() != spec {
			t.Fatalf("ParseAlgorithm(%q).String() = %q", spec, a.String())
		}
		b, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("accepted spec %q does not re-parse: %v", spec, err)
		}
		if b != a {
			t.Fatalf("round trip of %q: %v != %v", spec, b, a)
		}
	})
}
