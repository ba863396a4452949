package phy

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/rng"
)

func withAP(ps []Position) []Position { return append([]Position{APPosition()}, ps...) }

// TestTopologySharedAcrossMediums: two mediums on one layout and config
// read the same immutable topology; the matrix is built once.
func TestTopologySharedAcrossMediums(t *testing.T) {
	var topos []*topology
	for i := 0; i < 2; i++ {
		_, m := newTestMedium()
		for _, p := range withAP(StationGrid(37)) {
			m.AddNode(p, nopListener{})
		}
		topos = append(topos, m.topology())
	}
	if topos[0] != topos[1] {
		t.Fatal("mediums on one layout built separate topologies")
	}
}

// TestTopologyKeyIsExact: any difference in the inputs buildTopology reads
// — one node position (even -0 vs +0), transmit power, noise floor,
// carrier-sense threshold, path-loss parameters — yields a distinct
// topology; knobs outside the key (loss probability and seed, abort
// window) share one.
func TestTopologyKeyIsExact(t *testing.T) {
	c := newTopoCache(32 << 20)
	base := DefaultConfig()
	ps := withAP(StationGrid(20))
	t0 := c.topologyFor(&base, append([]Position(nil), ps...))

	moved := append([]Position(nil), ps...)
	moved[7].X += 1e-9
	negZero := append([]Position(nil), ps...)
	negZero[1].X = math.Copysign(0, -1) // StationGrid(…)[0] sits at +0
	cfgs := map[string]Config{}
	for name, mod := range map[string]func(*Config){
		"TxPower":     func(c *Config) { c.TxPower += 1e-12 },
		"NoiseFloor":  func(c *Config) { c.NoiseFloor-- },
		"CSThreshold": func(c *Config) { c.CSThreshold++ },
		"Exponent":    func(c *Config) { c.PathLoss = LogDistance{Exponent: 3.5, ReferenceDist: 1, ReferenceLoss: 46.6777} },
		"FixedLoss":   func(c *Config) { c.PathLoss = FixedLoss(60) },
	} {
		cfg := base
		mod(&cfg)
		cfgs[name] = cfg
	}
	for name, cfg := range cfgs {
		if c.topologyFor(&cfg, append([]Position(nil), ps...)) == t0 {
			t.Errorf("config differing in %s shared the base topology", name)
		}
	}
	for name, layout := range map[string][]Position{"moved": moved, "negative zero": negZero, "shorter": ps[:20]} {
		if c.topologyFor(&base, layout) == t0 {
			t.Errorf("%s layout shared the base topology", name)
		}
	}

	same := base
	same.FrameLossProb, same.LossSeed, same.AbortOverlapAfter = 0.3, 9, 5
	if c.topologyFor(&same, append([]Position(nil), ps...)) != t0 {
		t.Error("per-medium knobs outside the key split the topology")
	}
	fl := cfgs["FixedLoss"]
	if c.topologyFor(&fl, append([]Position(nil), ps...)) != c.topologyFor(&fl, append([]Position(nil), ps...)) {
		t.Error("FixedLoss configs are not shared")
	}
}

// countingLoss is a user-defined path-loss model: the cache cannot know it
// is pure, so it must never be keyed.
type countingLoss struct{ calls *int }

func (l countingLoss) Loss(d float64) DB { *l.calls++; return NewLogDistance().Loss(d) }

func TestCustomPathLossBypassesCache(t *testing.T) {
	c := newTopoCache(32 << 20)
	calls := 0
	for _, pl := range []PathLossModel{countingLoss{&calls}, &LogDistance{3, 1, 46.6777}} {
		cfg := DefaultConfig()
		cfg.PathLoss = pl
		ps := withAP(StationGrid(5))
		if c.topologyFor(&cfg, ps) == c.topologyFor(&cfg, ps) {
			t.Errorf("%T: a custom path-loss model shared a topology", pl)
		}
	}
	if calls != 2*6*5 {
		t.Errorf("custom model evaluated %d times, want one build per medium (%d)", calls, 2*6*5)
	}
	if c.lru.Len() != 0 || c.bytes != 0 {
		t.Errorf("custom models retained %d entries / %d bytes", c.lru.Len(), c.bytes)
	}
}

// TestTopologyCacheByteBound: the retained size never exceeds the bound,
// an oversized topology is built but not retained, and an evicted layout
// comes back bit-identical.
func TestTopologyCacheByteBound(t *testing.T) {
	const bound = 64 << 10
	c := newTopoCache(bound)
	cfg := DefaultConfig()
	first := c.topologyFor(&cfg, withAP(StationGrid(30)))
	for n := 1; n <= 60; n++ {
		c.topologyFor(&cfg, withAP(StationGrid(n)))
		var sum int64
		for el := c.lru.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*topoEntry).size()
		}
		if c.bytes != sum || c.bytes > bound {
			t.Fatalf("after n=%d: accounted %d bytes, entries hold %d, bound %d", n, c.bytes, sum, bound)
		}
	}
	// n=30 was evicted by the larger layouts that followed it.
	again := c.topologyFor(&cfg, withAP(StationGrid(30)))
	if again == first {
		t.Fatal("expected the n=30 topology to have been evicted")
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatal("rebuilt topology differs from the evicted one")
	}

	before := c.lru.Len()
	big := withAP(StationGrid(100)) // 8·101² bytes > bound
	if c.topologyFor(&cfg, big) == c.topologyFor(&cfg, big) {
		t.Fatal("oversized topology was shared")
	}
	if c.lru.Len() != before {
		t.Fatal("oversized topology was retained")
	}
}

// TestConcurrentMediumsShareTopology runs mediums on one layout and on
// different layouts from many goroutines (meaningful under -race), and
// checks each run's verdict trace against a serial run of the same case.
func TestConcurrentMediumsShareTopology(t *testing.T) {
	cases := []overlapCase{
		{n: 40, seed: 1, frames: 300},
		{n: 40, seed: 2, frames: 300},
		{n: 41, seed: 3, frames: 300},
		{nearFar: true, n: 12, seed: 4, frames: 300},
	}
	trace := func(c overlapCase) []bool {
		sched := &event.Scheduler{}
		m := NewMedium(sched, DefaultConfig())
		rec := &testListener{}
		layout := StationGrid(c.n)
		if c.nearFar {
			layout = NearFarLayout(c.n)
		}
		for _, p := range withAP(layout) {
			m.AddNode(p, rec)
		}
		schedulePattern(sched, m, rng.New(c.seed), c.frames, 0)
		sched.Run(0)
		return rec.frames
	}
	want := make([][]bool, len(cases))
	for i, c := range cases {
		want[i] = trace(c)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		for i, c := range cases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := trace(c); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("case %d: concurrent verdicts differ from the serial run", i)
				}
			}()
		}
	}
	wg.Wait()
}

// TestTopologyCacheConcurrentMisses hammers one small cache from several
// goroutines with overlapping layouts, so concurrent misses, duplicate
// builds, inserts and evictions interleave (meaningful under -race). Every
// returned topology must equal a serial build of the same layout.
func TestTopologyCacheConcurrentMisses(t *testing.T) {
	cfg := DefaultConfig()
	want := make([]*topology, 41)
	for n := range want {
		want[n] = buildTopology(&cfg, withAP(StationGrid(n)))
	}
	c := newTopoCache(96 << 10) // holds only a few of the larger layouts
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*len(want); i++ {
				n := (i*(w+1) + w) % len(want)
				if got := c.topologyFor(&cfg, withAP(StationGrid(n))); !reflect.DeepEqual(got, want[n]) {
					t.Errorf("n=%d: shared topology differs from a serial build", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bytes > c.maxBytes {
		t.Fatalf("cache holds %d bytes, bound %d", c.bytes, c.maxBytes)
	}
}
