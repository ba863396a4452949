package repro

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// recordingObserver collects every CellInfo; sweeps run cells in
// parallel, so appends are locked.
type recordingObserver struct {
	mu    sync.Mutex
	cells []CellInfo
}

func (r *recordingObserver) ObserveCell(c CellInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells = append(r.cells, c)
}

func (r *recordingObserver) counts() (simulated, replayed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.cells {
		if c.Simulated {
			simulated++
		} else {
			replayed++
		}
	}
	return
}

// TestSweepObserverIdentity is the passivity contract: attaching an
// Observer must not change a single bit of any sweep result — with or
// without a store, simulated or replayed.
func TestSweepObserverIdentity(t *testing.T) {
	scenarios := []Scenario{
		{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 20},
		{Model: Abstract(), Algorithm: MustAlgorithm("LLB"), N: 30},
	}
	seeds := []uint64{1, 7}
	wantCells := len(scenarios) * len(seeds)

	run := func(eng *Engine) []Result {
		t.Helper()
		var out []Result
		for cell := range eng.Sweep(t.Context(), scenarios, seeds) {
			if cell.Err != nil {
				t.Fatalf("cell (%d,%d): %v", cell.ScenarioIndex, cell.SeedIndex, cell.Err)
			}
			out = append(out, cell.Result)
		}
		return out
	}

	base := run(&Engine{Workers: 2})

	rec := &recordingObserver{}
	observed := run(&Engine{Workers: 2, Observer: rec})
	if !reflect.DeepEqual(base, observed) {
		t.Fatal("results with an observer differ from results with a nil observer")
	}
	if len(rec.cells) != wantCells {
		t.Fatalf("observer saw %d cells, want %d", len(rec.cells), wantCells)
	}
	kernelWork := false
	for _, c := range rec.cells {
		if !c.Simulated {
			t.Error("storeless sweep reported a replayed cell")
		}
		if c.Fingerprint != "" {
			t.Error("storeless sweep computed a fingerprint; cells should run uncached")
		}
		if c.Total < c.SimDuration {
			t.Errorf("cell total %v below sim duration %v", c.Total, c.SimDuration)
		}
		if c.Sim.EventsFired > 0 {
			kernelWork = true
		}
	}
	if !kernelWork {
		t.Error("no observed cell reported kernel events; SimStats plumbing is dead")
	}

	// Store-backed: the first sweep simulates and writes through, the
	// second replays everything — and both still match the baseline.
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("closing store: %v", err)
		}
	}()
	recStore := &recordingObserver{}
	eng := &Engine{Workers: 2, Store: st, Observer: recStore}
	if got := run(eng); !reflect.DeepEqual(base, got) {
		t.Fatal("cold store-backed observed sweep diverged from baseline")
	}
	if got := run(eng); !reflect.DeepEqual(base, got) {
		t.Fatal("warm store-backed observed sweep diverged from baseline")
	}
	if sim, rep := recStore.counts(); sim != wantCells || rep != wantCells {
		t.Fatalf("store-backed observer saw simulated=%d replayed=%d, want %d each", sim, rep, wantCells)
	}
	for _, c := range recStore.cells {
		if c.Fingerprint == "" {
			t.Error("store-backed observed cell carries no fingerprint")
		}
	}
}

type nopObserver struct{}

func (nopObserver) ObserveCell(CellInfo) {}

// TestObserverCellAllocs pins the cost contract at the cell: observing a
// storeless cell may read the clock, but it must not allocate more than
// running the same cell with a nil Observer.
func TestObserverCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are randomized under the race detector")
	}
	s := Scenario{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 50}
	o := buildOptions(s.Options)
	o.seed = 3
	allocs := func(e *Engine) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := e.runCell(context.Background(), s, o, ""); err != nil {
				t.Fatal(err)
			}
		})
	}
	unobserved := allocs(&Engine{})
	observed := allocs(&Engine{Observer: nopObserver{}})
	if observed > unobserved {
		t.Errorf("an observed cell allocates %v times, an unobserved one %v", observed, unobserved)
	}
}
