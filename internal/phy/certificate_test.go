package phy

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/rng"
)

// The capture certificate in decodes settles a contended frame as lost
// without the interference sweep. Its contract is that every verdict is
// bit-identical to the sweep's. These tests drive randomized overlap
// patterns and, inside every FrameEnd callback, recompute the verdict with
// the certificate disabled (decodes(..., false) is the pure sweep).

// overlapCase is one randomized overlap pattern.
type overlapCase struct {
	name    string
	nearFar bool // NearFarLayout (capture happens) instead of StationGrid
	n       int  // stations; the AP is node 0
	seed    uint64
	frames  int
	abort   time.Duration // Config.AbortOverlapAfter
}

var overlapCases = []overlapCase{
	{"grid-small", false, 5, 1, 200, 0},
	{"grid-100", false, 100, 2, 600, 0},
	{"grid-abort", false, 20, 3, 400, 20 * time.Microsecond},
	{"grid-abort-late", false, 20, 4, 400, 150 * time.Microsecond},
	{"nearfar-small", true, 6, 5, 300, 0},
	{"nearfar-12", true, 12, 6, 600, 0},
	{"nearfar-abort", true, 12, 7, 400, 30 * time.Microsecond},
	{"two-nodes", false, 1, 8, 100, 0},
}

// verdictChecker is a listener that compares each delivered verdict with
// the swept verdict for the same (frame, receiver).
type verdictChecker struct {
	t    testing.TB
	m    *Medium
	node *Node
	tally
}

type tally struct {
	contended, captured int
}

func (c *verdictChecker) ChannelBusy(event.Time) {}
func (c *verdictChecker) ChannelIdle(event.Time) {}
func (c *verdictChecker) TxDone(*Tx, event.Time) {}
func (c *verdictChecker) FrameEnd(tx *Tx, ok bool, _ event.Time) {
	if swept := c.m.decodes(tx, c.node, false); ok != swept {
		c.t.Fatalf("frame from %d [%d,%d) at node %d: delivered verdict %v, swept verdict %v (interferers %d, aborted %v)",
			tx.Src.ID, tx.Start, tx.End, c.node.ID, ok, swept, len(tx.interferers), tx.aborted)
	}
	if tx.hasEffectiveInterferer() {
		c.contended++
		if ok {
			c.captured++
		}
	}
}

// runOverlapCase plays c's pattern on a fresh medium, failing t on the
// first verdict that differs from the sweep, and returns the medium and
// the tally over all receivers.
func runOverlapCase(t testing.TB, c overlapCase) (*Medium, tally) {
	cfg := DefaultConfig()
	cfg.AbortOverlapAfter = c.abort
	sched := &event.Scheduler{}
	m := NewMedium(sched, cfg)
	layout := StationGrid(c.n)
	if c.nearFar {
		layout = NearFarLayout(c.n)
	}
	var checkers []*verdictChecker
	for _, p := range append([]Position{APPosition()}, layout...) {
		ck := &verdictChecker{t: t, m: m}
		ck.node = m.AddNode(p, ck)
		checkers = append(checkers, ck)
	}
	schedulePattern(sched, m, rng.New(c.seed), c.frames, c.abort)
	sched.Run(0)

	var sum tally
	for _, ck := range checkers {
		sum.contended += ck.contended
		sum.captured += ck.captured
	}
	return m, sum
}

// plannedFrame is one transmission attempt of a pattern.
type plannedFrame struct {
	m     *Medium
	src   *Node
	rate  Rate
	bytes int
}

func fireFrame(_ event.Time, arg any) {
	f := arg.(*plannedFrame)
	if !f.src.Sending() {
		f.m.Transmit(f.src, f.rate, f.bytes, Payload{Src: f.src.ID})
	}
}

// schedulePattern arms frames transmission attempts. Every attempt's event
// is armed up front, so at equal instants it fires before any frame end:
// a frame planned to start exactly when an earlier one ends records it as
// an interferer that ends exactly at its start (and is one that starts
// exactly at the earlier frame's end). Starts are drawn from the earlier
// frame's start, its natural end, its abort cutoff, or a random offset.
func schedulePattern(sched *event.Scheduler, m *Medium, g *rng.Source, frames int, abort time.Duration) {
	nodes := m.Nodes()
	rates := []Rate{Rate6Mbps, Rate24Mbps, Rate54Mbps}
	sizes := []int{14, 128, 1088}
	var prevAt, prevDur time.Duration
	for i := 0; i < frames; i++ {
		f := &plannedFrame{
			m:     m,
			src:   nodes[g.Intn(len(nodes))],
			rate:  rates[g.Intn(len(rates))],
			bytes: sizes[g.Intn(len(sizes))],
		}
		var at time.Duration
		switch g.Intn(5) {
		case 0:
			at = prevAt
		case 1:
			at = prevAt + prevDur
		case 2:
			at = prevAt + abort
		case 3:
			at = prevAt + time.Duration(g.Int63n(int64(prevDur)+1))
		default:
			at = prevAt + prevDur + time.Duration(g.Int63n(int64(200*time.Microsecond)))
		}
		sched.ScheduleArg("test.tx", at, fireFrame, f)
		prevAt, prevDur = at, FrameDuration(f.rate, f.bytes)
	}
}

// TestCertificateMatchesSweep is the differential test: over randomized
// overlap patterns on the paper grid and the near-far layout, with and
// without AbortOverlapAfter, every delivered verdict equals the swept one.
func TestCertificateMatchesSweep(t *testing.T) {
	for _, c := range overlapCases {
		t.Run(c.name, func(t *testing.T) {
			m, sum := runOverlapCase(t, c)
			if sum.contended == 0 {
				t.Fatal("pattern produced no contended frame")
			}
			if c.n >= 2 && m.VerdictsCertified == 0 {
				t.Fatal("certificate never engaged")
			}
			if c.nearFar && c.abort == 0 && sum.captured == 0 {
				t.Fatal("near-far pattern produced no capture; the sweep path is unexercised")
			}
		})
	}
}

// FuzzCertificateMatchesSweep explores overlap patterns beyond the table.
func FuzzCertificateMatchesSweep(f *testing.F) {
	for _, c := range overlapCases {
		f.Add(c.nearFar, uint8(c.n), c.seed, uint16(c.frames), uint32(c.abort/time.Microsecond))
	}
	f.Fuzz(func(t *testing.T, nearFar bool, n uint8, seed uint64, frames uint16, abortUs uint32) {
		c := overlapCase{
			nearFar: nearFar,
			n:       1 + int(n)%150,
			seed:    seed,
			frames:  int(frames % 1000),
			abort:   time.Duration(abortUs%2000) * time.Microsecond,
		}
		runOverlapCase(t, c)
	})
}

// TestHasEffectiveInterferer pins the boundary cases of the overlap test
// the certificate depends on.
func TestHasEffectiveInterferer(t *testing.T) {
	tx := &Tx{Start: 100, End: 200}
	for _, c := range []struct {
		start, end event.Time
		want       bool
	}{
		{50, 100, false},  // ends exactly at tx.Start
		{200, 300, false}, // starts exactly at tx.End
		{50, 101, true},
		{199, 300, true},
		{120, 150, true},
		{100, 100, false}, // empty
		{150, 150, false}, // empty, inside tx
	} {
		tx.interferers = []*Tx{{Start: c.start, End: c.end}}
		if got := tx.hasEffectiveInterferer(); got != c.want {
			t.Errorf("interferer [%d,%d) against [100,200): got %v, want %v", c.start, c.end, got, c.want)
		}
	}
}

// TestGridAPVerdictsCertified: in the paper's grid no station can capture
// the AP over another (TestGridNoCapture), and the certificate is sharp
// enough to see it — every AP verdict on a frame with an effective
// interferer is settled without the sweep. Only the AP listens, so the
// medium's counters count AP verdicts alone.
func TestGridAPVerdictsCertified(t *testing.T) {
	sched := &event.Scheduler{}
	m := NewMedium(sched, DefaultConfig())
	ap := &apTally{}
	m.AddNode(APPosition(), ap)
	for _, p := range StationGrid(150) {
		m.AddNode(p, nil)
	}
	g := rng.New(11)
	nodes := m.Nodes()[1:]
	for i := 0; i < 2000; i++ {
		f := &plannedFrame{m: m, src: nodes[g.Intn(len(nodes))], rate: Rate54Mbps, bytes: 1088}
		sched.ScheduleArg("test.tx", time.Duration(g.Int63n(int64(50*time.Millisecond))), fireFrame, f)
	}
	sched.Run(0)
	if ap.contended == 0 {
		t.Fatal("no contended frame reached the AP")
	}
	if m.VerdictsCertified != ap.contended {
		t.Fatalf("certified %d AP verdicts, want all %d contended ones", m.VerdictsCertified, ap.contended)
	}
	if m.Verdicts != ap.frames {
		t.Fatalf("Verdicts = %d, want one per AP frame end (%d)", m.Verdicts, ap.frames)
	}
}

type apTally struct{ frames, contended int }

func (a *apTally) ChannelBusy(event.Time) {}
func (a *apTally) ChannelIdle(event.Time) {}
func (a *apTally) TxDone(*Tx, event.Time) {}
func (a *apTally) FrameEnd(tx *Tx, ok bool, _ event.Time) {
	a.frames++
	if tx.hasEffectiveInterferer() {
		a.contended++
		if ok {
			panic("a contended frame decoded at the AP on the paper grid")
		}
	}
}
