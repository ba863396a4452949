package experiments

import (
	"math"
	"strings"
	"testing"

	"repro"
)

func TestIntXs(t *testing.T) {
	xs := intXs(10, 150, 10)
	if len(xs) != 15 || xs[0] != 10 || xs[14] != 150 {
		t.Fatalf("intXs = %v", xs)
	}
}

func TestIntXsPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	intXs(10, 5, 1)
}

// testPoint is a five-trial point with the given median and CI.
func testPoint(x, median, lo, hi float64) Point {
	return Point{X: x, PointSummary: repro.PointSummary{Median: median, CI95Lo: lo, CI95Hi: hi, Trials: 5}}
}

func makeTable() Table {
	return Table{
		ID: "fig0", Title: "test", XLabel: "n", YLabel: "y",
		Series: []Series{
			{Name: "BEB", Points: []Point{testPoint(10, 100, 90, 110), testPoint(20, 200, 180, 220)}},
			{Name: "STB", Points: []Point{testPoint(10, 50, 45, 55), testPoint(20, 260, 250, 270)}},
		},
	}
}

func TestPercentVsBaseline(t *testing.T) {
	tab := makeTable()
	got, err := tab.PercentVsBaseline("STB", "BEB")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-30) > 1e-9 { // (260-200)/200
		t.Fatalf("percent = %v", got)
	}
	if _, err := tab.PercentVsBaseline("NOPE", "BEB"); err == nil {
		t.Fatal("missing series accepted")
	}
}

func TestWriteTable(t *testing.T) {
	tab := makeTable()
	tab.Notes = append(tab.Notes, "hello note")
	var sb strings.Builder
	if err := tab.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIG0", "BEB", "STB", "hello note", "200.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tab := makeTable()
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "n,BEB_median") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "10,100") {
		t.Fatalf("row %q", lines[1])
	}
}

func TestWritePlot(t *testing.T) {
	tab := makeTable()
	var sb strings.Builder
	if err := tab.WritePlot(&sb, 60, 12); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "B") || !strings.Contains(out, "l") {
		t.Fatalf("plot missing markers:\n%s", out)
	}
	if !strings.Contains(out, "B=BEB") {
		t.Fatalf("plot missing legend:\n%s", out)
	}
}

func TestSeriesValue(t *testing.T) {
	s := makeTable().Series[0]
	if s.Value(10) != 100 {
		t.Fatal("Value(10)")
	}
	if v := s.Value(99); !math.IsNaN(v) {
		t.Fatalf("Value(99) = %v, want NaN", v)
	}
}
