package experiments

// Figure-output regression goldens. The testdata CSVs were captured from the
// pre-Engine.Aggregate harness (the SweepSpec path); the migration onto the
// public Scenario grid + Engine.Aggregate pipeline is required to reproduce
// them byte-for-byte, which pins the per-trial RNG streams, the outlier
// filter, and the median-CI procedure across the refactor. Regenerate with
//
//	go test ./internal/experiments -run TestFigureGoldens -update
//
// only when an intentional behavioural change lands (and say so in CHANGES.md).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite figure golden files")

// goldenCases pins the quick-config outputs named in the PR acceptance
// criteria. tab3's axis starts at n=512, above Quick's NMax, so it gets its
// own reduced grid.
func goldenCases() []struct {
	name string
	tab  Table
} {
	return []struct {
		name string
		tab  Table
	}{
		{"fig3_quick", Figure3(Quick())},
		{"fig7_quick", Figure7(Quick())},
		{"tab3_quick", TableIII(Config{Trials: 5, NMax: 2048, Seed: 1})},
	}
}

// TestFigureGoldens pins each case twice: the CSV (every median, CI bound
// and trial count) and the text rendering cmd/figures prints (the aligned
// table, its notes, and the ASCII plot at cmd/figures' size).
func TestFigureGoldens(t *testing.T) {
	for _, c := range goldenCases() {
		var csv, text bytes.Buffer
		if err := c.tab.WriteCSV(&csv); err != nil {
			t.Fatalf("%s: WriteCSV: %v", c.name, err)
		}
		if err := c.tab.WriteTable(&text); err != nil {
			t.Fatalf("%s: WriteTable: %v", c.name, err)
		}
		if err := c.tab.WritePlot(&text, 78, 16); err != nil {
			t.Fatalf("%s: WritePlot: %v", c.name, err)
		}
		checkGolden(t, c.name+".golden.csv", csv.Bytes())
		checkGolden(t, c.name+".golden.txt", text.Bytes())
	}
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: missing golden (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output diverged from golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
