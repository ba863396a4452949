package repro

// Golden tests for the report sinks: a fixed quick-config sweep rendered to
// CSV and JSON lines must be byte-stable (column order, float formatting),
// so downstream tooling can diff regenerated reports. Regenerate with
//
//	go test -run TestReportGoldens -update-report .
//
// only alongside an intentional behavioural change.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateReport = flag.Bool("update-report", false, "rewrite report golden files")

// goldenReport is the fixed quick sweep behind the sink goldens: both
// models, two batch sizes, five trials, three metrics.
func goldenReport(t *testing.T) *Report {
	t.Helper()
	var scenarios []Scenario
	for _, model := range []Model{Abstract(), WiFi()} {
		for _, n := range []int{10, 20} {
			scenarios = append(scenarios, Scenario{Model: model, Algorithm: MustAlgorithm("BEB"), N: n})
		}
	}
	rep, err := (&Engine{}).Aggregate(context.Background(), scenarios, SequentialSeeds(1, 5),
		MakespanSlots(), TotalTime(), CollisionRate())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReportGoldens(t *testing.T) {
	rep := goldenReport(t)
	var csvBuf, jsonBuf bytes.Buffer
	if err := (CSVSink{W: &csvBuf}).Emit(rep); err != nil {
		t.Fatal(err)
	}
	if err := (JSONLSink{W: &jsonBuf}).Emit(rep); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []byte
	}{
		{"report_quick.golden.csv", csvBuf.Bytes()},
		{"report_quick.golden.jsonl", jsonBuf.Bytes()},
	} {
		path := filepath.Join("testdata", c.name)
		if *updateReport {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update-report): %v", c.name, err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s diverged\ngot:\n%s\nwant:\n%s", c.name, c.got, want)
		}
	}
}

// TestCSVSinkShape pins the header contract independent of golden files.
func TestCSVSinkShape(t *testing.T) {
	rep := goldenReport(t)
	var buf bytes.Buffer
	if err := (CSVSink{W: &buf}).Emit(rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(rep.Rows) {
		t.Fatalf("%d lines for %d rows", len(lines), len(rep.Rows))
	}
	wantHeader := "scenario,n,failed," +
		"cw_slots_median,cw_slots_ci_lo,cw_slots_ci_hi,cw_slots_mean,cw_slots_trials,cw_slots_outliers," +
		"total_time_us_median,total_time_us_ci_lo,total_time_us_ci_hi,total_time_us_mean,total_time_us_trials,total_time_us_outliers," +
		"collision_rate_median,collision_rate_ci_lo,collision_rate_ci_hi,collision_rate_mean,collision_rate_trials,collision_rate_outliers"
	if lines[0] != wantHeader {
		t.Fatalf("header:\n%s\nwant:\n%s", lines[0], wantHeader)
	}
	if !strings.HasPrefix(lines[1], "abstract/BEB/n=10/single-batch,10,0,") {
		t.Fatalf("row 1: %s", lines[1])
	}
	// TotalTime is NaN under the abstract model; CSV spells it NaN.
	if !strings.Contains(lines[1], ",NaN,") {
		t.Fatalf("abstract row should carry NaN total time: %s", lines[1])
	}
}

// TestJSONLSinkNaN: the abstract model's NaN total time must encode as
// null, one valid JSON object per line.
func TestJSONLSinkNaN(t *testing.T) {
	rep := goldenReport(t)
	var buf bytes.Buffer
	if err := (JSONLSink{W: &buf}).Emit(rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rep.Rows) {
		t.Fatalf("%d lines for %d rows", len(lines), len(rep.Rows))
	}
	if !strings.Contains(lines[0], `"name":"total_time_us","median":null`) {
		t.Fatalf("NaN not encoded as null: %s", lines[0])
	}
	if !strings.Contains(lines[0], `"scenario":"abstract/BEB/n=10/single-batch"`) {
		t.Fatalf("scenario label missing: %s", lines[0])
	}
}
