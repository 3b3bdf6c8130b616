package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(tight))
		for i, v := range tight {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{70, 130, 100, 85, 115, 100, 60, 140, 100, 100}
	for _, c := range []struct {
		name        string
		parent, chg []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same runs", tight, tight, true, 0.1, "within"},
		{"5% slower, bound 10%", tight, scaled(1.05), true, 0.1, "within"},
		{"20% slower", tight, scaled(1.2), true, 0.1, "worse"},
		{"20% less throughput", tight, scaled(0.8), false, 0.1, "worse"},
		{"every run faster", tight, scaled(0.9), true, 0.1, "better"},
		{"every run more throughput", tight, scaled(1.1), false, 0.1, "better"},
		{"spread wider than bound", wide, wide, true, 0.1, "unresolved"},
		{"wide but every run better", wide, []float64{50, 55, 52, 51, 53, 54, 50, 52, 51, 53}, true, 0.1, "better"},
		{"nothing measured", nil, tight, true, 0.1, "missing"},
	} {
		if got := verdict(c.parent, c.chg, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReportsEveryWorkloadAndMetric(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end": [
		{"name": "op_cpu_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "sim_work_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`
	write := func(name string, p50, work float64) string {
		var b bytes.Buffer
		for i := 0; i < 5; i++ {
			for _, wl := range []string{"olap-suite", "serve-openloop"} {
				r := record{Workload: wl, Seed: uint64(i), Result: &result{Correct: true, Attempted: 1, Metrics: map[string]metric{
					"op_cpu_ms_p50":      {Value: p50 * (1 + float64(i)/1000), Unit: "ms"},
					"sim_work_per_cpu_s": {Value: work, Unit: "1/s"},
				}}}
				line, _ := json.Marshal(r)
				b.Write(append(line, '\n'))
			}
			// traced runs are not compared
			line, _ := json.Marshal(record{Workload: "olap-suite", Trace: 1, Result: &result{Metrics: map[string]metric{"op_cpu_ms_p50": {Value: 1e9}}}})
			b.Write(append(line, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	parent := write("parent.jsonl", 10, 1000)
	change := write("change.jsonl", 13, 1000)
	var out bytes.Buffer
	if code := compareMain([]string{"--bench", specPath, parent, change}, &out); code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 1+2*2 {
		t.Fatalf("want a header and 4 rows, got:\n%s", out.String())
	}
	for _, want := range []string{"olap-suite       op_cpu_ms_p50", "serve-openloop   sim_work_per_cpu_s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no row %q in:\n%s", want, out.String())
		}
	}
	if !strings.Contains(rows[1], "worse") || !strings.Contains(rows[2], "within") {
		t.Errorf("verdicts wrong:\n%s", out.String())
	}
	if code := compareMain([]string{parent}, &out); code != 2 {
		t.Errorf("one result set: exit %d, want 2", code)
	}
}
