package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		p       float64
		want    float64
		beyond  int
		tailsOK bool
	}{
		{100, 50, 50, 50, true},
		{100, 90, 90, 10, true},
		{99, 90, 90, 9, false},
		{1000, 99, 990, 10, true},
		{10, 90, 9, 1, false},
		{1, 90, 1, 0, false},
	} {
		v, beyond := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("p%v of %d samples = %v with %d beyond, want %v with %d", c.p, c.n, v, beyond, c.want, c.beyond)
		}
		if got := beyond >= tailSamples; got != c.tailsOK {
			t.Errorf("p%v of %d samples: tail rule %v, want %v", c.p, c.n, got, c.tailsOK)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

func TestMinSamplesFor(t *testing.T) {
	for p, want := range map[float64]int{50: 20, 90: 100, 99: 1000} {
		n := minSamplesFor(p)
		if n != want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", p, n, want)
		}
		if _, beyond := percentile(seq(n), p); beyond < tailSamples {
			t.Errorf("p%v of %d samples has only %d beyond", p, n, beyond)
		}
		if _, beyond := percentile(seq(n-1), p); beyond >= tailSamples {
			t.Errorf("minSamplesFor(%v) = %d is not the smallest", p, n)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.7, 5.0, 4.4}, [3]float64{2.8, 3.75, 4.85}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{2, 6}, [3]float64{1, 4, 7}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
				break
			}
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestTypicalPass(t *testing.T) {
	// Three passes of two operations; one burst slows op 0 in pass 2.
	xs := []float64{10, 100, 50, 102, 11, 98}
	if got := typicalPass(xs, 2); got != 11+100 {
		t.Errorf("typicalPass = %v, want 11+100", got)
	}
}

func TestNsPer(t *testing.T) {
	if got := nsPer(2, 1_000_000); got != 2 {
		t.Errorf("2 ms over 1e6 accesses = %v ns, want 2", got)
	}
	if got := nsPer(3, 0); got != 0 {
		t.Errorf("no work = %v ns, want 0", got)
	}
}

func TestValidNameAndUnit(t *testing.T) {
	for s, want := range map[string]bool{
		"op_ms_p50": true, "cache.ns_per_access": true, "serve-openloop": true, "9lives": true,
		"": false, "_x": false, ".x": false, "a b": false, "a/b": false, "é": false,
		"a234567890123456789012345678901234567890123456789012345678901234":  true,
		"a2345678901234567890123456789012345678901234567890123456789012345": false,
	} {
		if got := validName(s); got != want {
			t.Errorf("validName(%q) = %v, want %v", s, got, want)
		}
	}
	for s, want := range map[string]bool{
		"ms": true, "1/s": true, "%": true, "count": true, "": false, "m s": false, "12345678901234567": false,
	} {
		if got := validUnit(s); got != want {
			t.Errorf("validUnit(%q) = %v, want %v", s, got, want)
		}
	}
	var m metricSet
	m.add("a.b", "ms", 1)
	for _, bad := range [][2]string{{"a.b", "ms"}, {"x y", "ms"}, {"ok", "m s"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metricSet.add(%q, %q) did not refuse", bad[0], bad[1])
				}
			}()
			m.add(bad[0], bad[1], 1)
		}()
	}
}

// spec is BENCHMARK.json as the benchmark's contract defines it.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

func TestBenchmarkJSONIsWellFormed(t *testing.T) {
	s := readSpec(t)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !validName(n) || seen[kind+n] {
			t.Errorf("%s name %q is illegal or repeated", kind, n)
		}
		seen[kind+n] = true
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		name("workload", w.Name)
		if _, ok := findWorkload(benchSizes, w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		name("metric", m.Name)
		if !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range s.PerLayer {
		name("metric", m.Name)
		if !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", s.RunSeconds)
	}
}
