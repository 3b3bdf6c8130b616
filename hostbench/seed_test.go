package main

import (
	"os"
	"slices"
	"sort"
	"testing"
)

// testSizes shrink every workload so a full pass takes milliseconds.
var testSizes = sizes{
	olapDim: 64, olapFact: 1024,
	joinScale: 1 << 14, aggRows: 1 << 12, aggGroups: 1 << 9,
	clients: 64, crashReqs: 4,
}

// referenceDigest sets w up, checks the warm-up pass against the
// reference engine and returns the simulated digest and failures.
func referenceDigest(t *testing.T, w workload, seed uint64) (uint64, int) {
	t.Helper()
	s := &session{w: w, seed: seed}
	if _, err := s.setup(nil); err != nil {
		t.Fatal(err)
	}
	ref, err := referenceSignatures(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.verify(ref); err != nil {
		t.Fatal(err)
	}
	return s.digest(), s.failed
}

func TestSeedDeterminesDigest(t *testing.T) {
	for _, w := range workloads(testSizes) {
		t.Run(w.name, func(t *testing.T) {
			a, fa := referenceDigest(t, w, 1)
			b, fb := referenceDigest(t, w, 1)
			c, fc := referenceDigest(t, w, 2)
			if fa+fb+fc != 0 {
				t.Errorf("%d operations differ from the reference engine", fa+fb+fc)
			}
			if a != b {
				t.Errorf("seed 1 gave digests %#x and %#x", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 both gave digest %#x", a)
			}
		})
	}
}

func metricNames(r *result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Both kinds of run emit exactly the metrics BENCHMARK.json declares,
// every operation checks out, and the traced run writes its trace and
// profile.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	s := readSpec(t)
	var e2e, layer []string
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range s.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, w := range workloads(testSizes) {
		t.Run(w.name, func(t *testing.T) {
			c := config{workload: w.name, seed: 3, seconds: 1, out: t.TempDir()}
			ref, err := referenceSignatures(w, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := timedRun(w, c, []float64{0.5}, ref)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < minSamplesFor(90) {
				t.Errorf("timed run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			if got := metricNames(r); !slices.Equal(got, e2e) {
				t.Errorf("timed run metrics %v, BENCHMARK.json end_to_end %v", got, e2e)
			}
			for n, m := range r.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", n, m.Value)
				}
			}
			c.trace = 1
			r, err = tracedRun(w, c, ref)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("traced run: attempted=%d failed=%d", r.Attempted, r.Failed)
			}
			if got := metricNames(r); !slices.Equal(got, layer) {
				t.Errorf("traced run metrics %v, BENCHMARK.json per_layer %v", got, layer)
			}
			for _, suffix := range []string{".trace.json", ".cpu.pb.gz"} {
				if fi, err := os.Stat(c.out + "/" + w.name + ".seed3" + suffix); err != nil || fi.Size() == 0 {
					t.Errorf("traced run output %s: %v", suffix, err)
				}
			}
		})
	}
}
