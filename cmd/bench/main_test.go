package main

import (
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sgxbench/internal/engine"
)

// testReport returns a report with two deterministic sweep entries and
// every hard gate holding.
func testReport() *report {
	rep := &report{Sweep: []wlResult{
		{Workload: "join.RHO", Setting: "SGX DiE", Mode: "fast", SimCycles: 1000, Check: 7, Det: true,
			Stats: engine.Stats{Cycles: 1000, Loads: 40, EPCFaults: 3}},
		{Workload: "q1.filter-agg", Setting: "Plain CPU", Mode: "fast", SimCycles: 2000, Check: 9, Det: true,
			Stats: engine.Stats{Cycles: 2000, Stores: 12}},
	}, TargetsMet: true}
	for _, g := range rep.gates() {
		*g.ok = true
	}
	return rep
}

// writeTestGolden writes g to a temporary golden file and returns its
// path.
func writeTestGolden(t *testing.T, g goldenFile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := writeJSON(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshot is the golden file -update-golden would write for rep.
func snapshot(rep *report, threads int) goldenFile {
	return goldenFile{Schema: goldenSchema, Quick: true, Threads: threads, Entries: goldenEntries(rep)}
}

// wantOneDrift fails unless drift is exactly one message containing all
// of the given substrings.
func wantOneDrift(t *testing.T, drift []string, subs ...string) {
	t.Helper()
	if len(drift) != 1 {
		t.Fatalf("got %d drift lines, want 1: %q", len(drift), drift)
	}
	for _, s := range subs {
		if !strings.Contains(drift[0], s) {
			t.Errorf("drift %q does not mention %q", drift[0], s)
		}
	}
}

func TestCompareGoldenNoDrift(t *testing.T) {
	rep := testReport()
	path := writeTestGolden(t, snapshot(rep, 4))
	if drift := compareGolden(path, rep, 4); len(drift) != 0 {
		t.Fatalf("identical entries drifted: %q", drift)
	}
}

func TestCompareGoldenNamesDriftedStatsField(t *testing.T) {
	rep := testReport()
	path := writeTestGolden(t, snapshot(rep, 4))
	rep.Sweep[0].Stats.EPCFaults++
	wantOneDrift(t, compareGolden(path, rep, 4), "join.RHO/SGX DiE", "stats.EPCFaults 4, golden 3")
}

func TestCompareGoldenMissingAndNewEntries(t *testing.T) {
	rep := testReport()
	path := writeTestGolden(t, snapshot(rep, 4))

	missing := testReport()
	missing.Sweep = missing.Sweep[:1]
	wantOneDrift(t, compareGolden(path, missing, 4), "q1.filter-agg/Plain CPU", "missing from this run")

	added := testReport()
	added.Sweep = append(added.Sweep, wlResult{Workload: "scan.bv", Setting: "SGX DoE", Det: true})
	wantOneDrift(t, compareGolden(path, added, 4), "scan.bv/SGX DoE", "new deterministic workload")
}

func TestCompareGoldenSchemaAndThreadMismatch(t *testing.T) {
	rep := testReport()
	g := snapshot(rep, 4)
	g.Schema = "sgxbench/bench_golden/v0"
	wantOneDrift(t, compareGolden(writeTestGolden(t, g), rep, 4), `schema "sgxbench/bench_golden/v0"`)

	wantOneDrift(t, compareGolden(writeTestGolden(t, snapshot(rep, 4)), rep, 2), "-threads 4", "used 2")
}

// TestGateTable pins the verdict: any single hard gate failing fails the
// run, and it is named; targets_met alone never does.
func TestGateTable(t *testing.T) {
	if failed := testReport().failedGates(); len(failed) != 0 {
		t.Fatalf("all gates hold, yet failed: %q", failed)
	}
	for i, g := range testReport().gates() {
		rep := testReport()
		*rep.gates()[i].ok = false
		if failed := rep.failedGates(); !slices.Equal(failed, []string{g.name}) {
			t.Errorf("clearing %s: failed gates %q", g.name, failed)
		}
	}
	rep := testReport()
	rep.TargetsMet = false
	if failed := rep.failedGates(); len(failed) != 0 {
		t.Errorf("targets_met=false failed the run: %q", failed)
	}
}

// TestGateTableMatchesReport checks that the table lists every "_ok"
// report field exactly once, under that field's JSON key.
func TestGateTableMatchesReport(t *testing.T) {
	rep := &report{}
	byPtr := map[*bool]string{}
	for _, g := range rep.gates() {
		byPtr[g.ok] = g.name
	}
	v, ty := reflect.ValueOf(rep).Elem(), reflect.TypeOf(*rep)
	n := 0
	for i := 0; i < ty.NumField(); i++ {
		key := ty.Field(i).Tag.Get("json")
		if !strings.HasSuffix(key, "_ok") {
			continue
		}
		n++
		if name := byPtr[v.Field(i).Addr().Interface().(*bool)]; name != key {
			t.Errorf("report field %s (%s) is in the gate table as %q", ty.Field(i).Name, key, name)
		}
	}
	if n != len(byPtr) || n != 9 {
		t.Errorf("%d _ok report fields, %d gates; want 9 of each", n, len(byPtr))
	}
}
