package query

import (
	"fmt"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
)

// oversubscribedRun executes a spill pipeline under an EPC capacity
// limit (pages; 0 = unlimited) on either engine path.
func oversubscribedRun(t *testing.T, p Pipeline, setting core.Setting, ref bool, pages int64) *plan.Result {
	t.Helper()
	env := core.NewEnv(core.Options{
		Plat:      platform.XeonGold6326().Scaled(256),
		Setting:   setting,
		Reference: ref,
		EPCPages:  pages,
	})
	ds := plan.GenDataset(env, testDim, testFact, 1234)
	return p.Run(env, ds, plan.Options{Threads: pipelineThreads(p.Name), Pred: testPred})
}

// spillPipelineEPCHalf probes the q3s working set on an unlimited
// enclave and returns half of it in pages — a 2x oversubscription for
// the golden dataset.
func spillPipelineEPCHalf(t *testing.T) int64 {
	t.Helper()
	env := core.NewEnv(core.Options{
		Plat:    platform.XeonGold6326().Scaled(256),
		Setting: core.SGXDiE,
	})
	ds := plan.GenDataset(env, testDim, testFact, 1234)
	p, err := ByName(Q3SName)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(env, ds, plan.Options{Threads: pipelineThreads(p.Name), Pred: testPred})
	used := env.Space.Used(mem.Region{Node: 0, Kind: mem.EPC})
	pages := used / 4096 / 2
	if pages < 1 {
		t.Fatalf("probe found no EPC working set (used=%d bytes)", used)
	}
	return pages
}

// TestGoldenSpillPipelineOversubscribed enforces the fast-path
// invariant on the whole spill pipelines under 2x EPC oversubscription:
// check values, wall cycles and full statistics — including the fault,
// eviction and paging-cycle counters — must be bit-identical between
// the engine paths, and the paging counters must fire exactly when data
// lives in the capacity-limited EPC (SGX DiE).
func TestGoldenSpillPipelineOversubscribed(t *testing.T) {
	pages := spillPipelineEPCHalf(t)
	for _, name := range []string{Q2SName, Q3SName} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
			label := fmt.Sprintf("%s/%s/epc=%d", p.Name, setting, pages)
			ref := oversubscribedRun(t, p, setting, true, pages)
			fast := oversubscribedRun(t, p, setting, false, pages)
			if ref.Check != fast.Check {
				t.Errorf("%s: check ref=%#x fast=%#x", label, ref.Check, fast.Check)
			}
			if ref.WallCycles != fast.WallCycles {
				t.Errorf("%s: wall cycles ref=%d fast=%d", label, ref.WallCycles, fast.WallCycles)
			}
			if ref.Stats != fast.Stats {
				t.Errorf("%s: stats differ\nref:  %+v\nfast: %+v", label, ref.Stats, fast.Stats)
			}
			wantFaults := setting == core.SGXDiE
			if wantFaults && ref.Stats.EPCFaults == 0 {
				t.Errorf("%s: oversubscribed pipeline did not fault", label)
			}
			if !wantFaults && ref.Stats.EPCFaults != 0 {
				t.Errorf("%s: unexpected faults %d", label, ref.Stats.EPCFaults)
			}
		}
	}
}

// TestSpillPipelineOversubscribedDeterminism repeats an oversubscribed
// multi-threaded q3s run across identically prepared environments and
// demands bit-identical checks, wall cycles and stats — the paging
// machinery may not introduce nondeterminism into whole pipelines.
func TestSpillPipelineOversubscribedDeterminism(t *testing.T) {
	pages := spillPipelineEPCHalf(t)
	p, err := ByName(Q3SName)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *plan.Result {
		return oversubscribedRun(t, p, core.SGXDiE, false, pages)
	}
	a := run()
	for rep := 1; rep < 3; rep++ {
		b := run()
		if a.Check != b.Check || a.WallCycles != b.WallCycles || a.Stats != b.Stats {
			t.Fatalf("rep %d diverged: check %#x vs %#x, wall %d vs %d",
				rep, a.Check, b.Check, a.WallCycles, b.WallCycles)
		}
	}
}
