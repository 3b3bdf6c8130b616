package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/join"
	"sgxbench/internal/kernels"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/query"
	"sgxbench/internal/rel"
	"sgxbench/internal/scan"
)

// sizes are the input sizes and repetition counts of one run.
type sizes struct {
	seqBytes       int64
	scanBytes      int
	gatherIDs      int
	gatherOps      int
	gatherArr      int64
	rhoScale       int64
	qDim           int
	qFact          int
	qMaxRows       int
	q3Fact         int // unfiltered join-agg: keep the probe side bounded
	spillJoinScale int
	spillAggN      int
	spillAggGroups int
	planDim        int
	planFact       int
	reps           int
	joinReps       int
}

// pickSizes returns the full-suite sizes, or the CI smoke-run ones.
func pickSizes(quick bool) sizes {
	if quick {
		return sizes{
			seqBytes: 16 << 20, scanBytes: 4 << 20,
			gatherIDs: 1 << 17, gatherOps: 1 << 16, gatherArr: 16 << 20,
			rhoScale: 64,
			qDim:     1 << 10, qFact: 1 << 16, qMaxRows: 1 << 14, q3Fact: 1 << 15,
			spillJoinScale: 512, spillAggN: 1 << 17, spillAggGroups: 1 << 14,
			planDim: 512, planFact: 1 << 14,
			reps: 1, joinReps: 1,
		}
	}
	return sizes{
		seqBytes: 256 << 20, scanBytes: 64 << 20,
		gatherIDs: 4 << 20, gatherOps: 1 << 21, gatherArr: 256 << 20,
		rhoScale: rhoRatioScale, // 25 MB join 100 MB: near-full-size working set
		qDim:     1 << 16, qFact: 2 << 20, qMaxRows: 1 << 20, q3Fact: 1 << 20,
		spillJoinScale: 128, // 800 KB join 3.2 MB against a scaled-down EPC
		spillAggN:      1 << 19, spillAggGroups: 1 << 16,
		planDim: 1 << 12, planFact: 1 << 17,
		reps: 5, joinReps: 5,
	}
}

func settings() []core.Setting {
	return []core.Setting{core.PlainCPU, core.PlainCPUM, core.SGXDoE, core.SGXDiE}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// runner executes one timed repetition of a prepared workload and
// returns (host time, simulated cycles, check value, simulated stats).
type runner func() (time.Duration, uint64, uint64, engine.Stats)

// workload is one named benchmark: n repetitions of a runner prepared on
// the fast (ref false) or per-op reference (ref true) engine path.
type workload struct {
	name string
	n    int
	prep func(ref bool) runner
}

// pipelines returns the fixed query pipelines as workloads under setting
// s on thr threads, in query.All order.
func (b *bench) pipelines(s core.Setting, thr int) []workload {
	var wls []workload
	for _, p := range query.All() {
		fact, maxRows := b.z.qFact, b.z.qMaxRows
		switch p.Name {
		case query.Q3Name, query.Q5Name, query.Q3SName:
			fact, maxRows = b.z.q3Fact, 0
		}
		wls = append(wls, workload{p.Name, b.z.joinReps, func(ref bool) runner {
			return prepPipeline(ref, s, p, b.z.qDim, fact, maxRows, thr)
		}})
	}
	return wls
}

// --- workload preparation; each returns a runner over reusable state ---

func prepSeq(ref bool, setting core.Setting, bytes int64) runner {
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(32), Setting: setting, Reference: ref})
	buf := env.Space.Raw("seq", bytes, env.DataRegion())
	return func() (time.Duration, uint64, uint64, engine.Stats) {
		t := engine.NewThread(env.EngineConfig(), 0)
		start := time.Now()
		cyc := kernels.StreamRead(t, buf, 0, bytes)
		st := t.Stats()
		st.Cycles = cyc
		return time.Since(start), cyc, cyc, st
	}
}

func prepScan(ref bool, setting core.Setting, bytes int, rowIDs bool, thr int) runner {
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(32), Setting: setting, Reference: ref})
	col := env.Space.AllocU8("col", bytes, env.DataRegion())
	scan.GenColumn(col, 9)
	opt := scan.Options{Threads: thr, Pred: scan.Predicate{Lo: 16, Hi: 127}, RowIDs: rowIDs}
	if rowIDs {
		opt.IDs = env.Space.AllocU64("scan.ids", col.Len()+64, env.DataRegion())
	} else {
		opt.Bits = env.Space.AllocU64("scan.bits", col.Len()/64+2, env.DataRegion())
	}
	return func() (time.Duration, uint64, uint64, engine.Stats) {
		start := time.Now()
		res := scan.Run(env, col, opt)
		return time.Since(start), res.WallCycles, res.Matches, res.Stats
	}
}

// prepGather prepares the filter→gather plan: the row-id scan runs once
// (untimed), its ids are shuffled into an unclustered list, and each
// repetition re-gathers the payload column at those ids. maxIDs caps the
// gather volume so the suite stays within minutes (random accesses are
// the most expensive pattern to simulate).
func prepGather(ref bool, setting core.Setting, bytes, thr, maxIDs int) runner {
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(32), Setting: setting, Reference: ref})
	col := env.Space.AllocU8("col", bytes, env.DataRegion())
	scan.GenColumn(col, 9)
	sc := scan.Run(env, col, scan.Options{Threads: thr, Pred: scan.Predicate{Lo: 16, Hi: 127}, RowIDs: true})
	n := int(sc.Matches)
	scan.ShuffleIDs(sc.IDs, n, 21)
	n = min(n, maxIDs)
	gopt := scan.GatherOptions{Threads: thr, Out: env.Space.AllocU8("scan.gathered", n, env.DataRegion())}
	return func() (time.Duration, uint64, uint64, engine.Stats) {
		start := time.Now()
		res := scan.Gather(env, col, sc.IDs, n, gopt)
		return time.Since(start), res.WallCycles, res.Sum, res.Stats
	}
}

// prepMicroGather prepares the Fig 5 random-access micro-benchmark in its
// batched form (kernels.GatherAccess) over a DRAM-sized array.
func prepMicroGather(ref bool, setting core.Setting, arr int64, ops int) runner {
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(32), Setting: setting, Reference: ref})
	buf := env.Space.Raw("gather.arr", arr, env.DataRegion())
	return func() (time.Duration, uint64, uint64, engine.Stats) {
		t := engine.NewThread(env.EngineConfig(), 0)
		start := time.Now()
		cyc := kernels.GatherAccess(t, buf, ops, false, 5)
		st := t.Stats()
		st.Cycles = cyc
		return time.Since(start), cyc, cyc, st
	}
}

// prepJoin builds the join inputs once; every repetition re-runs the
// algorithm (fresh per-run state is allocated from the same simulated
// space, so repetition k sees the same addresses in both engine modes).
func prepJoin(ref bool, setting core.Setting, alg join.Algorithm, scale int64, thr int) runner {
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(scale), Setting: setting, Reference: ref})
	nR := rel.RowsForMB(100) / int(scale)
	nS := rel.RowsForMB(400) / int(scale)
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
	return runJoin(env, alg, build, probe, thr)
}

// prepSpillJoin prepares one join under an EPC capacity of the inputs'
// working set divided by ratio (0: unlimited — the resident baseline).
func prepSpillJoin(ref bool, setting core.Setting, alg join.Algorithm, nR, nS int, ratio int64, thr int) runner {
	var pages int64
	if ratio > 0 {
		pages = int64(nR+nS) * rel.TupleBytes / 4096 / ratio
	}
	env := core.NewEnv(core.Options{
		Plat: platform.XeonGold6326().Scaled(256), Setting: setting,
		Reference: ref, EPCPages: pages,
	})
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 99)
	return runJoin(env, alg, build, probe, thr)
}

func runJoin(env *core.Env, alg join.Algorithm, build, probe *rel.Relation, thr int) runner {
	return func() (time.Duration, uint64, uint64, engine.Stats) {
		start := time.Now()
		res, err := alg.Run(env, build, probe, join.Options{Threads: thr, Optimized: true})
		if err != nil {
			panic(err)
		}
		return time.Since(start), res.WallCycles, res.Matches, res.Stats
	}
}

// prepSpillAgg prepares the spill-partitioned (or naive direct) group-by
// over n fact tuples with the given group count, under an EPC capacity
// of the input working set divided by ratio (0: unlimited).
func prepSpillAgg(ref bool, setting core.Setting, spill bool, n, groups int, ratio int64, thr int) runner {
	var pages int64
	if ratio > 0 {
		pages = int64(n) * 8 / 4096 / ratio
	}
	env := core.NewEnv(core.Options{
		Plat: platform.XeonGold6326().Scaled(256), Setting: setting,
		Reference: ref, EPCPages: pages,
	})
	_, fact := rel.GenFKPair(env.Space, groups, n, env.DataRegion(), 99)
	ins := []agg.Input{{Tup: fact.Tup, N: n}}
	opt := agg.Options{Threads: thr, Sel: agg.ByKey, Groups: groups}
	return func() (time.Duration, uint64, uint64, engine.Stats) {
		start := time.Now()
		var res *agg.Result
		if spill {
			res = agg.SpillRun(env, ins, opt)
		} else {
			res = agg.DirectRun(env, ins, opt)
		}
		return time.Since(start), res.WallCycles, res.Check, res.Stats
	}
}

// prepPipeline prepares one end-to-end query pipeline: the star-schema
// dataset and all inter-stage scratch are allocated once; every
// repetition re-runs the whole plan (scan → [join →] aggregation) on a
// fresh thread group. maxRows caps the filtered rows fed downstream
// (0: no cap; the scratch is then sized for the full fact table).
func prepPipeline(ref bool, setting core.Setting, p query.Pipeline, nDim, nFact, maxRows, thr int) runner {
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(32), Setting: setting, Reference: ref})
	ds := plan.GenDataset(env, nDim, nFact, 4242)
	capRows := nFact
	if maxRows > 0 {
		capRows = min(capRows, maxRows)
	}
	// A cycle-attribution profiler rides along on every pipeline run:
	// the golden gate's bit-identical checks then prove the profiling
	// hooks perturb nothing.
	opt := plan.Options{
		Threads:  thr,
		Pred:     scan.Predicate{Lo: 16, Hi: 127},
		MaxRows:  maxRows,
		Scratch:  plan.NewScratch(env, ds, thr, capRows),
		Profiler: obs.NewProfiler("run"),
	}
	return func() (time.Duration, uint64, uint64, engine.Stats) {
		start := time.Now()
		res := p.Run(env, ds, opt)
		return time.Since(start), res.WallCycles, res.Check, res.Stats
	}
}

// measure runs r reps times and returns the median host time plus the
// per-repetition simulated cycles, checks and stats (index 0 is the
// value the sweep reports and the golden gate compares). The preceding
// workload's buffers (hundreds of MB) are collected up front so a GC
// cycle over the accumulated heap never lands inside a timed region.
func measure(r runner, reps int) (time.Duration, []uint64, []uint64, []engine.Stats) {
	runtime.GC()
	hosts := make([]time.Duration, reps)
	cycs := make([]uint64, reps)
	chks := make([]uint64, reps)
	stats := make([]engine.Stats, reps)
	for k := 0; k < reps; k++ {
		hosts[k], cycs[k], chks[k], stats[k] = r()
	}
	return median(hosts), cycs, chks, stats
}

// spillRatioTag names an EPC oversubscription ratio in workload
// identifiers (0: fully resident).
func spillRatioTag(ratio int64) string {
	if ratio == 0 {
		return "resident"
	}
	return fmt.Sprintf("%dx", ratio)
}
