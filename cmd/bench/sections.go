package main

import (
	"fmt"
	"time"

	"sgxbench/internal/core"
	"sgxbench/internal/join"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/query"
	"sgxbench/internal/rel"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
)

// rhoRatioScale is the largest platform scale-down factor at which the
// RHO fast-vs-reference ratio assertion is meaningful: the scale-4
// inputs (25 MB join 100 MB) keep the partition passes long enough that
// per-run fixed costs (cold simulated caches, state setup) do not
// dominate the ratio. At smaller data the ratio flakes; the target check
// below skips itself rather than asserting noise.
const rhoRatioScale = 4

// Serving scenario shape: a pool saturated by many closed-loop clients
// issuing small queries — the regime where the paper's two concurrency
// collapses (SDK mutex contention, Section 4.4; serialized EDMM commits,
// Fig 12) dominate. Unlike the host wall-clock ratio targets above,
// the serve collapse ratios are ratios of *simulated* throughput:
// deterministic, noise-free, and therefore asserted as a hard gate in
// quick mode too (the rhoRatioScale idiom applied to a guard that is a
// workload property — the client count — rather than host noise).
const (
	serveClients    = 32
	serveWorkers    = 16
	serveReqsPerCli = 8
	// serveCollapseClients is the minimum client count at which the
	// collapse ratios are asserted: below that the dispatch queue and
	// the EDMM commit lock are not saturated and the gaps are not a
	// property of the contention model.
	serveCollapseClients = 8
	// serveSyncCollapseMin is the asserted minimum throughput ratio of
	// the lock-free dispatch queue over the SGX SDK mutex (paper
	// Section 4.4 / Fig 11 regime; the scenario measures ~8x).
	serveSyncCollapseMin = 4.0
	// serveEDMMCollapseMin is the asserted minimum throughput ratio of
	// the pre-sized enclave over the dynamically-sized (EDMM) one.
	// Fig 12 reports ~95 % loss (~20x); the scenario — every request
	// recommitting its full working set against the enclave-global
	// page-table lock — collapses far harder, so 20x is the floor.
	serveEDMMCollapseMin = 20.0
)

// The Fig 3 hash-vs-sort contrast as a hard gate: the sort-merge query
// path (q5 — sequential run passes, streaming merges, cursor stores the
// SSB mitigation cannot serialize) must show a strictly smaller
// simulated enclave slowdown (SGX DiE cycles / Plain CPU cycles) than
// the radix-hash query path (q2 — data-dependent scatters and probes).
// Both slowdowns are ratios of deterministic simulated numbers from the
// sweep, so the gate is asserted in quick mode too and any regression
// of the timing model that inverts the paper's headline contrast fails
// the run.
const (
	hashGateWorkload = query.Q2Name
	sortGateWorkload = query.Q5Name
)

// The EPC oversubscription degradation gate: at 2x and 4x
// oversubscription (EPC capacity = working set / ratio) the
// spill-partitioned operators — GRACE join and the spill group-by, which
// stage partition runs in untrusted memory through sequential streaming
// writes — must stay under spillDegradeMax slowdown against their own
// fully-resident runs, while the naive in-EPC operators (PHT's shared
// hash table, the single-table direct group-by) collapse past
// naiveCollapseMin under demand paging. All four curves are ratios of
// deterministic simulated cycles, so the gate is hard in quick mode too.
const (
	spillDegradeMax  = 3.0
	naiveCollapseMin = 10.0
)

// spillRatios is the oversubscription axis (0: fully resident baseline).
var spillRatios = []int64{0, 2, 4}

// tieTol is the planner gate's tolerance: measured near-ties carry no
// signal.
const tieTol = 0.05

// Fault-injected serving: the resilience analogue of the spill gate.
// Three fault plans — fault-free, AEX interrupt storms, and the
// crash-storm (storms + enclave crash-loop + transient aborts) — are
// each served twice: once behind queue-depth admission control and once
// with the naive unbounded queue. Both variants carry identical
// client-side deadlines and capped-backoff retries; only the admission
// limit differs. Every scenario's timing constants scale off the
// calibrated mean service time, so quick and full runs exercise the
// same regime and all twelve numbers stay deterministic and
// golden-pinned.
//
// The hard gate (fault_degradation_ok): under the crash-storm plan,
// admission-controlled goodput must keep >= faultGoodputMin of its own
// fault-free goodput, while the naive variant's p99 must blow past
// naiveP99CollapseMin times its fault-free p99 AND its goodput must
// fall below half of the admission-controlled variant's — the serving
// analogue of the spill-vs-naive degradation curve: mitigations bound
// the damage, the naive shape melts down.
const (
	faultClients        = 64
	faultWorkers        = 8
	faultReqsPerCli     = 4
	faultGoodputMin     = 0.5
	naiveP99CollapseMin = 10.0
)

// Production-scale serving: the shard_scaling_ok gate. An open-loop
// Poisson client population — far past what the closed-loop scenarios
// above can express — drives a 64-worker DiE pool through three
// dispatch shapes: the single global lock-free queue, per-worker shards
// with deterministic work stealing, and shards plus request batching
// (one enclave transition pair amortized over up to scaleBatch queued
// requests). The per-client mean gap is scaleGapServiceMult times the
// calibrated mean service time, so at >= 1024 clients the offered load
// deep-saturates even the batched pool and measured throughput is each
// shape's capacity, not the arrival rate. All nine numbers are
// deterministic and golden-pinned; the gate asserts that at 1024 and
// 2048 clients sharded+batched dispatch holds >= scaleTputRatioMin the
// global queue's throughput with p99 at most 1/scaleP99RatioMin of it —
// the transition-amortization headroom the cost model predicts
// (~2.4x: 2 x 8000-cycle transitions per attempt vs ~1000 amortized).
const (
	scaleWorkers    = 64
	scaleReqsPerCli = 16
	scaleBatch      = 16
	// scaleGapServiceMult is the per-client Poisson mean inter-arrival
	// gap in multiples of the calibrated mean service time: at c clients
	// the offered load is c/scaleGapServiceMult worker-equivalents.
	scaleGapServiceMult = 10
	scaleTputRatioMin   = 2.0
	scaleP99RatioMin    = 2.0
)

// scaleClients is the open-loop population axis; the gate asserts at
// the saturated points (>= 1024), the 256-client point documents the
// saturation edge of the global queue.
var scaleClients = []int{256, 1024, 2048}
var scaleGateClients = []int{1024, 2048}

// sweep runs the fixed suite across all four settings on the fast path.
// Every entry is deterministic and feeds the golden gate: the PHT
// shared-table build preclaims its insert slots in input order, so even
// multi-threaded shared-table workloads (join.PHT, q3) repeat
// bit-identically.
func (b *bench) sweep() {
	z, thr := b.z, *threads
	fmt.Printf("== sweep (batched fast path, median of %d) ==\n", z.reps)
	for _, s := range settings() {
		wls := append([]workload{
			{"scan.bv", z.reps, func(bool) runner { return prepScan(false, s, z.scanBytes, false, thr) }},
			{"scan.rowid", z.reps, func(bool) runner { return prepScan(false, s, z.scanBytes, true, thr) }},
			{"scan.gather", z.reps, func(bool) runner { return prepGather(false, s, z.scanBytes, thr, z.gatherIDs) }},
			{"micro.gather", z.reps, func(bool) runner { return prepMicroGather(false, s, z.gatherArr, z.gatherOps) }},
			{"join.RHO", z.joinReps, func(bool) runner { return prepJoin(false, s, join.NewRHO(), z.rhoScale*8, thr) }},
			{"join.PHT", z.joinReps, func(bool) runner { return prepJoin(false, s, join.NewPHT(), z.rhoScale*8, thr) }},
			{"join.MWAY", z.joinReps, func(bool) runner { return prepJoin(false, s, join.NewMWAY(), z.rhoScale*8, thr) }},
			{"join.CrkJoin", z.joinReps, func(bool) runner { return prepJoin(false, s, join.NewCrk(), z.rhoScale*8, thr) }},
		}, b.pipelines(s, thr)...)
		for _, w := range wls {
			host, cycs, chks, stats := measure(w.prep(false), w.n)
			// Check values (matches / checksums) must be deterministic
			// across repetitions; sim_cycles of workloads that allocate
			// fresh simulated state per repetition are not and are
			// reported from the first repetition.
			for k, c := range chks {
				if c != chks[0] {
					fmt.Printf("  CHECK DIVERGENCE: %s/%s rep %d check=%d vs %d\n", w.name, s, k, c, chks[0])
					b.rep.Equivalent = false
				}
			}
			b.record(w.name, s, host, w.n, cycs[0], chks[0], stats[0])
			fmt.Printf("  %-18s %-11s host=%-12v simMcyc=%d\n", w.name, s, host.Round(time.Millisecond), cycs[0]/1e6)
		}
	}
}

// hashVsSort is the Fig 3 contrast gate over the sweep numbers: the
// simulated enclave slowdown (DiE / plain cycles) of the sort-merge
// query must be strictly below the radix-hash query's. Deterministic,
// hence a hard gate at every size.
func (b *bench) hashVsSort() {
	sim := func(wl string, s core.Setting) uint64 {
		for _, w := range b.rep.Sweep {
			if w.Workload == wl && w.Setting == s.String() {
				return w.SimCycles
			}
		}
		return 0
	}
	slowdown := func(wl string) float64 {
		die, plain := sim(wl, core.SGXDiE), sim(wl, core.PlainCPU)
		if die == 0 || plain == 0 {
			return 0
		}
		return float64(die) / float64(plain)
	}
	hashSlow, sortSlow := slowdown(hashGateWorkload), slowdown(sortGateWorkload)
	fmt.Println("== hash vs sort ==")
	b.expect(&b.rep.HashSortOK, sortSlow > 0 && hashSlow > 0 && sortSlow < hashSlow,
		fmt.Sprintf("hash-vs-sort gate (simulated DiE/plain slowdown): %s %.3fx vs %s %.3fx (want sort < hash)",
			sortGateWorkload, sortSlow, hashGateWorkload, hashSlow))
}

// spill is the EPC oversubscription degradation sweep (SGX DiE). Every
// (operator, ratio) point runs once on each engine path: the fast run
// feeds the sweep and the golden gate, the reference run must reproduce
// it bit for bit — including the demand-paging fault, eviction and
// paging-cycle counters — and oversubscribed points must actually
// fault. The degradation gate then compares each operator's
// oversubscribed points against its own resident baseline.
func (b *bench) spill() {
	fmt.Println("== spill (EPC oversubscription, SGX DiE) ==")
	z, thr, die := b.z, *threads, core.SGXDiE
	nR := rel.RowsForMB(100) / z.spillJoinScale
	nS := rel.RowsForMB(400) / z.spillJoinScale
	wls := []struct {
		name  string
		spill bool // spill-aware operator (gated < spillDegradeMax)
		prep  func(ref bool, ratio int64) runner
	}{
		{"spill.join.grace", true, func(ref bool, ratio int64) runner {
			return prepSpillJoin(ref, die, join.NewGrace(), nR, nS, ratio, thr)
		}},
		{"spill.join.pht", false, func(ref bool, ratio int64) runner {
			return prepSpillJoin(ref, die, join.NewPHT(), nR, nS, ratio, thr)
		}},
		{"spill.agg", true, func(ref bool, ratio int64) runner {
			return prepSpillAgg(ref, die, true, z.spillAggN, z.spillAggGroups, ratio, thr)
		}},
		{"spill.agg.direct", false, func(ref bool, ratio int64) runner {
			return prepSpillAgg(ref, die, false, z.spillAggN, z.spillAggGroups, ratio, thr)
		}},
	}
	sim := map[string]uint64{}
	for _, w := range wls {
		for _, ratio := range spillRatios {
			name := w.name + "@" + spillRatioTag(ratio)
			_, rCycs, rChks, rStats := measure(w.prep(true, ratio), 1)
			fHost, fCycs, fChks, fStats := measure(w.prep(false, ratio), 1)
			if rCycs[0] != fCycs[0] || rChks[0] != fChks[0] || rStats[0] != fStats[0] {
				fmt.Printf("  SPILL EQUIVALENCE FAILURE: %s differs between engine paths\n", name)
				b.rep.Equivalent = false
			}
			if ratio > 0 && fStats[0].EPCFaults == 0 {
				fmt.Printf("  SPILL GATE FAILURE: %s never demand-paged\n", name)
				b.rep.SpillOK = false
			}
			if ratio == 0 && fStats[0].EPCFaults != 0 {
				fmt.Printf("  SPILL GATE FAILURE: resident %s faulted %d times\n", name, fStats[0].EPCFaults)
				b.rep.SpillOK = false
			}
			sim[name] = fCycs[0]
			b.record(name, die, fHost, 1, fCycs[0], fChks[0], fStats[0])
			fmt.Printf("  %-24s host=%-12v simMcyc=%-8d faults=%d evictions=%d\n",
				name, fHost.Round(time.Millisecond), fCycs[0]/1e6, fStats[0].EPCFaults, fStats[0].EPCEvictions)
		}
	}
	for _, w := range wls {
		base := sim[w.name+"@resident"]
		for _, ratio := range spillRatios[1:] {
			slow := float64(sim[w.name+"@"+spillRatioTag(ratio)]) / float64(base)
			if w.spill {
				b.expect(&b.rep.SpillOK, slow < spillDegradeMax,
					fmt.Sprintf("spill gate: %s at %dx oversubscription %.2fx slowdown (want < %.1fx)",
						w.name, ratio, slow, spillDegradeMax))
			} else {
				b.expect(&b.rep.SpillOK, slow > naiveCollapseMin,
					fmt.Sprintf("spill gate: %s at %dx oversubscription %.2fx slowdown (want > %.1fx naive collapse)",
						w.name, ratio, slow, naiveCollapseMin))
			}
		}
	}
}

// planEnv prepares a fresh planner-suite environment and dataset for q
// under setting s, with an EPC capacity of the working set divided by
// epcRatio (0: unlimited).
func (b *bench) planEnv(s core.Setting, q plan.Query, epcRatio int64, ref bool) (*core.Env, *plan.Dataset) {
	var pages int64
	if epcRatio > 0 {
		wsBytes := int64(b.z.planFact)*(9+7*8) + int64(b.z.planDim)*8
		pages = (wsBytes/4096 + 1) / epcRatio
	}
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(32), Setting: s, EPCPages: pages, Reference: ref})
	return env, plan.GenSuiteDataset(env, q, b.z.planDim, b.z.planFact, 4242)
}

// planField measures every static alternative of q in a fresh
// identically-prepared environment and returns the results, their host
// times, the planner's choice for the same environment shape, and the
// field's best and worst measured cycles.
func (b *bench) planField(s core.Setting, q plan.Query, epcRatio int64) (map[string]*plan.Result, map[string]time.Duration, plan.Alternative, uint64, uint64) {
	measured := map[string]*plan.Result{}
	hosts := map[string]time.Duration{}
	var best, worst uint64
	for _, alt := range q.Alternatives() {
		env, ds := b.planEnv(s, q, epcRatio, false)
		opt := plan.Options{Threads: *threads, Pred: q.Pred, Limit: q.Limit}
		start := time.Now()
		r := plan.Execute(env, ds, opt, q.Name, q.Tree(alt))
		measured[alt.String()], hosts[alt.String()] = r, time.Since(start)
		if best == 0 || r.WallCycles < best {
			best = r.WallCycles
		}
		worst = max(worst, r.WallCycles)
	}
	env, ds := b.planEnv(s, q, epcRatio, false)
	_, alt := q.Plan(env, ds, *threads)
	return measured, hosts, alt, best, worst
}

// planner is the cost-based strategy choice over the 20-query suite.
// Every suite query runs under every static strategy alternative, then
// the enclave-aware cost model picks per setting. The planner_ok gate
// is hard: the pick's measured simulated cycles must never exceed the
// worst static choice's (strictly below it whenever the field is spread
// out), and on the EPC oversubscription axis the pick must flip to the
// spill aggregation exactly where the measured costs cross (2-4x). All
// chosen runs are deterministic and feed the golden gate as
// "plan.<query>" entries.
func (b *bench) planner() {
	suite := plan.Suite()
	fmt.Printf("== planner (cost-based pick, %d-query suite, %d dim x %d fact) ==\n", len(suite), b.z.planDim, b.z.planFact)
	agree, decided := 0, 0
	for _, s := range settings() {
		for _, q := range suite {
			measured, hosts, alt, best, worst := b.planField(s, q, 0)
			chosen := measured[alt.String()]
			if chosen.WallCycles > worst ||
				(len(measured) > 1 && chosen.WallCycles == worst && float64(worst-best) > tieTol*float64(best)) {
				b.rep.PlannerOK = false
				fmt.Printf("  PLANNER GATE FAILURE: %s/%s chose %s (%d cycles; field best %d worst %d)\n",
					q.Name, s, alt, chosen.WallCycles, best, worst)
			}
			if float64(worst-best) > tieTol*float64(best) {
				decided++
				if float64(chosen.WallCycles) <= (1+tieTol)*float64(best) {
					agree++
				}
			}
			b.record("plan."+q.Name, s, hosts[alt.String()], 1, chosen.WallCycles, chosen.Check, chosen.Stats)
			if s == core.SGXDiE {
				fmt.Printf("  %-22s %-9s pick=%-14s simKcyc=%-8d field=[%d..%d]\n",
					q.Name, s, alt, chosen.WallCycles/1e3, best, worst)
			}
		}
	}
	b.note(fmt.Sprintf("planner gate: cost-based pick within %.0f%% of measured best on %d/%d decided (query,setting) blocks",
		tieTol*100, agree, decided))

	// The EPC-axis flip: under SGX DiE at 2x and 4x oversubscription
	// the measured field must favor the spill aggregation, and the
	// planner must follow it there.
	for _, name := range []string{"s03.j0.sel902.u.agg", "s09.j1.sel250.u.agg"} {
		q, _ := plan.SuiteByName(name)
		for _, ratio := range []int64{2, 4} {
			measured, hosts, alt, best, _ := b.planField(core.SGXDiE, q, ratio)
			chosen := measured[alt.String()]
			var bestAlt plan.Alternative
			for _, a := range q.Alternatives() {
				if measured[a.String()].WallCycles == best {
					bestAlt = a
					break
				}
			}
			why := ""
			switch {
			case bestAlt.Agg != plan.AggSpill:
				why = " (measured field did not cross to spill)"
			case alt.Agg != plan.AggSpill:
				why = " (pick did not follow the measured crossing)"
			case float64(chosen.WallCycles) > (1+tieTol)*float64(best):
				why = fmt.Sprintf(" (pick measures %d, best %d)", chosen.WallCycles, best)
			}
			b.expect(&b.rep.PlannerOK, why == "",
				fmt.Sprintf("planner flip: %s at %dx EPC oversubscription pick=%s measured-best=%s", name, ratio, alt, bestAlt)+why)
			b.record(fmt.Sprintf("plan.%s@epc%d", q.Name, ratio), core.SGXDiE, hosts[alt.String()], 1,
				chosen.WallCycles, chosen.Check, chosen.Stats)
		}
	}

	// One chain query's chosen plan re-runs on the per-op reference
	// path: the Project and INL nodes must be bit-identical across
	// engine paths like every other operator.
	q, _ := plan.SuiteByName("s19.j3.sel250.u.agg")
	env, ds := b.planEnv(core.SGXDiE, q, 0, false)
	tree, alt := q.Plan(env, ds, *threads)
	opt := plan.Options{Threads: *threads, Pred: q.Pred, Limit: q.Limit}
	fast := plan.Execute(env, ds, opt, q.Name, tree)
	refEnv, refDS := b.planEnv(core.SGXDiE, q, 0, true)
	ref := plan.Execute(refEnv, refDS, opt, q.Name, q.Tree(alt))
	if fast.Check != ref.Check || fast.WallCycles != ref.WallCycles || fast.Stats != ref.Stats {
		fmt.Printf("  PLANNER EQUIVALENCE FAILURE: %s fast/ref diverge (check %#x/%#x wall %d/%d)\n",
			q.Name, fast.Check, ref.Check, fast.WallCycles, ref.WallCycles)
		b.rep.Equivalent = false
	}
}

// serveConfigs is the scenario matrix: every synchronization model
// crossed with both memory-provisioning modes, at a fixed saturating
// client/worker shape. Identical in quick and full runs, so the golden
// gate pins all of them and the collapse ratios are comparable.
func serveConfigs() []serve.Config {
	var cfgs []serve.Config
	for _, sync := range []serve.SyncKind{serve.SyncMutex, serve.SyncSpin, serve.SyncLockFree} {
		for _, mem := range []serve.MemMode{serve.MemPreSized, serve.MemDynamic} {
			cfgs = append(cfgs, serve.Config{
				Clients: serveClients, Workers: serveWorkers,
				RequestsPerClient: serveReqsPerCli,
				Sync:              sync, Mem: mem,
				JitterPct: 10, Seed: 7,
			})
		}
	}
	return cfgs
}

// serve runs the multi-query serving scenarios over the worker pool.
// Each setting calibrates the five pipelines once (small serving-sized
// queries) and replays the sync x memory scenario matrix on the virtual
// clock. All simulated numbers are deterministic and golden-gated;
// under SGX DiE the run additionally recalibrates on the per-op
// reference path and fails on any cross-path divergence, then asserts
// the paper's two collapse ratios over the *simulated* throughputs.
func (b *bench) serve() {
	fmt.Printf("== serve (deterministic serving scenarios, %d clients / %d workers) ==\n", serveClients, serveWorkers)
	serveDiE := map[string]*serve.Result{}
	for _, s := range settings() {
		opt := serve.CalibrateOptions{Setting: s}
		w := calibrate(opt)
		for _, cfg := range serveConfigs() {
			res := b.serveRun(w, cfg, cfg.Name())
			if s == core.SGXDiE {
				serveDiE[cfg.Name()] = res
			}
			fmt.Printf("  %-18s %-11s qps=%-10.0f p50=%-9d p99=%-9d queueWait=%-11d commitWait=%d\n",
				cfg.Name(), s, res.ThroughputQPS, res.P50, res.P99,
				res.Breakdown.QueueWaitCycles, res.Breakdown.CommitWaitCycles)
		}
		if s == core.SGXDiE {
			// Cross-path equivalence: reference-calibrated scenarios must
			// reproduce every simulated number bit for bit.
			b.dieW, b.dieRefW = w, b.calibrateRef("SERVE", opt, w)
			for _, cfg := range serveConfigs() {
				b.checkRef("SERVE", cfg.Name(), b.dieRefW, cfg, serveDiE[cfg.Name()])
			}
		}
	}
	// The paper's two concurrency collapses, asserted over simulated
	// throughput under SGX DiE (deterministic: a hard gate, guarded only
	// by the scenario actually saturating the contended resources).
	if serveClients < serveCollapseClients {
		b.note(fmt.Sprintf("serve collapse ratios not asserted: %d clients < %d (queue/commit lock unsaturated)", serveClients, serveCollapseClients))
		return
	}
	tput := func(name string) float64 { return serveDiE[name].ThroughputQPS }
	syncRatio := tput("serve.lockfree.pre") / tput("serve.mutex.pre")
	edmmRatio := tput("serve.lockfree.pre") / tput("serve.lockfree.dyn")
	b.expect(&b.rep.ServeOK, syncRatio >= serveSyncCollapseMin,
		fmt.Sprintf("serve sync collapse (lock-free/SDK-mutex qps, DiE): %.2fx (want >= %.1fx)", syncRatio, serveSyncCollapseMin))
	b.expect(&b.rep.ServeOK, edmmRatio >= serveEDMMCollapseMin,
		fmt.Sprintf("serve EDMM collapse (pre-sized/EDMM qps, DiE): %.2fx (want >= %.1fx)", edmmRatio, serveEDMMCollapseMin))
}

// faultScenario is one (fault plan x admission) point of the sweep.
type faultScenario struct {
	name string
	cfg  serve.Config
}

// faultConfigs derives the fault sweep from the calibrated workload:
// every interval, deadline and backoff is a multiple of the mean
// calibrated service time S, so the scenario shape — storm windows that
// stretch service past the deadline, rebuild outages spanning several
// deadlines, backoff caps that let shed clients ride out an outage —
// is invariant under quick/full calibration sizes.
func faultConfigs(w *serve.Workload) []faultScenario {
	var sum uint64
	for _, c := range w.Classes {
		sum += c.ServiceCycles
	}
	s := sum / uint64(len(w.Classes))
	// A pool kept healthy by think time (offered load ~60% of capacity)
	// but heavily oversubscribed in clients, so that once service times
	// stretch the naive unbounded queue can amplify to several times the
	// worker count. The deadline sits between the fault-free p99 and a
	// storm-stretched service time: fault-free runs keep a small timeout
	// tail (deadline-aware clients under a saturated tail) while storm
	// windows push whole queue generations past it.
	base := serve.Config{
		Clients: faultClients, Workers: faultWorkers,
		RequestsPerClient: faultReqsPerCli,
		Sync:              serve.SyncLockFree, Mem: serve.MemPreSized,
		ThinkCycles: 12 * s, JitterPct: 10, Seed: 7,
		DeadlineCycles: 7 * s,
		MaxRetries:     7,
		BackoffBase:    s,
		BackoffCap:     16 * s,
	}
	fc := sgx.DefaultFaultCosts()
	// Enclave rebuild outages scale with the calibrated service time so
	// the scenario keeps its shape across platform scales: ~3.5s of
	// serialized rebuild per crash against a 60s per-worker crash
	// interval keeps the kernel enclave-management lock under saturation
	// (the admission variant must be able to ride the outages out).
	fc.Teardown = s / 2
	fc.RebuildBase = 3 * s
	storm := &serve.FaultPlan{
		Seed:          11,
		StormInterval: 20 * s,
		StormLen:      9 * s,
		// Each AEX stalls ~5x its gap: service stretches ~6x inside a
		// storm window, pushing queue waits past the deadline.
		StormAEXGap: fc.AEX / 5,
		Costs:       fc,
	}
	crash := &serve.FaultPlan{}
	*crash = *storm
	crash.CrashInterval = 60 * s
	crash.FailPct = 2
	crash.RebuildPages = 64
	var out []faultScenario
	for _, p := range []struct {
		tag  string
		plan *serve.FaultPlan
	}{{"none", nil}, {"storm", storm}, {"crash", crash}} {
		for _, admit := range []bool{true, false} {
			cfg := base
			cfg.Fault = p.plan
			mode := "naive"
			if admit {
				cfg.AdmitDepth = 12
				mode = "admit"
			}
			out = append(out, faultScenario{
				name: fmt.Sprintf("fault.%s.%s", p.tag, mode),
				cfg:  cfg,
			})
		}
	}
	return out
}

// fault is fault-injected serving under SGX DiE. Every scenario is
// deterministic and golden-pinned; the reference-calibrated workload
// must reproduce each one bit for bit, and the crash-storm pair anchors
// the graceful-degradation gate.
func (b *bench) fault() {
	fmt.Printf("== fault (fault-injected serving, SGX DiE, %d clients / %d workers) ==\n", faultClients, faultWorkers)
	res := map[string]*serve.Result{}
	for _, sc := range faultConfigs(b.dieW) {
		r := b.serveRun(b.dieW, sc.cfg, sc.name)
		res[sc.name] = r
		b.checkRef("FAULT", sc.name, b.dieRefW, sc.cfg, r)
		fmt.Printf("  %-18s goodput=%-9.0f p99=%-11d ok=%-4d fail=%-3d timeout=%-4d retry=%-4d shed=%-4d crash=%-3d aex=%d\n",
			sc.name, r.GoodputQPS, r.P99, r.Succeeded, r.Failed,
			r.Breakdown.Timeouts, r.Breakdown.Retries, r.Breakdown.Shed,
			r.Breakdown.Crashes, r.Breakdown.AEXEvents)
	}
	good := func(name string) float64 { return res[name].GoodputQPS }
	degr := good("fault.crash.admit") / good("fault.none.admit")
	b.expect(&b.rep.FaultOK, degr >= faultGoodputMin,
		fmt.Sprintf("fault degradation (admit crash-storm/fault-free goodput, DiE): %.2fx (want >= %.2fx)", degr, faultGoodputMin))
	blow := float64(res["fault.crash.naive"].P99) / float64(res["fault.none.naive"].P99)
	b.expect(&b.rep.FaultOK, blow >= naiveP99CollapseMin,
		fmt.Sprintf("fault naive p99 blowup (crash-storm/fault-free, DiE): %.1fx (want >= %.1fx)", blow, naiveP99CollapseMin))
	coll := good("fault.crash.naive") / good("fault.crash.admit")
	b.expect(&b.rep.FaultOK, coll < faultGoodputMin,
		fmt.Sprintf("fault naive goodput collapse (naive/admit under crash-storm, DiE): %.2fx (want < %.2fx)", coll, faultGoodputMin))
}

// scale is open-loop sharded/batched serving under SGX DiE. A dedicated
// calibration (three tiny pipelines: the scan-only q1, the sort-order
// q4, the join-heavy q3, mixed 6/3/1) keeps the mean service time small
// enough that per-attempt enclave transitions dominate the unbatched
// shapes — the regime batching targets. The reference-calibrated
// workload must reproduce every scenario bit for bit, as in the serve
// and fault sections.
func (b *bench) scale() {
	fmt.Printf("== scale (open-loop sharded/batched serving, SGX DiE, %d workers) ==\n", scaleWorkers)
	opt := serve.CalibrateOptions{
		Setting: core.SGXDiE, NDim: 64, NFact: 256, MaxRows: 256,
		Pipelines: []string{query.Q1Name, query.Q4Name, query.Q3Name},
	}
	w := calibrate(opt)
	rw := b.calibrateRef("SCALE", opt, w)
	weights := []int{6, 3, 1}
	var wsum, wtot uint64
	for i, c := range w.Classes {
		wsum += uint64(weights[i]) * c.ServiceCycles
		wtot += uint64(weights[i])
	}
	gap := scaleGapServiceMult * (wsum / wtot)
	variants := []struct {
		tag      string
		dispatch serve.DispatchKind
		batch    int
	}{
		{"global", serve.DispatchGlobal, 0},
		{"shard", serve.DispatchSharded, 0},
		{"shard.batch", serve.DispatchSharded, scaleBatch},
	}
	res := map[string]*serve.Result{}
	for _, nc := range scaleClients {
		for _, v := range variants {
			cfg := serve.Config{
				Clients: nc, Workers: scaleWorkers,
				RequestsPerClient: scaleReqsPerCli,
				Sync:              serve.SyncLockFree, Mem: serve.MemPreSized,
				Weights: weights, JitterPct: 10, Seed: 7,
				Dispatch: v.dispatch, Batch: v.batch,
				Arrival: &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: gap},
			}
			name := fmt.Sprintf("scale.%s.c%d", v.tag, nc)
			r := b.serveRun(w, cfg, name)
			res[name] = r
			b.checkRef("SCALE", name, rw, cfg, r)
			fmt.Printf("  %-22s qps=%-10.0f p50=%-9d p99=%-10d steals=%-6d batches=%-6d transitions=%d\n",
				name, r.ThroughputQPS, r.P50, r.P99,
				r.DispatchStats.Steals, r.DispatchStats.Batches, r.Breakdown.Transitions)
		}
	}
	for _, nc := range scaleGateClients {
		g := res[fmt.Sprintf("scale.global.c%d", nc)]
		sb := res[fmt.Sprintf("scale.shard.batch.c%d", nc)]
		ratio := sb.ThroughputQPS / g.ThroughputQPS
		b.expect(&b.rep.ShardOK, ratio >= scaleTputRatioMin,
			fmt.Sprintf("shard scaling (shard.batch/global qps, %d open-loop clients, DiE): %.2fx (want >= %.1fx)",
				nc, ratio, scaleTputRatioMin))
		p99r := float64(g.P99) / float64(sb.P99)
		b.expect(&b.rep.ShardOK, p99r >= scaleP99RatioMin,
			fmt.Sprintf("shard p99 bound (global/shard.batch p99, %d clients, DiE): %.2fx (want >= %.1fx)",
				nc, p99r, scaleP99RatioMin))
	}
}

// speedup compares the fast path against the per-op reference engine
// under SGX DiE; repetition k of both modes must agree bit for bit.
func (b *bench) speedup() {
	fmt.Println("== speedup (fast vs per-op reference, SGX DiE) ==")
	z, die := b.z, core.SGXDiE
	wls := append([]workload{
		{"seq.stream", z.reps, func(ref bool) runner { return prepSeq(ref, die, z.seqBytes) }},
		{"scan.bv", z.reps, func(ref bool) runner { return prepScan(ref, die, z.scanBytes, false, 1) }},
		{"scan.rowid", z.reps, func(ref bool) runner { return prepScan(ref, die, z.scanBytes, true, 1) }},
		{"scan.gather", z.reps, func(ref bool) runner { return prepGather(ref, die, z.scanBytes, 1, z.gatherIDs) }},
		{"micro.gather", z.reps, func(ref bool) runner { return prepMicroGather(ref, die, z.gatherArr, z.gatherOps) }},
		{"join.RHO", z.joinReps, func(ref bool) runner { return prepJoin(ref, die, join.NewRHO(), z.rhoScale, 1) }},
		{"join.PHT", z.joinReps, func(ref bool) runner { return prepJoin(ref, die, join.NewPHT(), z.rhoScale*4, 1) }},
		{"join.MWAY", z.joinReps, func(ref bool) runner { return prepJoin(ref, die, join.NewMWAY(), z.rhoScale*4, 1) }},
		{"join.CrkJoin", z.joinReps, func(ref bool) runner { return prepJoin(ref, die, join.NewCrk(), z.rhoScale*4, 1) }},
	}, b.pipelines(die, 1)...)
	for _, w := range wls {
		rHost, rCycs, rChks, rStats := measure(w.prep(true), w.n)
		fHost, fCycs, fChks, fStats := measure(w.prep(false), w.n)
		eq := true
		for k := 0; k < w.n; k++ {
			// Repetition k sees identical simulated state in both modes,
			// so cycles, checks and stats must match pairwise, bit for bit.
			if rCycs[k] != fCycs[k] || rChks[k] != fChks[k] || rStats[k] != fStats[k] {
				eq = false
			}
		}
		if !eq {
			b.rep.Equivalent = false
		}
		ratio := float64(rHost) / float64(fHost)
		b.rep.Speedup = append(b.rep.Speedup,
			wlResult{w.name, die.String(), "per-op", rHost.Nanoseconds(), w.n, rCycs[0], rChks[0], true, rStats[0]},
			wlResult{w.name, die.String(), "fast", fHost.Nanoseconds(), w.n, fCycs[0], fChks[0], true, fStats[0]})
		b.rep.Speedups[w.name] = ratio
		fmt.Printf("  %-18s per-op=%-12v fast=%-12v speedup=%.2fx equivalent=%v\n",
			w.name, rHost.Round(time.Millisecond), fHost.Round(time.Millisecond), ratio, eq)
	}
}

// targets checks the host wall-clock speedup targets (informative:
// targets_met is not a hard gate) outside -quick.
func (b *bench) targets() {
	target := func(name string, want float64) {
		got := b.rep.Speedups[name]
		b.expect(&b.rep.TargetsMet, got >= want, fmt.Sprintf("%s: %.2fx (target >= %.1fx)", name, got, want))
	}
	fmt.Println("== targets ==")
	if b.rep.Quick {
		fmt.Println("  (quick mode: sizes too small for representative ratios; targets not checked)")
	} else {
		target("seq.stream", 5.0)
		// The reference path shares the restructured kernels (NT result
		// stores, vectorized emission), so the rowid fast-vs-reference
		// gap is structurally narrower than the random-access ones.
		target("scan.rowid", 2.0)
		target("scan.gather", 2.0)
		target("micro.gather", 2.0)
		if b.z.rhoScale <= rhoRatioScale {
			target("join.RHO", 2.0)
		} else {
			b.note(fmt.Sprintf("join.RHO: ratio not asserted at scale %d (needs scale <= %d data; smaller inputs flake on fixed costs)", b.z.rhoScale, rhoRatioScale))
		}
		target("join.PHT", 2.0)
	}
	if !b.rep.Equivalent {
		fmt.Println("  EQUIVALENCE FAILURE: fast path changed simulated results")
	}
}

// percentiles closes the obs_percentiles_ok gate over every serving run.
func (b *bench) percentiles() {
	b.rep.ObsOK = len(b.pctl) == 0
	if !b.rep.ObsOK {
		fmt.Println("== histogram percentile violations ==")
		for _, v := range b.pctl {
			fmt.Println("  OBS: " + v)
		}
	}
}
