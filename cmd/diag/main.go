// Command diag runs one join, one end-to-end query pipeline, or one
// multi-query serving scenario under one execution setting and prints
// the simulated breakdown — a quick inspection tool for the timing
// model.
//
// Usage:
//
//	go run ./cmd/diag [-alg RHO] [-setting plain|plainm|doe|die] [-scale 128] [-threads 16] [-opt]
//	go run ./cmd/diag -query q2.filter-join-agg -setting die [-threads 4]
//	go run ./cmd/diag -serve -setting die [-sync mutex] [-mem dyn] [-clients 32] [-workers 16]
//	go run ./cmd/diag -serve -setting die -dispatch shard -batch 16 -arrival poisson -gap 100000
//	go run ./cmd/diag -epc -setting die [-ratio 2] [-scale 512] [-threads 4]
//	go run ./cmd/diag -fault -setting die [-admit 12] [-clients 64] [-workers 8]
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strings"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/join"
	"sgxbench/internal/obs"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/query"
	"sgxbench/internal/rel"
	"sgxbench/internal/scan"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
)

var (
	algName   = flag.String("alg", "RHO", "join algorithm: PHT, RHO, MWAY, INL or CrkJoin")
	queryName = flag.String("query", "", "run a query pipeline instead of a join: a fixed shape (q1.filter-agg ... q5.mergejoin-agg, q2s/q3s spill variants) or a planner suite query (s01.j0.sel004.u.agg ... s20.j3.sel902.z.agg)")
	setName   = flag.String("setting", "plain", "execution setting: plain, plainm, doe or die")
	scale     = flag.Int64("scale", 128, "platform scale-down factor (power of two)")
	threads   = flag.Int("threads", 16, "worker threads")
	optimize  = flag.Bool("opt", false, "enable the unroll+reorder optimized kernels")

	// Serving-scenario mode (-serve): the multi-query simulator.
	serveMode = flag.Bool("serve", false, "simulate a multi-query serving scenario instead of a single join/pipeline")
	clients   = flag.Int("clients", 32, "serve: closed-loop clients")
	workers   = flag.Int("workers", 16, "serve: enclave worker-pool size")
	requests  = flag.Int("requests", 8, "serve: requests per client")
	syncName  = flag.String("sync", "mutex", "serve: dispatch queue sync model: mutex, spin or lockfree")
	memName   = flag.String("mem", "pre", "serve: memory mode: pre (pre-sized) or dyn (EDMM / minor faults)")
	think     = flag.Uint64("think", 0, "serve: client think time between requests (cycles)")

	// Production-scale serving knobs (-serve / -fault): dispatch shape,
	// enclave-entry batching and open-loop traffic.
	dispatchName = flag.String("dispatch", "global", "serve: dispatch shape: global (one lock-free/mutex queue) or shard (per-worker queues with work stealing)")
	batch        = flag.Int("batch", 0, "serve: max queued requests coalesced per enclave entry (0 or 1: unbatched)")
	arrivalName  = flag.String("arrival", "", "serve: open-loop arrival process: uniform, poisson, bursty, diurnal or heavytail (empty: closed loop)")
	gapCycles    = flag.Uint64("gap", 300_000, "serve: open-loop mean inter-arrival gap per client (cycles)")
	burstSize    = flag.Int("burst", 8, "serve: burst length for -arrival bursty")
	rampCycles   = flag.Uint64("ramp", 8_000_000, "serve: full diurnal period for -arrival diurnal (cycles)")

	// EPC oversubscription mode (-epc): the demand-paging diagnostics.
	epcMode  = flag.Bool("epc", false, "run the spill/naive operator pairs under a capacity-limited enclave and print the paging breakdown")
	epcRatio = flag.Int64("ratio", 2, "epc: oversubscription ratio (EPC capacity = working set / ratio; 0 = unlimited)")

	// Fault-injection mode (-fault): the crash-storm serving scenario
	// with deadlines, retries and admission control, plus the injected
	// fault timeline.
	faultMode = flag.Bool("fault", false, "simulate the fault-injected serving scenario and print the fault timeline next to the breakdown")
	admit     = flag.Int("admit", 12, "fault: queue-depth admission limit (0 = naive unbounded queue)")

	// Observability outputs: a Chrome-trace-event span/metrics timeline
	// for serving scenarios, a folded-stack cycle profile for pipelines.
	tracePath   = flag.String("trace", "", "serve/fault: write the scenario's span trace + metrics timeline as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	profilePath = flag.String("profile", "", "query: print the per-operator x per-phase cycle tree and write folded stacks (flamegraph.pl compatible) to this file")
)

// runMode identifies which of diag's mutually exclusive run modes a
// flag combination selects.
type runMode int

const (
	modeJoin runMode = iota
	modeQuery
	modeServe
	modeEPC
	modeFault
)

// pickMode resolves the mode flags. At most one of -serve, -fault,
// -epc and -query may be given (none: the single-join mode);
// conflicting combinations are an error instead of a silent precedence
// order, so a typo like "-serve -epc" cannot run the wrong simulation.
func pickMode(serveM, faultM, epcM bool, queryName string) (runMode, error) {
	var sel []string
	m := modeJoin
	if serveM {
		sel = append(sel, "-serve")
		m = modeServe
	}
	if faultM {
		sel = append(sel, "-fault")
		m = modeFault
	}
	if epcM {
		sel = append(sel, "-epc")
		m = modeEPC
	}
	if queryName != "" {
		sel = append(sel, "-query")
		m = modeQuery
	}
	if len(sel) > 1 {
		return 0, fmt.Errorf("conflicting modes %s (pick one)", strings.Join(sel, " "))
	}
	return m, nil
}

// Full-size inputs, divided by -scale: the join and -epc modes join a
// buildMB build side with a probeMB probe side; -query generates a
// probeMB fact table. The serving modes calibrate on fixed small
// datasets.
const (
	buildMB = 100
	probeMB = 400
)

// checkScale validates -scale for the given mode: a positive power of
// two that leaves every generated relation at least one row.
func checkScale(mode runMode, scale int64) error {
	if scale <= 0 || scale&(scale-1) != 0 {
		return fmt.Errorf("-scale %d must be a positive power of two", scale)
	}
	var mb int64
	switch mode {
	case modeJoin, modeEPC:
		mb = buildMB
	case modeQuery:
		mb = probeMB
	default:
		return nil
	}
	if rows := int64(rel.RowsForMB(mb)); scale > rows {
		return fmt.Errorf("-scale %d leaves the %d MB input with no rows (largest valid: %d)",
			scale, mb, int64(1)<<(bits.Len64(uint64(rows))-1))
	}
	return nil
}

func parseSetting(s string) (core.Setting, bool) {
	switch s {
	case "plain":
		return core.PlainCPU, true
	case "plainm":
		return core.PlainCPUM, true
	case "doe":
		return core.SGXDoE, true
	case "die":
		return core.SGXDiE, true
	}
	return 0, false
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: diag [flags]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	mode, err := pickMode(*serveMode, *faultMode, *epcMode, *queryName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	setting, ok := parseSetting(*setName)
	if !ok {
		fmt.Fprintf(os.Stderr, "diag: unknown setting %q (want plain, plainm, doe or die)\n", *setName)
		flag.Usage()
		os.Exit(2)
	}
	if err := checkScale(mode, *scale); err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *threads < 1 {
		fmt.Fprintf(os.Stderr, "diag: -threads %d must be >= 1\n", *threads)
		flag.Usage()
		os.Exit(2)
	}

	plat := platform.XeonGold6326().Scaled(*scale)

	switch mode {
	case modeServe, modeFault:
		runServe(plat, setting)
		return
	case modeEPC:
		runEPC(plat, setting)
		return
	}

	env := core.NewEnv(core.Options{Plat: plat, Setting: setting})

	if mode == modeQuery {
		p, err := query.ByName(*queryName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diag: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
		nDim := 1 << 13
		nFact := rel.RowsForMB(probeMB) / int(*scale)
		ds := plan.GenDataset(env, nDim, nFact, 1234)
		opt := plan.Options{Threads: *threads, Pred: scan.Predicate{Lo: 16, Hi: 127}}
		var prof *obs.Profiler
		if *profilePath != "" {
			prof = obs.NewProfiler("run")
			opt.Profiler = prof
		}
		res := p.Run(env, ds, opt)
		fmt.Printf("%s %s: wall=%d rows=%d groups=%d check=%#x\n",
			res.Pipeline, setting, res.WallCycles, res.Rows, res.Groups, res.Check)
		for _, st := range res.Stages {
			fmt.Printf("stage %-8s wall=%9d rows=%d\n", st.Name, st.WallCycles, st.Rows)
		}
		printPhases(res.Phases)
		if prof != nil {
			fmt.Println("cycle-attribution profile:")
			if err := prof.WriteTree(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "diag: %v\n", err)
				os.Exit(1)
			}
			f, err := os.Create(*profilePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "diag: %v\n", err)
				os.Exit(1)
			}
			werr := prof.WriteFolded(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(os.Stderr, "diag: %v\n", werr)
				os.Exit(1)
			}
			fmt.Printf("wrote folded stacks to %s\n", *profilePath)
		}
		return
	}

	alg, err := join.ByName(*algName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	nR := rel.RowsForMB(buildMB) / int(*scale)
	nS := rel.RowsForMB(probeMB) / int(*scale)
	build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
	res, err := alg.Run(env, build, probe, join.Options{Threads: *threads, Optimized: *optimize})
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s %s: wall=%d tput=%.1f M/s build=%d probe=%d\n",
		alg.Name(), setting, res.WallCycles, res.Throughput(env, nR, nS)/1e6, res.BuildCycles, res.ProbeCycles)
	printPhases(res.Phases)
}

// runEPC runs the EPC oversubscription operator pairs — the
// spill-partitioned GRACE join and spill group-by against their naive
// counterparts (PHT's shared table, the single-table direct group-by) —
// under an enclave sized at workingSet / -ratio, and prints the paging
// breakdown: capacity, per-thread budget, residency at completion,
// fault/eviction/paging-cycle totals and the per-phase fault profile.
func runEPC(plat *platform.Platform, setting core.Setting) {
	nR := rel.RowsForMB(buildMB) / int(*scale)
	nS := rel.RowsForMB(probeMB) / int(*scale)
	pagesFor := func(ws int64) int64 {
		if *epcRatio <= 0 {
			return 0
		}
		return ws / *epcRatio
	}
	newEnv := func(pages int64) *core.Env {
		return core.NewEnv(core.Options{Plat: plat, Setting: setting, EPCPages: pages})
	}
	type opResult struct {
		wall   uint64
		phases []exec.PhaseStats
		stats  engine.Stats
	}
	type op struct {
		name string
		ws   int64 // working-set pages
		run  func(env *core.Env) (opResult, *exec.Group)
	}
	wsJoin := int64(nR+nS) * rel.TupleBytes / 4096
	wsAgg := int64(nS) * 8 / 4096
	aggInputs := func(env *core.Env) []agg.Input {
		_, fact := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
		return []agg.Input{{Tup: fact.Tup, N: nS}}
	}
	ops := []op{
		{"join.grace (spill)", wsJoin, func(env *core.Env) (opResult, *exec.Group) {
			g := env.NewGroup(*threads)
			build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
			res, err := join.NewGrace().RunOn(env, g, build, probe, join.Options{Optimized: true})
			if err != nil {
				fmt.Fprintf(os.Stderr, "diag: %v\n", err)
				os.Exit(1)
			}
			return opResult{res.WallCycles, res.Phases, res.Stats}, g
		}},
		{"join.pht (naive)", wsJoin, func(env *core.Env) (opResult, *exec.Group) {
			g := env.NewGroup(*threads)
			build, probe := rel.GenFKPair(env.Space, nR, nS, env.DataRegion(), 1234)
			res, err := join.NewPHT().RunOn(env, g, build, probe, join.Options{Optimized: true})
			if err != nil {
				fmt.Fprintf(os.Stderr, "diag: %v\n", err)
				os.Exit(1)
			}
			return opResult{res.WallCycles, res.Phases, res.Stats}, g
		}},
		{"agg.spill", wsAgg, func(env *core.Env) (opResult, *exec.Group) {
			g := env.NewGroup(*threads)
			res := agg.SpillRunOn(env, g, aggInputs(env), agg.Options{Sel: agg.ByKey, Groups: nR})
			return opResult{res.WallCycles, res.Phases, res.Stats}, g
		}},
		{"agg.direct (naive)", wsAgg, func(env *core.Env) (opResult, *exec.Group) {
			g := env.NewGroup(1)
			res := agg.DirectRunOn(env, g, aggInputs(env), agg.Options{Sel: agg.ByKey, Groups: nR})
			return opResult{res.WallCycles, res.Phases, res.Stats}, g
		}},
	}
	fmt.Printf("EPC oversubscription diagnostics: %s, scale %d, ratio %dx, %d threads\n",
		setting, *scale, *epcRatio, *threads)
	for _, o := range ops {
		pages := pagesFor(o.ws)
		env := newEnv(pages)
		res, g := o.run(env)
		fmt.Printf("\n%-20s ws=%d pages  epc=%d pages  wall=%d cycles\n", o.name, o.ws, pages, res.wall)
		budget, resident := 0, 0
		for _, t := range g.Threads {
			budget = t.EPCBudgetPages()
			resident += t.EPCResident()
		}
		fmt.Printf("  budget=%d pages/thread  resident(end)=%d pages\n", budget, resident)
		fmt.Printf("  faults=%d evictions=%d pagingCycles=%d\n",
			res.stats.EPCFaults, res.stats.EPCEvictions, res.stats.EPCPagingCycles)
		for _, p := range res.phases {
			if p.Agg.EPCFaults == 0 {
				continue
			}
			fmt.Printf("  phase %-12s wall=%9d faults=%7d evictions=%7d pagingCycles=%d\n",
				p.Name, p.WallCycles, p.Agg.EPCFaults, p.Agg.EPCEvictions, p.Agg.EPCPagingCycles)
		}
	}
}

// runServe calibrates the pipelines on the -scale'd platform and
// replays one serving scenario, printing the per-phase
// queue/transition/EDMM breakdown. Under -fault the scenario carries the
// crash-storm fault plan plus deadlines, capped-backoff retries and
// (unless -admit 0) queue-depth admission control, and the injected
// fault timeline is printed next to the breakdown, mirroring -epc.
func runServe(plat *platform.Platform, setting core.Setting) {
	sync, err := serve.ParseSync(*syncName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	mm, err := serve.ParseMem(*memName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	disp, err := serve.ParseDispatchKind(*dispatchName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	var arrival *serve.ArrivalPlan
	if *arrivalName != "" {
		kind, err := serve.ParseArrivalKind(*arrivalName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diag: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
		arrival = &serve.ArrivalPlan{
			Kind: kind, MeanGapCycles: *gapCycles,
			BurstSize: *burstSize, RampPeriodCycles: *rampCycles,
		}
	}
	w, err := serve.Calibrate(serve.CalibrateOptions{Plat: plat, Setting: setting})
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("calibrated classes (%s, scale %d):\n", setting, *scale)
	for _, c := range w.Classes {
		fmt.Printf("  %-20s service=%9d cycles  workingSet=%4d pages\n", c.Name, c.ServiceCycles, c.Pages)
	}
	cfg := serve.Config{
		Clients: *clients, Workers: *workers, RequestsPerClient: *requests,
		Sync: sync, Mem: mm, ThinkCycles: *think, JitterPct: 10, Seed: 7,
		Dispatch: disp, Batch: *batch, Arrival: arrival,
	}
	if arrival != nil {
		// Open-loop scenarios pace themselves; think time is a
		// closed-loop knob and Validate rejects the combination.
		cfg.ThinkCycles = 0
	}
	// Calibrated mean service time: scales the fault plan and the
	// metrics sample interval so both survive -scale changes.
	var sum uint64
	for _, c := range w.Classes {
		sum += c.ServiceCycles
	}
	meanService := sum / uint64(len(w.Classes))
	if *tracePath != "" {
		cfg.Trace = obs.NewTracer(1 << 16)
		cfg.Metrics = obs.NewMetrics(meanService, 1<<12)
	}
	var plan *serve.FaultPlan
	if *faultMode {
		// The bench crash-storm scenario, scaled off the calibrated mean
		// service time so the shape survives -scale changes.
		s := meanService
		fc := sgx.DefaultFaultCosts()
		fc.Teardown = s / 2
		fc.RebuildBase = 3 * s
		plan = &serve.FaultPlan{
			Seed:          11,
			CrashInterval: 60 * s,
			RebuildPages:  64,
			StormInterval: 20 * s,
			StormLen:      9 * s,
			StormAEXGap:   fc.AEX / 5,
			FailPct:       2,
			Costs:         fc,
		}
		cfg.Fault = plan
		if arrival == nil {
			cfg.ThinkCycles = 12 * s
		}
		cfg.DeadlineCycles = 7 * s
		cfg.MaxRetries = 7
		cfg.BackoffBase = s
		cfg.BackoffCap = 16 * s
		cfg.AdmitDepth = *admit
	}
	res, err := w.Simulate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag: %v\n", err)
		os.Exit(1)
	}
	// Echo the full scenario shape so any run is reproducible from the
	// diag output alone: traffic process, dispatch topology, batching.
	traffic := fmt.Sprintf("closed loop (think=%d)", cfg.ThinkCycles)
	if cfg.Arrival != nil {
		traffic = "open loop: " + cfg.Arrival.String()
	}
	shards := 1
	if cfg.Dispatch == serve.DispatchSharded {
		shards = cfg.Workers
	}
	fmt.Printf("\nscenario: clients=%d workers=%d requests/client=%d seed=%d\n",
		cfg.Clients, cfg.Workers, cfg.RequestsPerClient, cfg.Seed)
	fmt.Printf("scenario: %s  dispatch=%s (%d shards) batch=%d\n", traffic, cfg.Dispatch, shards, cfg.Batch)
	fmt.Printf("\n%s %s queue=%q mem=%s: %d requests, makespan=%d cycles, %.0f q/s\n",
		res.Setting, sync, res.Queue, mm, res.Requests, res.MakespanCycles, res.ThroughputQPS)
	if *faultMode {
		fmt.Printf("outcome: %d succeeded, %d failed, goodput %.0f q/s (admit depth %d)\n",
			res.Succeeded, res.Failed, res.GoodputQPS, *admit)
	}
	fmt.Printf("latency cycles: p50=%d p95=%d p99=%d max=%d\n", res.P50, res.P95, res.P99, res.Max)
	b := res.Breakdown
	fmt.Printf("breakdown (cycles summed over %d requests):\n", b.Requests)
	fmt.Printf("  %-12s %14d  (%d one-way transitions)\n", "transition", b.TransitionCycles, b.Transitions)
	fmt.Printf("  %-12s %14d\n", "lock path", b.LockCycles)
	fmt.Printf("  %-12s %14d\n", "queue wait", b.QueueWaitCycles)
	fmt.Printf("  %-12s %14d  (%d pages)\n", "page commit", b.CommitCycles, b.PagesCommitted)
	fmt.Printf("  %-12s %14d\n", "commit wait", b.CommitWaitCycles)
	fmt.Printf("  %-12s %14d\n", "service", b.ServiceCycles)
	if ds := res.DispatchStats; ds != (serve.DispatchStats{}) {
		fmt.Printf("dispatch: steals=%d stolenAttempts=%d batches=%d batchedAttempts=%d\n",
			ds.Steals, ds.StolenAttempts, ds.Batches, ds.BatchedAttempts)
	}
	if *faultMode {
		fmt.Printf("  %-12s %14d  (%d AEX events)\n", "aex", b.AEXCycles, b.AEXEvents)
		fmt.Printf("  %-12s %14d  (%d crashes)\n", "rebuild", b.RebuildCycles, b.Crashes)
		fmt.Printf("fault counters: timeouts=%d retries=%d shed=%d\n", b.Timeouts, b.Retries, b.Shed)
	}
	fmt.Println("per class:")
	for _, c := range res.PerClass {
		fmt.Printf("  %-20s n=%4d  meanLat=%d\n", c.Name, c.Requests, c.MeanCycles)
	}
	if *faultMode {
		fmt.Println("injected fault timeline:")
		for _, win := range plan.StormWindows(res.MakespanCycles) {
			fmt.Printf("  t=%-12d aex storm until t=%d (one AEX per %d work cycles)\n",
				win[0], win[1], plan.StormAEXGap)
		}
		for _, ev := range res.Faults {
			fmt.Printf("  t=%-12d worker %-3d %s\n", ev.T, ev.Worker, ev.Kind)
		}
		if res.FaultsDropped > 0 {
			fmt.Printf("  (+%d earlier fault events past the %d-event cap; counters above stay exact)\n",
				res.FaultsDropped, len(res.Faults))
		}
	}
	if cfg.Trace != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diag: %v\n", err)
			os.Exit(1)
		}
		werr := obs.WriteTrace(f, cfg.Trace, cfg.Metrics)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "diag: %v\n", werr)
			os.Exit(1)
		}
		st := cfg.Trace.Stats()
		fmt.Printf("wrote trace to %s: %d spans, %d instants (%d dropped), %d metric samples every %d cycles (%d dropped)\n",
			*tracePath, st.Spans, st.Instants, st.Dropped,
			cfg.Metrics.Len(), cfg.Metrics.Interval(), cfg.Metrics.Dropped())
	}
}

func printPhases(phases []exec.PhaseStats) {
	for _, p := range phases {
		fmt.Printf("%-10s wall=%9d busiest=%9d bw=%v host=%6.1fms loads=%9d stores=%9d l1=%9d l2=%8d l3=%7d dram=%7d walks=%6d ssb=%9d strF=%7d rndF=%7d\n",
			p.Name, p.WallCycles, p.Busiest, p.BWBound, float64(p.HostNanos)/1e6,
			p.Agg.Loads, p.Agg.Stores, p.Agg.L1Hits, p.Agg.L2Hits, p.Agg.L3Hits,
			p.Agg.DRAMAcc, p.Agg.TLBWalks, p.Agg.StallSSB, p.Agg.StreamFills, p.Agg.RandomFills)
	}
}
