package main

import (
	"fmt"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/join"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/query"
	"sgxbench/internal/rel"
	"sgxbench/internal/serve"
	"sgxbench/internal/sgx"
)

// threads is the simulated thread count of every engine operation: two,
// one goroutine each per exec.Group phase.
const threads = 2

// outcome is what one operation produced on the simulated clock.
type outcome struct {
	desc   string // operation detail, such as the plan the planner chose
	check  uint64
	cycles uint64 // simulated wall cycles or serving makespan
	stats  engine.Stats
	phases []exec.PhaseStats
	serve  *serve.Result
}

// signature renders every simulated number an operation is checked on;
// the fast engine's signature must equal the reference engine's.
func (o outcome) signature() string {
	s := fmt.Sprintf("%s check=%#x cycles=%d stats=%+v", o.desc, o.check, o.cycles, o.stats)
	if o.serve != nil {
		s += fmt.Sprintf(" requests=%d breakdown=%+v dispatch=%+v", o.serve.Requests, o.serve.Breakdown, o.serve.DispatchStats)
	}
	return s
}

// work counts an operation's simulated work items: engine accesses, or
// requests for serving replays, which run no engine.
func (o outcome) work() uint64 {
	if o.serve != nil {
		return uint64(o.serve.Requests)
	}
	return o.stats.Loads + o.stats.Stores
}

// op is one kind of closed-loop operation. prep builds the operation's
// private inputs outside the timed region and returns the call that is
// timed. Every prep starts from a fresh simulated environment, so each
// execution of an op repeats the same simulated numbers exactly.
type op struct {
	name string
	prep func(sp *spans) func() (outcome, error)
}

// workload is one set of inputs the benchmark runs. setup builds what
// every operation shares, on the reference engine when ref is set, and
// returns one pass: each operation once, in a fixed order.
type workload struct {
	name  string
	setup func(sp *spans, seed uint64, ref bool) ([]op, error)
}

// sizes fixes the input sizes of the workloads.
type sizes struct {
	olapDim, olapFact int // star dataset of the suite queries
	joinScale         int // spill joins: 100 MB / 400 MB of tuples divided by this
	aggRows           int // spill group-by input rows
	aggGroups         int
	clients           int // open-loop serving clients (16 requests each)
	crashReqs         int // crash-storm scenario requests per client
}

// benchSizes are the sizes the benchmark runs at; the tests use smaller.
var benchSizes = sizes{
	olapDim: 4096, olapFact: 1 << 17,
	joinScale: 512, aggRows: 1 << 17, aggGroups: 1 << 14,
	clients: 2048, crashReqs: 256,
}

func workloads(sz sizes) []workload {
	return []workload{olapSuite(sz), epcSpill(sz), serveOpenLoop(sz)}
}

func findWorkload(sz sizes, name string) (workload, bool) {
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive mixes the workload seed with a per-input salt (splitmix64), so
// that every generated input depends on the seed and none is zero.
func derive(seed, salt uint64) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// olapSuite runs every planner suite query natively and in an enclave:
// the paper's question of what the same query costs under SGX.
func olapSuite(sz sizes) workload {
	settings := []core.Setting{core.PlainCPU, core.SGXDiE}
	tags := map[core.Setting]string{core.PlainCPU: "plain", core.SGXDiE: "die"}
	return workload{
		name: "olap-suite",
		setup: func(sp *spans, seed uint64, ref bool) ([]op, error) {
			for _, s := range settings {
				sp.begin("plan.ModelFor")
				plan.ModelFor(s, threads)
				sp.end()
			}
			var ops []op
			for _, s := range settings {
				for i, q := range plan.Suite() {
					dsSeed := derive(seed, uint64(i+1))
					ops = append(ops, op{name: tags[s] + "/" + q.Name, prep: func(sp *spans) func() (outcome, error) {
						sp.begin("core.NewEnv")
						env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(32), Setting: s, Reference: ref})
						sp.end()
						sp.begin("plan.GenSuiteDataset")
						ds := plan.GenSuiteDataset(env, q, sz.olapDim, sz.olapFact, dsSeed)
						sp.end()
						return func() (outcome, error) {
							sp.begin("plan.Query.Plan")
							tree, alt := q.Plan(env, ds, threads)
							sp.end()
							sp.begin("plan.Execute")
							res := plan.Execute(env, ds, plan.Options{Threads: threads, Pred: q.Pred, Limit: q.Limit}, q.Name, tree)
							sp.end()
							return outcome{desc: alt.String(), check: res.Check, cycles: res.WallCycles, stats: res.Stats, phases: res.Phases}, nil
						}
					}})
				}
			}
			return ops, nil
		},
	}
}

// spillRatios is the EPC oversubscription axis (0: resident).
var spillRatios = []int64{0, 2, 4}

func ratioTag(ratio int64) string {
	if ratio == 0 {
		return "resident"
	}
	return fmt.Sprintf("%dx", ratio)
}

// epcSpill runs the spill-aware and naive join and group-by operators
// under SGX DiE with the EPC resident and oversubscribed 2x and 4x.
func epcSpill(sz sizes) workload {
	plat := func() *platform.Platform { return platform.XeonGold6326().Scaled(256) }
	return workload{
		name: "epc-spill",
		setup: func(sp *spans, seed uint64, ref bool) ([]op, error) {
			nR := rel.RowsForMB(100) / sz.joinScale
			nS := rel.RowsForMB(400) / sz.joinScale
			joinSeed, aggSeed := derive(seed, 101), derive(seed, 102)
			env := func(sp *spans, pages int64) *core.Env {
				sp.begin("core.NewEnv")
				defer sp.end()
				return core.NewEnv(core.Options{Plat: plat(), Setting: core.SGXDiE, EPCPages: pages, Reference: ref})
			}
			var ops []op
			for _, name := range []string{"GRACE", "PHT"} {
				for _, ratio := range spillRatios {
					var pages int64
					if ratio > 0 {
						pages = int64(nR+nS) * rel.TupleBytes / 4096 / ratio
					}
					ops = append(ops, op{name: "join." + name + "@" + ratioTag(ratio), prep: func(sp *spans) func() (outcome, error) {
						e := env(sp, pages)
						sp.begin("rel.GenFKPair")
						build, probe := rel.GenFKPair(e.Space, nR, nS, e.DataRegion(), joinSeed)
						sp.end()
						alg, err := join.ByName(name)
						return func() (outcome, error) {
							if err != nil {
								return outcome{}, err
							}
							sp.begin("join." + name + ".Run")
							res, err := alg.Run(e, build, probe, join.Options{Threads: threads, Optimized: true})
							sp.end()
							if err != nil {
								return outcome{}, err
							}
							return outcome{check: res.Matches, cycles: res.WallCycles, stats: res.Stats, phases: res.Phases}, nil
						}
					}})
				}
			}
			for _, spill := range []bool{true, false} {
				for _, ratio := range spillRatios {
					var pages int64
					if ratio > 0 {
						pages = int64(sz.aggRows) * 8 / 4096 / ratio
					}
					name := "agg.DirectRun"
					if spill {
						name = "agg.SpillRun"
					}
					ops = append(ops, op{name: name + "@" + ratioTag(ratio), prep: func(sp *spans) func() (outcome, error) {
						e := env(sp, pages)
						sp.begin("rel.GenFKPair")
						_, fact := rel.GenFKPair(e.Space, sz.aggGroups, sz.aggRows, e.DataRegion(), aggSeed)
						sp.end()
						ins := []agg.Input{{Tup: fact.Tup, N: sz.aggRows}}
						opt := agg.Options{Threads: threads, Sel: agg.ByKey, Groups: sz.aggGroups}
						return func() (outcome, error) {
							sp.begin(name)
							var res *agg.Result
							if spill {
								res = agg.SpillRun(e, ins, opt)
							} else {
								res = agg.DirectRun(e, ins, opt)
							}
							sp.end()
							return outcome{desc: fmt.Sprintf("groups=%d", res.Groups), check: res.Check, cycles: res.WallCycles, stats: res.Stats, phases: res.Phases}, nil
						}
					}})
				}
			}
			return ops, nil
		},
	}
}

// serveOpenLoop replays serving scenarios on the virtual clock: 64
// enclave workers behind a global queue and behind sharded, batched
// dispatch for open-loop Poisson clients, and the crash-storm fault
// plan behind admission control. After calibration no engine runs.
func serveOpenLoop(sz sizes) workload {
	return workload{
		name: "serve-openloop",
		setup: func(sp *spans, seed uint64, ref bool) ([]op, error) {
			// Tiny pipelines keep the per-request transitions dominant,
			// the regime sharded, batched dispatch targets.
			sp.begin("serve.Calibrate")
			scaleW, err := serve.Calibrate(serve.CalibrateOptions{
				Setting: core.SGXDiE, Reference: ref, NDim: 64, NFact: 256, MaxRows: 256,
				Pipelines: []string{query.Q1Name, query.Q4Name, query.Q3Name},
				Seed:      derive(seed, 201),
			})
			sp.end()
			if err != nil {
				return nil, err
			}
			sp.begin("serve.Calibrate")
			faultW, err := serve.Calibrate(serve.CalibrateOptions{Setting: core.SGXDiE, Reference: ref, Seed: derive(seed, 202)})
			sp.end()
			if err != nil {
				return nil, err
			}
			weights := []int{6, 3, 1}
			var wsum, wtot uint64
			for i, c := range scaleW.Classes {
				wsum += uint64(weights[i]) * c.ServiceCycles
				wtot += uint64(weights[i])
			}
			open := serve.Config{
				Clients: sz.clients, Workers: 64, RequestsPerClient: 16,
				Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
				Weights: weights, JitterPct: 10, Seed: derive(seed, 203),
				// Ten mean service times between a client's requests:
				// far more load than 64 workers serve.
				Arrival: &serve.ArrivalPlan{Kind: serve.ArrivalPoisson, MeanGapCycles: 10 * wsum / wtot},
			}
			batched := open
			batched.Dispatch, batched.Batch = serve.DispatchSharded, 16
			crash := crashStorm(faultW, sz.crashReqs, derive(seed, 204))
			scenarios := []struct {
				name string
				w    *serve.Workload
				cfg  serve.Config
			}{
				{fmt.Sprintf("global.c%d", sz.clients), scaleW, open},
				{fmt.Sprintf("shard.batch.c%d", sz.clients), scaleW, batched},
				{"crash.admit", faultW, crash},
			}
			var ops []op
			for _, sc := range scenarios {
				ops = append(ops, op{name: sc.name, prep: func(sp *spans) func() (outcome, error) {
					return func() (outcome, error) {
						sp.begin("serve.Workload.Simulate")
						res, err := sc.w.Simulate(sc.cfg)
						sp.end()
						if err != nil {
							return outcome{}, err
						}
						return outcome{check: res.Check, cycles: res.MakespanCycles, serve: res}, nil
					}
				}})
			}
			return ops, nil
		},
	}
}

// crashStorm is the crash-storm fault scenario behind queue-depth
// admission control, shaped like cmd/bench's fault.crash.admit: 64
// closed-loop clients on 8 workers, AEX storms, enclave crashes and
// transient aborts, with every interval a multiple of the calibrated
// mean service time s.
func crashStorm(w *serve.Workload, reqs int, seed uint64) serve.Config {
	var sum uint64
	for _, c := range w.Classes {
		sum += c.ServiceCycles
	}
	s := sum / uint64(len(w.Classes))
	fc := sgx.DefaultFaultCosts()
	fc.Teardown = s / 2
	fc.RebuildBase = 3 * s
	return serve.Config{
		Clients: 64, Workers: 8, RequestsPerClient: reqs,
		Sync: serve.SyncLockFree, Mem: serve.MemPreSized,
		ThinkCycles: 12 * s, JitterPct: 10, Seed: seed,
		DeadlineCycles: 7 * s, MaxRetries: 7, BackoffBase: s, BackoffCap: 16 * s,
		AdmitDepth: 12,
		Fault: &serve.FaultPlan{
			Seed: seed ^ 0x5bd1e995, StormInterval: 20 * s, StormLen: 9 * s, StormAEXGap: fc.AEX / 5,
			CrashInterval: 60 * s, FailPct: 2, RebuildPages: 64, Costs: fc,
		},
	}
}
