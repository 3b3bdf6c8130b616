package plan

import (
	"math"
	"sync"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/scan"
)

// The enclave-aware cost model. Every constant is CALIBRATED, not
// guessed: the model executes small probe plans on a fresh simulated
// environment of the target setting and derives per-row cycle costs
// from the measured stage cycles. Because the probes run under the full
// engine simulation, each per-setting constant already embeds the
// enclave effects the paper measures — the run/gather access mix of the
// operator, the SSB store serialization inside enclaves, and the
// transition costs of the setting — so a plain-CPU model and a DiE
// model of the same operator differ exactly where the simulation says
// they differ. EPC pressure enters as a separate calibrated paging
// term: kappa[s] is the extra per-row cost of strategy s at full miss
// rate, measured by re-running the probe under a 2x-oversubscribed EPC
// capacity, and scaled by (1 - 1/ratio) — zero when resident,
// monotonically increasing in the oversubscription ratio.

// Calibration probe sizes: small enough that a full calibration is a
// few milliseconds of host time, large enough that fixed per-phase
// overheads do not swamp the per-row slopes.
const (
	calDim  = 256
	calFact = 8192
	// calK is the LIMIT of the top-k calibration probe; the model scales
	// TopKRow by log2(k+2)/log2(calK+2) for other limits.
	calK = 256
)

// Join strategy identifiers (Alternative.Join values).
const (
	JoinRHO   = "rho"
	JoinINL   = "inl"
	JoinMerge = "merge"
	JoinGrace = "grace"
)

// Aggregation strategy identifiers (Alternative.Agg values).
const (
	AggHash  = "hash"
	AggSpill = "spill"
)

// Shape is the planner's view of a query's data sizes.
type Shape struct {
	NDim  int
	NFact int
	// EPCRatio is working set / EPC capacity (0 or <=1: resident).
	EPCRatio float64
}

// Model holds one setting's calibrated per-row cycle costs.
type Model struct {
	Setting core.Setting
	// Threads is the execution parallelism the model was calibrated at.
	// Stages parallelize unevenly (per-thread top-k heaps do more total
	// work at higher thread counts; sorts scale near-linearly), so the
	// calibration probes run at the thread count the plans will.
	Threads int

	FilterRow     float64 // filter scan, per fact row
	GatherRow     float64 // tuple gather, per selected row
	AggFixed      float64 // hash group-by, fixed (table setup)
	AggRow        float64 // hash group-by, per input row
	SpillAggFixed float64 // spill group-by, fixed (partition setup)
	SpillAggRow   float64 // spill group-by, per input row
	TopKFixed     float64 // heap top-k, fixed (heap fill + merge at calK)
	TopKRow       float64 // heap top-k, per row·(log2(k)/log2(calK))
	ProjectRow    float64 // swap projection, per row
	SortUnit      float64 // sort, per row·log2(rows)
	MergeRow      float64 // merge join, per input row (both sides)

	// JoinFixed/JoinRow: per-strategy affine fit cost(n) =
	// fixed·(nDim/calDim) + row·nProbe from two probe selectivities.
	JoinFixed map[string]float64
	JoinRow   map[string]float64
	// inlDepth is log2(calDim+2): INL's per-probe cost scales with the
	// B+-tree depth, so the model scales JoinRow[inl] by
	// log2(nDim+2)/inlDepth.
	inlDepth float64

	// Kappa is the paging penalty: extra cycles per row at full miss
	// rate, per join strategy and per "agg."-prefixed agg strategy.
	// Calibrated lazily (EnsureKappa); zero for non-EPC settings.
	Kappa     map[string]float64
	kappaOnce sync.Once
}

// calPlat is the fixed calibration platform: the benchmark's scaled
// paper machine, so calibrated constants are deterministic and
// independent of the caller's env instance.
func calPlat() *platform.Platform { return platform.XeonGold6326().Scaled(32) }

// calEnv builds one fresh probe environment. The fast engine path is
// used unconditionally: fast and reference paths are bit-identical in
// simulated cycles, so one calibration serves both.
func calEnv(setting core.Setting, epcPages int64) *core.Env {
	return core.NewEnv(core.Options{Plat: calPlat(), Setting: setting, EPCPages: epcPages})
}

// calPred is the probe predicate pair: two selectivities whose measured
// join-stage cycles give the per-probe-row slope and the fixed
// (build + partition-setup) intercept.
var calPredLo = scan.Predicate{Lo: 32, Hi: 95}  // 25%
var calPredHi = scan.Predicate{Lo: 10, Hi: 240} // ~90%

// calRun executes one probe query tree and returns its per-stage
// cycles and row counts.
func calRun(setting core.Setting, threads int, epcPages int64, q Query, alt Alternative) *Result {
	env := calEnv(setting, epcPages)
	ds := GenDataset(env, calDim, calFact, 4242)
	if q.Dims > 1 {
		EnsureChain(env, ds, q.Dims-1)
	}
	opt := Options{Threads: threads, Pred: q.Pred, Limit: q.Limit}
	return Execute(env, ds, opt, q.Name, q.Tree(alt))
}

// stageOf returns the first stage with the given name (cycles, rows).
func stageOf(res *Result, name string) (float64, float64) {
	for _, s := range res.Stages {
		if s.Name == name {
			return float64(s.WallCycles), float64(s.Rows)
		}
	}
	return 0, 0
}

type modelKey struct {
	setting core.Setting
	threads int
}

var modelCache sync.Map // modelKey → *Model

// ModelFor returns the calibrated cost model for a setting at a thread
// count, running the calibration probes on first use (cached;
// deterministic).
func ModelFor(setting core.Setting, threads int) *Model {
	if threads < 1 {
		threads = 1
	}
	k := modelKey{setting, threads}
	if m, ok := modelCache.Load(k); ok {
		return m.(*Model)
	}
	m := calibrate(setting, threads)
	actual, _ := modelCache.LoadOrStore(k, m)
	return actual.(*Model)
}

// calibrate derives the per-row constants from probe plans.
func calibrate(setting core.Setting, threads int) *Model {
	m := &Model{
		Setting:   setting,
		Threads:   threads,
		JoinFixed: map[string]float64{},
		JoinRow:   map[string]float64{},
		Kappa:     map[string]float64{},
		inlDepth:  math.Log2(calDim + 2),
	}

	// affineFit turns two (cycles, rows) probe points into non-negative
	// (fixed, slope) coefficients.
	affineFit := func(c1, n1, c2, n2 float64) (fixed, row float64) {
		row = (c2 - c1) / (n2 - n1)
		if row < 0 {
			row = 0
		}
		fixed = c1 - row*n1
		if fixed < 0 {
			fixed = 0
		}
		return fixed, row
	}

	// Scan/gather slopes and the agg affine fits from the no-join
	// aggregation shape at the two probe selectivities. The fixed agg
	// terms matter: the spill group-by's partition setup makes the
	// resident hash group-by cheaper at low row counts even though the
	// spill variant's per-row slope is slightly lower.
	base := calRun(setting, threads, 0, Query{Name: "cal.base", Pred: calPredLo}, Alternative{Agg: AggHash})
	baseHi := calRun(setting, threads, 0, Query{Name: "cal.base", Pred: calPredHi}, Alternative{Agg: AggHash})
	fc, _ := stageOf(base, "filter")
	gc, gr := stageOf(base, "gather")
	ac, _ := stageOf(base, "agg")
	ac2, _ := stageOf(baseHi, "agg")
	_, gr2 := stageOf(baseHi, "gather")
	m.FilterRow = fc / calFact
	m.GatherRow = gc / gr
	m.AggFixed, m.AggRow = affineFit(ac, gr, ac2, gr2)

	spill := calRun(setting, threads, 0, Query{Name: "cal.spill", Pred: calPredLo}, Alternative{Agg: AggSpill})
	spillHi := calRun(setting, threads, 0, Query{Name: "cal.spill", Pred: calPredHi}, Alternative{Agg: AggSpill})
	sc, _ := stageOf(spill, "agg")
	_, sn := stageOf(spill, "gather")
	sc2, _ := stageOf(spillHi, "agg")
	_, sn2 := stageOf(spillHi, "gather")
	m.SpillAggFixed, m.SpillAggRow = affineFit(sc, sn, sc2, sn2)

	topk := calRun(setting, threads, 0, Query{Name: "cal.topk", Pred: calPredLo, Order: true, Limit: calK}, Alternative{Ord: OrdTopK})
	topkHi := calRun(setting, threads, 0, Query{Name: "cal.topk", Pred: calPredHi, Order: true, Limit: calK}, Alternative{Ord: OrdTopK})
	tc, _ := stageOf(topk, "topk")
	_, tn := stageOf(topk, "gather")
	tc2, _ := stageOf(topkHi, "topk")
	_, tn2 := stageOf(topkHi, "gather")
	m.TopKFixed, m.TopKRow = affineFit(tc, tn, tc2, tn2)

	// Join slopes: the affine fit from the two probe selectivities.
	for _, s := range []string{JoinRHO, JoinINL, JoinGrace, JoinMerge} {
		lo := calRun(setting, threads, 0, Query{Name: "cal." + s, Pred: calPredLo, Dims: 1}, Alternative{Join: s, Agg: AggHash})
		hi := calRun(setting, threads, 0, Query{Name: "cal." + s, Pred: calPredHi, Dims: 1}, Alternative{Join: s, Agg: AggHash})
		c1, n1 := stageOf(lo, "join")
		c2, n2 := stageOf(hi, "join")
		m.JoinFixed[s], m.JoinRow[s] = affineFit(c1, n1, c2, n2)
		if s == JoinINL {
			// INL has no timed build: its probe-phase cost goes through
			// the origin, and fit noise in the intercept would otherwise
			// overcharge low-selectivity probes.
			m.JoinFixed[s] = 0
		}
		if s == JoinMerge {
			// The merge strategy's sort stages are costed separately.
			sfc, sfn := stageOf(lo, "sort-fact")
			m.SortUnit = sfc / (sfn * math.Log2(sfn))
			m.MergeRow = c1 / (n1 + calDim)
			m.JoinFixed[s], m.JoinRow[s] = 0, 0
		}
	}

	// Project slope from a 2-dim chain.
	chain := calRun(setting, threads, 0, Query{Name: "cal.chain", Pred: calPredLo, Dims: 2}, Alternative{Join: JoinRHO, Agg: AggHash})
	pc, pn := stageOf(chain, "project")
	m.ProjectRow = pc / pn

	return m
}

// EnsureKappa calibrates the paging penalty coefficients on first use:
// each strategy's probe re-runs under an EPC capacity of half its
// measured resident working set (2x oversubscription), and the per-row
// cost delta — clamped non-negative — becomes the full-miss penalty.
// Settings whose data region is not EPC-resident page nowhere; their
// coefficients stay zero.
func (m *Model) EnsureKappa() {
	m.kappaOnce.Do(func() {
		if !m.Setting.DataInEPC() {
			return
		}
		probe := func(q Query, alt Alternative, stage string) {
			res0 := calRun(m.Setting, m.Threads, 0, q, alt)
			pages := wsPages(m.Setting, m.Threads)
			res2 := calRun(m.Setting, m.Threads, pages/2, q, alt)
			c0, n := stageOf(res0, stage)
			c2, _ := stageOf(res2, stage)
			k := (c2 - c0) / n / (1 - 0.5)
			if k < 0 {
				k = 0
			}
			key := alt.Join
			if stage == "agg" {
				key = "agg." + alt.Agg
			}
			m.Kappa[key] = k
		}
		for _, s := range []string{JoinRHO, JoinINL, JoinGrace, JoinMerge} {
			probe(Query{Name: "cal.k." + s, Pred: calPredHi, Dims: 1}, Alternative{Join: s, Agg: AggHash}, "join")
		}
		probe(Query{Name: "cal.k.agg", Pred: calPredHi}, Alternative{Agg: AggHash}, "agg")
		probe(Query{Name: "cal.k.spill", Pred: calPredHi}, Alternative{Agg: AggSpill}, "agg")
	})
}

// wsPages measures the probe workload's resident EPC page footprint
// (dataset + scratch + operator state) by running it once without a
// capacity limit and reading the space's EPC usage.
func wsPages(setting core.Setting, threads int) int64 {
	env := calEnv(setting, 0)
	ds := GenDataset(env, calDim, calFact, 4242)
	Execute(env, ds, Options{Threads: threads, Pred: calPredHi}, "cal.ws",
		Query{Pred: calPredHi, Dims: 1}.Tree(Alternative{Join: JoinRHO, Agg: AggHash}))
	used := env.Space.Used(mem.Region{Node: 0, Kind: mem.EPC})
	if used <= 0 {
		used = env.Space.Used(env.DataRegion())
	}
	return (used + 4095) / 4096
}

// press maps an oversubscription ratio to the paging pressure factor
// multiplying kappa: 0 when resident, approaching 1 as the working set
// dwarfs the EPC. Monotone non-decreasing in the ratio.
func press(ratio float64) float64 {
	if ratio <= 1 {
		return 0
	}
	return 1 - 1/ratio
}

// joinCost returns one chain level's modeled cycles.
func (m *Model) joinCost(s string, nProbe, nDim, ratio float64) float64 {
	var c float64
	switch s {
	case JoinMerge:
		c = m.SortUnit*(nProbe*math.Log2(nProbe+2)+nDim*math.Log2(nDim+2)) +
			m.MergeRow*(nProbe+nDim)
	case JoinINL:
		// INL's index build is untimed (pre-provisioned), so its fixed
		// term is generic probe setup, not dim-dependent; the per-probe
		// slope scales with the B+-tree depth.
		c = m.JoinFixed[s] + m.JoinRow[s]*nProbe*math.Log2(nDim+2)/m.inlDepth
	default:
		c = m.JoinFixed[s]*(nDim/calDim) + m.JoinRow[s]*nProbe
	}
	return c + m.Kappa[s]*nProbe*press(ratio)
}

// Cost returns the modeled simulated cycles of running q with the given
// strategy alternative over a dataset shape. Monotone non-decreasing in
// rows, selectivity and EPC pressure.
func (m *Model) Cost(q Query, alt Alternative, sh Shape) float64 {
	if sh.EPCRatio > 1 {
		m.EnsureKappa()
	}
	nF := float64(sh.NFact)
	rows := q.Pred.Selectivity() * nF
	if rows < 1 {
		rows = 1
	}
	d := float64(sh.NDim)
	c := m.FilterRow*nF + m.GatherRow*rows
	for lvl := 0; lvl < q.Dims; lvl++ {
		c += m.joinCost(alt.Join, rows, d, sh.EPCRatio)
		if lvl < q.Dims-1 || q.Order {
			c += m.ProjectRow * rows
		}
	}
	switch {
	case q.Order && q.Limit > 0 && alt.Ord == OrdTopK:
		k := float64(q.Limit)
		if k > rows {
			k = rows
		}
		c += m.TopKFixed*(k/calK) + m.TopKRow*rows*math.Log2(k+2)/math.Log2(calK+2)
	case q.Order:
		c += m.SortUnit * rows * math.Log2(rows+2)
	default:
		fx, ar, ka := m.AggFixed, m.AggRow, m.Kappa["agg."+AggHash]
		if alt.Agg == AggSpill {
			fx, ar, ka = m.SpillAggFixed, m.SpillAggRow, m.Kappa["agg."+AggSpill]
		}
		c += fx + ar*rows + ka*rows*press(sh.EPCRatio)
	}
	return c
}
