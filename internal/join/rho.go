package join

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/kernels"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// RHO is the Radix Hash Optimized join [28, 3]: both inputs are radix-
// partitioned in two parallel passes into cache-sized partitions, which
// are then joined with an in-cache hash table. This is the paper's
// best-performing algorithm and the one its optimization study centers
// on (Figures 1, 6, 9). The two-phase parallel partitioning follows Kim
// et al. [21]: per-thread histograms, a cooperative prefix sum, and
// contention-free scatters through per-thread cursors.
type RHO struct{}

// NewRHO returns the RHO algorithm.
func NewRHO() *RHO { return &RHO{} }

// Name returns the paper's name for the algorithm.
func (*RHO) Name() string { return "RHO" }

// RadixBits picks the total number of radix bits so that the average
// final R partition fits comfortably in L2 (cache-sized partitions).
func RadixBits(env *core.Env, nBuild int) (b1, b2 uint) {
	target := env.Plat.L2.SizeBytes / 4
	if target < 512 {
		target = 512
	}
	var b uint
	for int64(nBuild)*rel.TupleBytes>>b > target && b < 18 {
		b++
	}
	if b < 2 {
		b = 2
	}
	b1 = (b + 1) / 2
	b2 = b - b1
	if b2 < 1 {
		b2 = 1
	}
	return b1, b2
}

// rhoState bundles the partitioning buffers for one input table.
type rhoState struct {
	in   *mem.U64Buf // input tuples
	tmp  *mem.U64Buf // pass-1 output
	out  *mem.U64Buf // pass-2 output
	h1   *mem.U32Buf // per-thread pass-1 histograms (T x P1)
	cur1 *mem.U32Buf // per-thread pass-1 cursors (T x P1)
	h2   *mem.U32Buf // pass-2 histograms (P1 x P2)
	cur2 *mem.U32Buf // pass-2 cursors (P1 x P2)

	start1 []int // pass-1 partition start (real bookkeeping)
	count1 []int
	start2 []int // final partition start, indexed p1*P2+p2
	count2 []int
}

func newRHOState(env *core.Env, in *rel.Relation, threads int, p1, p2 int) *rhoState {
	n := in.N()
	reg := env.DataRegion()
	return &rhoState{
		in:     in.Tup,
		tmp:    env.Space.AllocU64(in.Name+".tmp", n, reg),
		out:    env.Space.AllocU64(in.Name+".out", n, reg),
		h1:     env.Space.AllocU32(in.Name+".h1", threads*p1, reg),
		cur1:   env.Space.AllocU32(in.Name+".cur1", threads*p1, reg),
		h2:     env.Space.AllocU32(in.Name+".h2", p1*p2, reg),
		cur2:   env.Space.AllocU32(in.Name+".cur2", p1*p2, reg),
		start1: make([]int, p1+1),
		count1: make([]int, p1),
		start2: make([]int, p1*p2+1),
		count2: make([]int, p1*p2),
	}
}

// Run executes the join.
func (r *RHO) Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error) {
	return r.RunOn(env, env.NewGroup(opt.threads()), build, probe, opt)
}

// RunOn executes the join on an existing thread group (pipeline stage
// composition: simulated cache/TLB state carries over from the previous
// stage). Options.Threads is ignored; the group decides it.
// Result timing and stats cover only this stage's phases.
func (r *RHO) RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt Options) (*Result, error) {
	T := len(g.Threads)
	mark := g.Mark()
	b1, b2 := RadixBits(env, build.N())
	p1, p2 := 1<<b1, 1<<b2
	R := newRHOState(env, build, T, p1, p2)
	S := newRHOState(env, probe, T, p1, p2)
	res := &Result{Algorithm: r.Name()}

	unroll := 1
	avx := false
	if opt.Optimized {
		// The optimized variant uses the AVX-512 histogram: 8-wide
		// vectorized index computation at the vector register budget of
		// Fig 8, with line-granular key loads and no spills.
		unroll = kernels.AVXRegBudget
		avx = true
	}
	spills := make([]*mem.U32Buf, T)
	wcs := make([]*mem.U64Buf, T)
	maxP := p1
	if p2 > maxP {
		maxP = p2
	}
	for i := range spills {
		spills[i] = env.Space.AllocU32("spill", 64, env.DataRegion())
		if opt.Optimized {
			// Per-thread write-combining arena: one line per partition.
			wcs[i] = env.Space.AllocU64("wc", maxP*8, env.DataRegion())
		}
	}
	histCfg := func(id int, shift, bits uint) kernels.HistConfig {
		return kernels.HistConfig{Shift: shift, Bits: bits, Unroll: unroll, AVX: avx, Spill: spills[id]}
	}
	scatCfg := func(id int, shift, bits uint) kernels.ScatterConfig {
		u := 1
		if opt.Optimized {
			// The write-combining copy keeps no per-tuple cursor in
			// registers, so it can afford the same unroll depth as the
			// histogram (Fig 8's budget).
			u = 8
		}
		return kernels.ScatterConfig{Shift: shift, Bits: bits, Unroll: u, WC: wcs[id]}
	}

	// --- Pass 1: histograms over both inputs ---
	g.Phase("Hist1", func(t *engine.Thread, id int) {
		for _, st := range []*rhoState{R, S} {
			lo, hi := exec.Chunk(st.in.Len(), T, id)
			kernels.Histogram(t, st.in, lo, hi, st.h1, id*p1, histCfg(id, 0, b1))
		}
	})

	// --- Pass 1: cursor computation + scatter ---
	g.Phase("Copy1", func(t *engine.Thread, id int) {
		offs := make([]int64, T)
		for _, st := range []*rhoState{R, S} {
			// Each thread derives its own cursor column from the shared
			// histogram matrix: per partition, one strided gather of the
			// T per-thread counts, then the thread's own cursor store.
			base := 0
			for p := 0; p < p1; p++ {
				for tt := 0; tt < T; tt++ {
					offs[tt] = st.h1.Off(tt*p1 + p)
				}
				t.LoadGather(&st.h1.Buffer, 4, offs, nil, nil)
				cum := base
				for tt := 0; tt < T; tt++ {
					if tt == id {
						engine.StoreU32(t, st.cur1, id*p1+p, uint32(cum), 0, 0)
					}
					cum += int(st.h1.D[tt*p1+p])
				}
				if id == 0 {
					st.start1[p] = base
					st.count1[p] = cum - base
				}
				base = cum
			}
			lo, hi := exec.Chunk(st.in.Len(), T, id)
			kernels.Scatter(t, st.in, lo, hi, st.tmp, st.cur1, id*p1, scatCfg(id, 0, b1))
		}
	})
	// --- Pass 2: per-partition histograms ---
	g.Phase("Hist2", func(t *engine.Thread, id int) {
		for _, st := range []*rhoState{R, S} {
			for pp := id; pp < p1; pp += T {
				lo := st.start1[pp]
				hi := lo + st.count1[pp]
				kernels.Histogram(t, st.tmp, lo, hi, st.h2, pp*p2, histCfg(id, b1, b2))
			}
		}
	})

	// --- Pass 2: local prefix + scatter ---
	g.Phase("Copy2", func(t *engine.Thread, id int) {
		for _, st := range []*rhoState{R, S} {
			for pp := id; pp < p1; pp += T {
				lo := st.start1[pp]
				hi := lo + st.count1[pp]
				// Local prefix sum: batched sequential read of the
				// partition's histogram row, then the cursor writes.
				tok := t.LoadRun(&st.h2.Buffer, st.h2.Off(pp*p2), 4, p2, 0)
				cum := uint32(lo)
				for j := 0; j < p2; j++ {
					v := st.h2.D[pp*p2+j]
					st.cur2.D[pp*p2+j] = cum
					st.start2[pp*p2+j] = int(cum)
					st.count2[pp*p2+j] = int(v)
					cum += v
				}
				t.StoreRun(&st.cur2.Buffer, st.cur2.Off(pp*p2), 4, p2, 0, engine.After(tok, 1))
				kernels.Scatter(t, st.tmp, lo, hi, st.out, st.cur2, pp*p2, scatCfg(id, b1, b2))
			}
		}
	})

	// --- In-cache join per final partition ---
	maxPart := 0
	for _, c := range R.count2 {
		if c > maxPart {
			maxPart = c
		}
	}
	scratches := make([]*scratch, T)
	for i := range scratches {
		scratches[i] = newScratch(env, maxPart)
	}
	counts := make([]uint64, T)
	buildCy := make([]uint64, T)
	probeCy := make([]uint64, T)
	outs := make([]*outWriter, T)
	g.Phase("Join", func(t *engine.Thread, id int) {
		var out *outWriter
		if opt.Materialize {
			out = newOutWriter(env, id, opt.outBuf(id))
			outs[id] = out
		}
		var local uint64
		for pp := id; pp < p1; pp += T {
			for j := 0; j < p2; j++ {
				fp := pp*p2 + j
				local += joinPartition(t,
					R.out, R.start2[fp], R.start2[fp]+R.count2[fp],
					S.out, S.start2[fp], S.start2[fp]+S.count2[fp],
					scratches[id], opt.Optimized, out, &buildCy[id], &probeCy[id])
			}
		}
		counts[id] = local
	})

	for id := 0; id < T; id++ {
		res.Matches += counts[id]
		res.BuildCycles += buildCy[id]
		res.ProbeCycles += probeCy[id]
	}
	if opt.Materialize {
		res.Output = make([][]uint64, T)
		for i, w := range outs {
			if w != nil {
				res.Output[i] = w.result()
			}
		}
	}
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res, nil
}
