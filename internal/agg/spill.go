package agg

import (
	"fmt"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
)

// This file holds the EPC-oversubscription pair of group-by operators:
//
//   - SpillRunOn: the spill-partitioned group-by. Like the regular
//     RunOn it radix-partitions on hash digits and aggregates partition
//     by partition, but the partition count is driven by the enclave's
//     per-thread EPC budget instead of L2, the partitioning runs in as
//     many recursive passes as that budget demands, and under a capacity
//     limit the staging buffers live in untrusted memory — spilled
//     partitions leave the enclave through sequential streaming writes,
//     so only the inputs' single drain pass and the budget-sized worker
//     tables touch EPC pages.
//
//   - DirectRunOn: the naive baseline. One thread, one full-domain hash
//     table, no partitioning — the textbook group-by whose hash-derived
//     random accesses demand-page catastrophically once the table
//     outgrows the EPC. It exists to demonstrate the collapse the spill
//     operator avoids (the degradation gate's second half).

// spillAggTarget returns the per-partition working-set target in bytes:
// the L2 target when the EPC is unlimited, else an eighth of the
// thread's EPC share (the worker keeps buckets and touched entries
// resident while the partition streams through).
func spillAggTarget(env *core.Env, threads int) int64 {
	target := env.Plat.L2.SizeBytes / 4
	if target < 1024 {
		target = 1024
	}
	if env.EPCPages > 0 {
		per := env.EPCPages * 4096 / int64(threads)
		if b := per / 8; b < target {
			target = b
		}
		if target < 1024 {
			target = 1024
		}
	}
	return target
}

// spillAggPassBits plans the recursive partitioning: total hash bits so
// that a partition's aggregation working set — EntryBytes per expected
// group plus the bucket table's word per row — fits the target, split
// into TLB-friendly passes of at most 8 bits.
func spillAggPassBits(env *core.Env, n, groups, threads int) []uint {
	target := spillAggTarget(env, threads)
	load := int64(groups)*EntryBytes + int64(n)*4
	var total uint = 1
	for load>>total > target && total < 16 {
		total++
	}
	const maxPass = 8
	var passes []uint
	for total > 0 {
		b := total
		if b > maxPass {
			b = maxPass
		}
		passes = append(passes, b)
		total -= b
	}
	return passes
}

// SpillRun executes the spill-partitioned group-by over the concatenated
// inputs under env.
func SpillRun(env *core.Env, ins []Input, opt Options) *Result {
	return SpillRunOn(env, env.NewGroup(opt.threads()), ins, opt)
}

// SpillRunOn executes the spill-partitioned group-by on an existing
// thread group. Options.PartBits, when set, overrides the total hash-bit
// count but keeps the budget-driven per-pass split.
func SpillRunOn(env *core.Env, g *exec.Group, ins []Input, opt Options) *Result {
	T := len(g.Threads)
	mark := g.Mark()
	n := 0
	for _, in := range ins {
		n += in.N
	}
	groupsHint := opt.Groups
	if groupsHint <= 0 || groupsHint > n {
		groupsHint = n
	}
	if groupsHint < 1 {
		groupsHint = 1
	}
	passes := spillAggPassBits(env, n, groupsHint, T)
	if opt.PartBits > 0 {
		per := passes[0]
		passes = nil
		for total := uint(opt.PartBits); total > 0; {
			b := total
			if b > per {
				b = per
			}
			passes = append(passes, b)
			total -= b
		}
	}
	stageReg := env.SpillRegion()
	bufs := [2]*mem.U64Buf{
		env.Space.AllocU64("agg.sp0", max(n, 1), stageReg),
		env.Space.AllocU64("agg.sp1", max(n, 1), stageReg),
	}

	srcIns := ins
	// When the inputs live in the paged EPC, drain them once into the
	// untrusted staging buffer through sequential streaming (non-temporal)
	// writes: every partitioning pass then reads untrusted memory, so each
	// input page faults exactly once, independent of the pass count.
	if env.EPCPages > 0 && env.DataRegion().Kind == mem.EPC {
		stage := bufs[1]
		g.Phase("Agg.Drain", func(t *engine.Thread, id int) {
			lo, hi := exec.Chunk(n, T, id)
			base := 0
			for _, in := range ins {
				sLo, sHi := lo-base, hi-base
				if sLo < 0 {
					sLo = 0
				}
				if sHi > in.N {
					sHi = in.N
				}
				if sLo < sHi {
					tok := t.LoadRun(&in.Tup.Buffer, in.Tup.Off(sLo), 8, sHi-sLo, 0)
					copy(stage.D[base+sLo:base+sHi], in.Tup.D[sLo:sHi])
					lines := int((int64(sHi-sLo)*8 + 63) / 64)
					t.StoreLinesNT(&stage.Buffer, stage.Off(base+sLo), lines, 0, tok)
				}
				base += in.N
			}
		})
		srcIns = []Input{{Tup: stage, N: n}}
	}

	// --- Recursive partitioning: one hash-digit window per pass ---
	// Pass 1 is cooperative (all threads histogram and scatter slices of
	// the whole input); deeper passes refine the previous level's
	// partitions round-robin, each by one thread.
	start := []int{0, n}
	var parts *mem.U64Buf
	shift := uint(0)
	for pass, bk := range passes {
		fan := 1 << bk
		p := len(start) - 1
		dst := bufs[pass&1]
		if pass == 0 {
			hist := env.Space.AllocU32(fmt.Sprintf("agg.h%d", pass+1), T*fan, stageReg)
			cur := env.Space.AllocU32(fmt.Sprintf("agg.c%d", pass+1), T*fan, stageReg)
			g.Phase(fmt.Sprintf("Agg.Hist%d", pass+1), func(t *engine.Thread, id int) {
				lo, hi := exec.Chunk(n, T, id)
				forSegments(srcIns, lo, hi, func(seg Input, sLo, sHi int) {
					histSeg(t, seg.Tup, sLo, sHi, hist, id*fan, opt.Sel, shift, bk)
				})
			})
			next := make([]int, fan+1)
			g.Phase(fmt.Sprintf("Agg.Part%d", pass+1), func(t *engine.Thread, id int) {
				// Cooperative prefix: per partition, one strided gather of
				// the T per-thread counts, then the thread's own cursor
				// store (the Kim et al. scheme the regular RunOn uses).
				offs := make([]int64, T)
				base := 0
				for p2 := 0; p2 < fan; p2++ {
					for tt := 0; tt < T; tt++ {
						offs[tt] = hist.Off(tt*fan + p2)
					}
					t.LoadGather(&hist.Buffer, 4, offs, nil, nil)
					cum := base
					for tt := 0; tt < T; tt++ {
						if tt == id {
							engine.StoreU32(t, cur, id*fan+p2, uint32(cum), 0, 0)
						}
						cum += int(hist.D[tt*fan+p2])
					}
					if id == 0 {
						next[p2] = base
					}
					base = cum
				}
				if id == 0 {
					next[fan] = base
				}
				lo, hi := exec.Chunk(n, T, id)
				forSegments(srcIns, lo, hi, func(seg Input, sLo, sHi int) {
					scatterSeg(t, seg.Tup, sLo, sHi, dst, cur, id*fan, opt.Sel, shift, bk)
				})
			})
			start = next
		} else {
			hist := env.Space.AllocU32(fmt.Sprintf("agg.h%d", pass+1), p*fan, stageReg)
			cur := env.Space.AllocU32(fmt.Sprintf("agg.c%d", pass+1), p*fan, stageReg)
			src := parts
			prev := start
			next := make([]int, p*fan+1)
			g.Phase(fmt.Sprintf("Agg.Hist%d", pass+1), func(t *engine.Thread, id int) {
				for pp := id; pp < p; pp += T {
					histSeg(t, src, prev[pp], prev[pp+1], hist, pp*fan, opt.Sel, shift, bk)
				}
			})
			g.Phase(fmt.Sprintf("Agg.Part%d", pass+1), func(t *engine.Thread, id int) {
				for pp := id; pp < p; pp += T {
					// Local prefix over the partition's histogram row:
					// batched sequential read, then the cursor writes.
					tok := t.LoadRun(&hist.Buffer, hist.Off(pp*fan), 4, fan, 0)
					cum := uint32(prev[pp])
					for j := 0; j < fan; j++ {
						v := hist.D[pp*fan+j]
						cur.D[pp*fan+j] = cum
						next[pp*fan+j] = int(cum)
						cum += v
					}
					t.StoreRun(&cur.Buffer, cur.Off(pp*fan), 4, fan, 0, engine.After(tok, 1))
					scatterSeg(t, src, prev[pp], prev[pp+1], dst, cur, pp*fan, opt.Sel, shift, bk)
				}
			})
			next[p*fan] = prev[p]
			start = next
		}
		parts = dst
		shift += bk
	}
	P := len(start) - 1
	pBits := shift

	// --- Per-partition in-cache aggregation + emission ---
	reg := env.DataRegion()
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU64("agg.out", EntryWords*max(n, 1), reg)
	}
	res := &Result{Rows: n, Out: out, PartStart: start, PartGroups: make([]int, P)}
	maxPart := 0
	for p := 0; p < P; p++ {
		if c := start[p+1] - start[p]; c > maxPart {
			maxPart = c
		}
	}
	workers := make([]*worker, T)
	for i := range workers {
		workers[i] = newWorker(env, maxPart)
	}
	g.Phase("Agg.Build", func(t *engine.Thread, id int) {
		w := workers[id]
		for p := id; p < P; p += T {
			nG := w.aggregatePartition(t, parts, start[p], start[p+1], opt.Sel, pBits)
			w.emit(t, out, start[p], nG)
			res.PartGroups[p] = nG
		}
	})

	for _, gp := range res.PartGroups {
		res.Groups += gp
	}
	res.Check = checksum(out, res.PartStart, res.PartGroups)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}

// DirectRun executes the naive single-table group-by under env.
func DirectRun(env *core.Env, ins []Input, opt Options) *Result {
	return DirectRunOn(env, env.NewGroup(1), ins, opt)
}

// DirectRunOn executes the naive group-by on the group's first thread:
// every segment streams through one full-domain hash table sized at the
// input row count, exactly the operator shape whose random accesses
// collapse under EPC oversubscription. Options.Threads is ignored — the
// baseline is deliberately single-threaded.
func DirectRunOn(env *core.Env, g *exec.Group, ins []Input, opt Options) *Result {
	mark := g.Mark()
	n := 0
	for _, in := range ins {
		n += in.N
	}
	reg := env.DataRegion()
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU64("agg.out", EntryWords*max(n, 1), reg)
	}
	w := newWorker(env, max(n, 1))
	nb := nextPow2(max(n, 1))
	if nb < 16 {
		nb = 16
	}
	bBits := log2(nb)
	res := &Result{Rows: n, Out: out}
	g.Phase("Agg.Direct", func(t *engine.Thread, id int) {
		if id != 0 {
			return
		}
		w.gen++
		var nG uint32
		for _, in := range ins {
			nG = w.aggregateRun(t, in.Tup, 0, in.N, opt.Sel, 0, bBits, nG)
		}
		w.emit(t, out, 0, int(nG))
		res.Groups = int(nG)
	})
	res.PartStart = []int{0, res.Groups}
	res.PartGroups = []int{res.Groups}
	res.Check = checksum(out, res.PartStart, res.PartGroups)
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}
