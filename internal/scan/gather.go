package scan

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rng"
)

// The gather stage is the data-dependent second half of a filter→gather
// query plan: a row-id scan (Options.RowIDs) produces the qualifying row
// indexes, and Gather then fetches another column's values at exactly
// those rows. Each fetch address comes from a just-loaded row id, so the
// access pattern is the paper's random-access regime (Section 4.1, Fig 5)
// at query granularity — the workload class the engine's LoadGather API
// batches.

// gatherBlock is the number of row ids gathered per engine batch: the
// id reads are one sequential run, the value fetches one LoadGather, the
// result writes one sequential scatter.
const gatherBlock = 64

// GatherOptions configures a gather run.
type GatherOptions struct {
	Threads int
	// Out, when non-nil, is the pre-allocated result buffer (n bytes).
	Out *mem.U8Buf
}

// GatherResult reports a completed gather.
type GatherResult struct {
	WallCycles uint64
	Bytes      int64 // ids read + values fetched + values written
	Sum        uint64
	Phases     []exec.PhaseStats
	// Stats aggregates engine counters over the gather phase.
	Stats engine.Stats
	// Out holds the gathered values, out[i] = col[ids[i]].
	Out *mem.U8Buf
}

// Gather fetches col[ids[i]] for i in [0, n) into an output column and
// returns the value checksum. ids entries must be valid row indexes of
// col (a row-id scan result, optionally shuffled).
func Gather(env *core.Env, col *mem.U8Buf, ids *mem.U64Buf, n int, opt GatherOptions) *GatherResult {
	T := opt.Threads
	if T < 1 {
		T = 1
	}
	return GatherOn(env, env.NewGroup(T), col, ids, n, opt)
}

// GatherOn executes the gather on an existing thread group (pipeline
// stage composition; see RunOn). Options.Threads is ignored.
func GatherOn(env *core.Env, g *exec.Group, col *mem.U8Buf, ids *mem.U64Buf, n int, opt GatherOptions) *GatherResult {
	T := len(g.Threads)
	mark := g.Mark()
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU8("scan.gathered", n, env.DataRegion())
	}
	sums := make([]uint64, T)
	g.Phase("Gather", func(t *engine.Thread, id int) {
		lo := id * (n / T)
		hi := lo + n/T
		if id == T-1 {
			hi = n
		}
		var idToks, deps, valToks [gatherBlock]engine.Tok
		var offs, outOffs [gatherBlock]int64
		var local uint64
		for pos := lo; pos < hi; {
			blk := hi - pos
			if blk > gatherBlock {
				blk = gatherBlock
			}
			// Sequential id reads; every gather address derives from its
			// id (one cycle of address arithmetic after the load).
			t.LoadRunToks(&ids.Buffer, ids.Off(pos), 8, blk, 0, idToks[:blk])
			for j := 0; j < blk; j++ {
				row := ids.D[pos+j]
				offs[j] = int64(row)
				deps[j] = engine.After(idToks[j], 1)
				outOffs[j] = int64(pos + j)
				v := col.D[row]
				out.D[pos+j] = v
				local += uint64(v)
			}
			t.LoadGather(&col.Buffer, 1, offs[:blk], deps[:blk], valToks[:blk])
			t.Work(uint64(blk)) // accumulate/pack the gathered lanes
			// Sequential result writes at the output cursor, data from
			// the gathered values.
			t.StoreScatter(&out.Buffer, 1, outOffs[:blk], nil, valToks[:blk])
			pos += blk
		}
		sums[id] = local
	})
	res := &GatherResult{Out: out}
	for _, s := range sums {
		res.Sum += s
	}
	res.Bytes = int64(n) * 10 // 8 id bytes + 1 fetched + 1 written
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}

// TupleGatherResult reports a completed tuple gather.
type TupleGatherResult struct {
	WallCycles uint64
	Rows       int    // tuples materialized (sum of the run counts)
	Sum        uint64 // wrapping sum of the gathered 8-byte tuples
	Phases     []exec.PhaseStats
	// Stats aggregates engine counters over the gather phase.
	Stats engine.Stats
	// Out holds the gathered tuples, densely packed in run order.
	Out *mem.U64Buf
}

// GatherU64On materializes the 8-byte tuples tups[ids[i]] into out —
// the filter→gather stage of a query plan fetching the qualifying fact
// rows for a downstream join or aggregation. The filter output arrives
// as per-thread id runs (scan.Result.IDRuns): thread i gathers run i,
// writing its tuples at the run's prefix-sum offset, so out is densely
// packed in run order. The access structure mirrors Gather (sequential
// id reads, one LoadGather of the data-dependent tuple fetches,
// sequential result writes) at tuple granularity. out must hold at
// least the summed run counts.
func GatherU64On(env *core.Env, g *exec.Group, tups *mem.U64Buf, ids *mem.U64Buf, runs []IDRun, out *mem.U64Buf) *TupleGatherResult {
	T := len(g.Threads)
	mark := g.Mark()
	outBase := make([]int, len(runs)+1)
	for i, r := range runs {
		outBase[i+1] = outBase[i] + r.Count
	}
	sums := make([]uint64, T)
	g.Phase("GatherTup", func(t *engine.Thread, id int) {
		var idToks, deps, valToks [gatherBlock]engine.Tok
		var offs [gatherBlock]int64
		var local uint64
		// Thread i owns run i; with more runs than threads (a scan from a
		// wider group) the surplus runs are claimed round-robin so every
		// run is gathered.
		for r := id; r < len(runs); r += T {
			run := runs[r]
			for done := 0; done < run.Count; {
				blk := run.Count - done
				if blk > gatherBlock {
					blk = gatherBlock
				}
				pos := run.Start + done
				outPos := outBase[r] + done
				// Sequential id reads; every tuple address derives from
				// its id (one cycle of address arithmetic after the load).
				t.LoadRunToks(&ids.Buffer, ids.Off(pos), 8, blk, 0, idToks[:blk])
				for j := 0; j < blk; j++ {
					row := ids.D[pos+j]
					offs[j] = tups.Off(int(row))
					deps[j] = engine.After(idToks[j], 1)
					v := tups.D[row]
					out.D[outPos+j] = v
					local += v
				}
				t.LoadGather(&tups.Buffer, 8, offs[:blk], deps[:blk], valToks[:blk])
				t.Work(uint64(blk)) // pack the gathered lanes
				// Sequential 8-byte result writes at the output cursor,
				// data from the gathered tuples (last lane's token stands
				// for the batch: the run API takes one data dependency).
				t.StoreRun(&out.Buffer, out.Off(outPos), 8, blk, 0, valToks[blk-1])
				done += blk
			}
		}
		sums[id] = local
	})
	res := &TupleGatherResult{Out: out, Rows: outBase[len(runs)]}
	for _, s := range sums {
		res.Sum += s
	}
	res.Phases, res.Stats, res.WallCycles = g.Since(mark)
	return res
}

// ShuffleIDs permutes ids[:n] deterministically (Fisher–Yates). Untimed
// setup: it turns the ascending row-id scan output into the unclustered
// id list of, e.g., a secondary-index lookup, which is what makes the
// gather a true random-access workload.
func ShuffleIDs(ids *mem.U64Buf, n int, seed uint64) {
	r := rng.NewXorShift(rng.Mix(seed))
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		ids.D[i], ids.D[j] = ids.D[j], ids.D[i]
	}
}

// ReferenceGatherSum is the oracle: the checksum of col at ids[:n].
func ReferenceGatherSum(col *mem.U8Buf, ids *mem.U64Buf, n int) uint64 {
	var sum uint64
	for i := 0; i < n; i++ {
		sum += uint64(col.D[ids.D[i]])
	}
	return sum
}
