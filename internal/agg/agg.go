// Package agg implements the aggregation operator of the query
// pipelines: a partitioned hash group-by with COUNT/SUM/MIN/MAX
// aggregates over the paper's 8-byte <key, payload> tuples.
//
// The operator is structured like the paper's radix joins — barrier
// phases on an exec.Group — because group-by shares their
// micro-architectural profile: a histogram pass (data-dependent
// read-modify-writes), a partition scatter (dependent cursor
// load/stores), and an in-cache build whose hash-table updates are the
// same hash-derived random accesses the SSB mitigation serializes inside
// enclaves. All hot loops run on the engine's batched bulk APIs
// (LoadRunToks, LoadGather, RMWScatter, StoreScatter, StoreRun); in
// reference mode every call decomposes into the per-op sequence, and the
// golden tests assert bit-identical simulated statistics between both
// engine paths under all four execution settings.
//
// Group results land in a flat output array at deterministic per-
// partition offsets, so multi-threaded runs are reproducible enough for
// exact golden-stats gating (threads own partitions round-robin, as in
// RHO's join phase).
package agg

import (
	"math/bits"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
)

// Sel selects which 32-bit half of a tuple is the group key; the other
// half is the aggregated value. Join outputs pack <probe payload, build
// payload>, so aggregating a join result by the dimension attribute is
// ByPayload; aggregating a fact table by its foreign key is ByKey.
type Sel int

const (
	// ByKey groups on the tuple key and aggregates the payload.
	ByKey Sel = iota
	// ByPayload groups on the tuple payload and aggregates the key.
	ByPayload
)

// Group returns the group key of a tuple under the selector.
func (s Sel) Group(tup uint64) uint32 {
	if s == ByPayload {
		return mem.TuplePayload(tup)
	}
	return mem.TupleKey(tup)
}

// Value returns the aggregated value of a tuple under the selector.
func (s Sel) Value(tup uint64) uint32 {
	if s == ByPayload {
		return mem.TupleKey(tup)
	}
	return mem.TuplePayload(tup)
}

// Input is one contiguous run of input tuples. Pipelines hand the
// operator several segments (e.g. the per-thread materialized outputs of
// a join) that are aggregated as one logical table.
type Input struct {
	Tup *mem.U64Buf
	N   int
}

// EntryWords is the output entry width: key, count, sum, min|max<<32.
const EntryWords = 4

// EntryBytes is the byte size of one group entry (half a cache line).
const EntryBytes = EntryWords * 8

// hashKey is the group-key hash (the multiplicative hash the joins use).
func hashKey(k uint32) uint32 { return k * 2654435761 }

// hashCost is the dataflow latency from key to hash/bucket index.
const hashCost = 2

// aggUnroll is the batch width of the unrolled kernels: one vector
// (line-granular) load covers 8 tuples.
const aggUnroll = 8

// Options configures a group-by run.
type Options struct {
	// Threads is the number of worker threads (Run only; RunOn uses the
	// group's).
	Threads int
	// Sel picks the group-key half of the tuple (default ByKey).
	Sel Sel
	// Groups is the expected number of distinct groups, used to size the
	// radix partitions (0: assume every row is its own group).
	Groups int
	// PartBits overrides the automatic partition-count choice (0 = auto).
	PartBits int
	// Out, when non-nil, is the pre-allocated output entry array
	// (EntryWords per input row, worst case); Parts the pre-allocated
	// partition intermediate (one word per row). Reused across repeated
	// benchmark runs so re-runs see identical simulated addresses.
	Out   *mem.U64Buf
	Parts *mem.U64Buf
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// Result reports a completed group-by.
type Result struct {
	WallCycles uint64
	Rows       int // input rows aggregated
	Groups     int // distinct groups found
	// Check is an FNV-1a checksum over the emitted group entries in
	// partition order — the deterministic equivalence value benchmarks
	// and golden gates compare.
	Check  uint64
	Phases []exec.PhaseStats
	Stats  engine.Stats
	// Out holds the group entries: partition p's groups occupy entry
	// slots [PartStart[p], PartStart[p]+PartGroups[p]), each EntryWords
	// words: key, count, sum, min|max<<32.
	Out        *mem.U64Buf
	PartStart  []int
	PartGroups []int
}

// ForEach calls f for every emitted group in partition order.
func (r *Result) ForEach(f func(key uint32, count, sum uint64, min, max uint32)) {
	for p, n := range r.PartGroups {
		for g := 0; g < n; g++ {
			e := (r.PartStart[p] + g) * EntryWords
			w0, w3 := r.Out.D[e], r.Out.D[e+3]
			f(uint32(w0), r.Out.D[e+1], r.Out.D[e+2], uint32(w3), uint32(w3>>32))
		}
	}
}

// partBits picks the partition count so that the expected per-partition
// group table fits comfortably in L2, mirroring RHO's RadixBits policy.
func partBits(env *core.Env, groups int) uint {
	target := env.Plat.L2.SizeBytes / 4
	if target < 1024 {
		target = 1024
	}
	var b uint = 1
	for int64(groups)*EntryBytes>>b > target && b < 12 {
		b++
	}
	return b
}

// nextPow2 returns the next power of two >= n (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// log2 returns floor(log2(n)) for a power-of-two n.
func log2(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n)) - 1)
}

// forSegments calls f for every segment sub-range covered by the global
// row range [lo, hi) of the concatenated inputs.
func forSegments(ins []Input, lo, hi int, f func(seg Input, sLo, sHi int)) {
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
			f(in, sLo, sHi)
		}
		base += in.N
	}
}

// Run executes the group-by over the concatenated inputs under env.
func Run(env *core.Env, ins []Input, opt Options) *Result {
	return RunOn(env, env.NewGroup(opt.threads()), ins, opt)
}

// RunOn executes the group-by on an existing thread group (pipeline
// stage composition: simulated cache/TLB state carries over from the
// upstream operator). Options.Threads is ignored.
func RunOn(env *core.Env, g *exec.Group, ins []Input, opt Options) *Result {
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
	pBits := uint(opt.PartBits)
	if opt.PartBits <= 0 {
		pBits = partBits(env, groupsHint)
	}
	P := 1 << pBits
	reg := env.DataRegion()

	parts := opt.Parts
	if parts == nil {
		parts = env.Space.AllocU64("agg.parts", max(n, 1), reg)
	}
	out := opt.Out
	if out == nil {
		out = env.Space.AllocU64("agg.out", EntryWords*max(n, 1), reg)
	}
	hist := env.Space.AllocU32("agg.hist", T*P, reg)
	cur := env.Space.AllocU32("agg.cur", T*P, reg)
	res := &Result{Rows: n, Out: out, PartStart: make([]int, P+1), PartGroups: make([]int, P)}

	// --- Phase 1: per-thread partition histograms ---
	g.Phase("Agg.Hist", func(t *engine.Thread, id int) {
		lo, hi := exec.Chunk(n, T, id)
		forSegments(ins, lo, hi, func(seg Input, sLo, sHi int) {
			histSeg(t, seg.Tup, sLo, sHi, hist, id*P, opt.Sel, 0, pBits)
		})
	})

	// --- Phase 2: cursor derivation + partition scatter ---
	partCnt := make([]int, P)
	g.Phase("Agg.Part", func(t *engine.Thread, id int) {
		// Each thread derives its own cursor column from the shared
		// histogram matrix: per partition, one strided gather of the T
		// per-thread counts, then the thread's own cursor store (the
		// cooperative prefix sum of the Kim et al. partitioning).
		offs := make([]int64, T)
		base := 0
		for p := 0; p < P; p++ {
			for tt := 0; tt < T; tt++ {
				offs[tt] = hist.Off(tt*P + p)
			}
			t.LoadGather(&hist.Buffer, 4, offs, nil, nil)
			cum := base
			for tt := 0; tt < T; tt++ {
				if tt == id {
					engine.StoreU32(t, cur, id*P+p, uint32(cum), 0, 0)
				}
				cum += int(hist.D[tt*P+p])
			}
			if id == 0 {
				res.PartStart[p] = base
				partCnt[p] = cum - base
			}
			base = cum
		}
		lo, hi := exec.Chunk(n, T, id)
		forSegments(ins, lo, hi, func(seg Input, sLo, sHi int) {
			scatterSeg(t, seg.Tup, sLo, sHi, parts, cur, id*P, opt.Sel, 0, pBits)
		})
	})
	res.PartStart[P] = n

	// --- Phase 3: per-partition in-cache aggregation + emission ---
	maxPart := 0
	for _, c := range partCnt {
		if c > maxPart {
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
			lo := res.PartStart[p]
			nG := w.aggregatePartition(t, parts, lo, lo+partCnt[p], opt.Sel, pBits)
			w.emit(t, out, lo, nG)
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

// FNVOffset64 is the FNV-1a 64-bit offset basis — the seed of the
// deterministic check values the benchmarks and golden gates compare.
const FNVOffset64 uint64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// Mix folds the 8 bytes of v into the FNV-1a accumulator h. Shared by
// the aggregate checksum and the pipeline check values in
// internal/query, so both follow one hash discipline.
func Mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// checksum is FNV-1a over the emitted entries in partition order.
func checksum(out *mem.U64Buf, start, groups []int) uint64 {
	h := FNVOffset64
	for p, nG := range groups {
		for g := 0; g < nG; g++ {
			e := (start[p] + g) * EntryWords
			h = Mix(h, out.D[e])
			h = Mix(h, out.D[e+1])
			h = Mix(h, out.D[e+2])
			h = Mix(h, out.D[e+3])
		}
	}
	return h
}

// GroupAgg is the aggregate state of one group (oracle representation).
type GroupAgg struct {
	Count, Sum uint64
	Min, Max   uint32
}

// Reference computes the group aggregates with a plain Go map,
// independent of any simulated machinery. Used as the test oracle.
func Reference(ins []Input, sel Sel) map[uint32]GroupAgg {
	m := make(map[uint32]GroupAgg)
	for _, in := range ins {
		for i := 0; i < in.N; i++ {
			tup := in.Tup.D[i]
			k, v := sel.Group(tup), sel.Value(tup)
			a, ok := m[k]
			if !ok {
				a = GroupAgg{Min: v, Max: v}
			} else {
				if v < a.Min {
					a.Min = v
				}
				if v > a.Max {
					a.Max = v
				}
			}
			a.Count++
			a.Sum += uint64(v)
			m[k] = a
		}
	}
	return m
}
