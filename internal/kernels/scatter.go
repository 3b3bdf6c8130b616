package kernels

import (
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
)

// ScatterConfig configures a radix partition copy (the paper's "Copy"
// phases in Fig 6).
type ScatterConfig struct {
	Shift  uint
	Bits   uint
	Unroll int // 1 = scalar
	// WC, when non-nil, enables software write-combining for the
	// unrolled variant: tuples stage into a per-partition cache-line
	// buffer (one line per partition inside this arena) and reach the
	// partition as full 64-byte stores, with the partition cursor
	// maintained at flush granularity. This is the classic radix-copy
	// optimization of the Kim/Balkesen lineage that TEEBench's RHO uses:
	// the scattered stream becomes line-granular, and the cursor
	// read-modify-write leaves the per-tuple path. The arena needs
	// 8 words (one line) per partition.
	WC *mem.U64Buf
}

// Scatter copies tuples data[lo:hi] to their partitions in out, advancing
// the per-partition write cursors cur[curBase+p]. Cursor values are byte
// element indexes into out. This is the copy phase of radix partitioning:
// the destination address of every store is derived from the just-loaded
// key via the cursor — a dependent load/store pattern the paper shows can
// be improved but not fully cured by unrolling (Section 4.2, Fig 6).
func Scatter(t *engine.Thread, data *mem.U64Buf, lo, hi int, out *mem.U64Buf, cur *mem.U32Buf, curBase int, cfg ScatterConfig) {
	if cfg.Unroll <= 1 {
		scatterScalar(t, data, lo, hi, out, cur, curBase, cfg)
		return
	}
	if cfg.WC != nil {
		scatterWC(t, data, lo, hi, out, cur, curBase, cfg)
		return
	}
	scatterUnrolled(t, data, lo, hi, out, cur, curBase, cfg)
}

func scatterScalar(t *engine.Thread, data *mem.U64Buf, lo, hi int, out *mem.U64Buf, cur *mem.U32Buf, curBase int, cfg ScatterConfig) {
	mask := uint32(1)<<cfg.Bits - 1
	for i := lo; i < hi; i++ {
		tup, tok := engine.LoadU64(t, data, i, 0)
		p := int((mem.TupleKey(tup) >> cfg.Shift) & mask)
		pTok := engine.After(tok, keyCompute)
		pos, posTok := engine.LoadU32(t, cur, curBase+p, pTok)
		// The tuple store's address comes from the cursor load.
		engine.StoreU64(t, out, int(pos), tup, posTok, tok)
		engine.StoreU32(t, cur, curBase+p, pos+1, pTok, engine.After(posTok, 1))
	}
}

// scatterUnrolled groups the key loads and cursor reads of a batch before
// dispatching the tuple stores, shortening (but, unlike the histogram,
// not eliminating) the store→load dependences: the cursor increments are
// themselves loads of to-be-stored positions. The unrolled form bumps
// each cursor right after reading it (one read-modify-write scatter, so
// the cursor line is probed once), then dispatches the tuple stores to
// the just-loaded positions as one scatter group.
func scatterUnrolled(t *engine.Thread, data *mem.U64Buf, lo, hi int, out *mem.U64Buf, cur *mem.U32Buf, curBase int, cfg ScatterConfig) {
	u := cfg.Unroll
	mask := uint32(1)<<cfg.Bits - 1
	curOffs := make([]int64, u)
	outOffs := make([]int64, u)
	pToks := make([]engine.Tok, u)
	tToks := make([]engine.Tok, u)
	posToks := make([]engine.Tok, u)

	i := lo
	for ; i+u <= hi; i += u {
		// Load group: one batched run of u consecutive tuple loads.
		t.LoadRunToks(&data.Buffer, data.Off(i), 8, u, 0, tToks)
		for j := 0; j < u; j++ {
			tup := data.D[i+j]
			p := int((mem.TupleKey(tup) >> cfg.Shift) & mask)
			pToks[j] = engine.After(tToks[j], keyCompute)
			curOffs[j] = cur.Off(curBase + p)
			pos := cur.D[curBase+p]
			cur.D[curBase+p] = pos + 1
			outOffs[j] = out.Off(int(pos))
			out.D[pos] = tup
		}
		// Cursor read + bump pairs, then the tuple stores whose addresses
		// came from the cursor loads and whose data are the loaded keys.
		t.RMWScatter(&cur.Buffer, 4, curOffs, pToks, posToks)
		t.StoreScatter(&out.Buffer, 8, outOffs, posToks, tToks)
	}
	tail := cfg
	tail.Unroll = 1
	scatterScalar(t, data, i, hi, out, cur, curBase, tail)
}

// wcLine is the tuple capacity of one write-combining buffer line.
const wcLine = 8

// scatterWC is the software write-combining copy: each tuple is staged
// into its partition's line in the WC arena (a data-dependent store, but
// onto a small L1-resident buffer), and whenever a partition's staging
// line reaches an output-line boundary it is flushed with one 64-byte
// store. The first flush of a partition is shortened so that all later
// flushes are line-aligned, as real SWWC implementations do. Cursors are
// read and written once per flush, not once per tuple. Real tuple
// movement is unchanged — values go directly to out — only the charged
// access pattern differs.
func scatterWC(t *engine.Thread, data *mem.U64Buf, lo, hi int, out *mem.U64Buf, cur *mem.U32Buf, curBase int, cfg ScatterConfig) {
	u := cfg.Unroll
	mask := uint32(1)<<cfg.Bits - 1
	nPart := 1 << cfg.Bits
	wcOffs := make([]int64, u)
	pToks := make([]engine.Tok, u)
	tToks := make([]engine.Tok, u)
	// staged[p] counts tuples in p's WC line; flushAt[p] is the fill
	// level that completes the current (possibly shortened) line.
	staged := make([]int, nPart)
	flushAt := make([]int, nPart)
	wcTok := make([]engine.Tok, nPart) // last staging store of p's line
	for p := 0; p < nPart; p++ {
		flushAt[p] = -1 // computed on first touch from the cursor phase
	}

	flushPart := func(p int) {
		// Cursor read-modify-write at flush granularity, then the full
		// line leaves with a non-temporal store (movntdq) whose address
		// derives from the cursor value — partition output streams to
		// DRAM without polluting the caches, as in real SWWC radix
		// copies.
		pos := cur.D[curBase+p]
		posTok := t.Load(&cur.Buffer, cur.Off(curBase+p), 4, 0)
		t.Store(&cur.Buffer, cur.Off(curBase+p), 4, 0, engine.After(posTok, 1))
		cur.D[curBase+p] = pos + uint32(staged[p])
		lineOff := (out.Off(int(pos)) + int64(staged[p])*8 - 1) &^ 63
		t.StoreLinesNT(&out.Buffer, lineOff, 1, posTok, wcTok[p])
		staged[p] = 0
		flushAt[p] = wcLine
	}

	lineToks := make([]engine.Tok, (u+AVXLanes-1)/AVXLanes)
	i := lo
	for ; i < hi; i += u {
		n := hi - i
		if n > u {
			n = u
		}
		// Load group — one vector (line-granular) load per 8 tuples, as
		// the AVX histogram charges its key loads — then the staging
		// stores: addresses depend on the just-computed partition, data
		// on the loaded tuples. A partition whose line fills mid-batch
		// flushes in place — the pending staging stores are dispatched
		// first so the charged order stays stage…stage, flush, stage….
		if n == u && n%AVXLanes == 0 {
			t.LoadRunToks(&data.Buffer, data.Off(i), 64, n/AVXLanes, 0, lineToks)
			for j := 0; j < n; j++ {
				tToks[j] = engine.After(lineToks[j/AVXLanes], 1) // lane extract
			}
		} else {
			t.LoadRunToks(&data.Buffer, data.Off(i), 8, n, 0, tToks[:n])
		}
		segStart := 0
		for j := 0; j < n; j++ {
			tup := data.D[i+j]
			p := int((mem.TupleKey(tup) >> cfg.Shift) & mask)
			pToks[j] = engine.After(tToks[j], keyCompute)
			if flushAt[p] < 0 {
				// First tuple for p: align the first flush to the output
				// line boundary the partition cursor sits in.
				flushAt[p] = wcLine - int(cur.D[curBase+p])%wcLine
			}
			wcOffs[j] = int64(p)*64 + int64(staged[p])*8
			wcTok[p] = tToks[j]
			pos := cur.D[curBase+p] + uint32(staged[p])
			out.D[pos] = tup
			if staged[p]++; staged[p] == flushAt[p] {
				t.StoreScatter(&cfg.WC.Buffer, 8, wcOffs[segStart:j+1], pToks[segStart:j+1], tToks[segStart:j+1])
				segStart = j + 1
				flushPart(p)
			}
		}
		if segStart < n {
			t.StoreScatter(&cfg.WC.Buffer, 8, wcOffs[segStart:n], pToks[segStart:n], tToks[segStart:n])
		}
	}
	// Drain: partially filled lines go out with one store each.
	for p := 0; p < nPart; p++ {
		if staged[p] > 0 {
			flushPart(p)
		}
	}
}
