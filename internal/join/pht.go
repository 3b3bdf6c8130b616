package join

import (
	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/exec"
	"sgxbench/internal/mem"
	"sgxbench/internal/rel"
)

// PHT is the Parallel Hash Table join (Blanas et al. [5]): all threads
// build one shared hash table over the smaller input, latching buckets,
// then probe it in parallel. It performs no partitioning, so with tables
// exceeding the LLC every bucket access is a random DRAM access — the
// behaviour Fig 4 dissects.
//
// The bucket layout follows TEEBench: one cache line per bucket with a
// small count, a latch, inline tuple slots and an overflow chain. The
// insert pattern "load count, store tuple at bucket[count]" makes the
// store address depend on a just-loaded value; under the SSB mitigation
// that load-to-store-address chain blocks all younger loads, which is why
// the build phase slows down far more (up to ~9x) than the ~3x the pure
// random-access overhead would explain (Sections 4.1-4.2).
type PHT struct{}

// NewPHT returns the PHT algorithm.
func NewPHT() *PHT { return &PHT{} }

// Name returns the paper's name for the algorithm.
func (*PHT) Name() string { return "PHT" }

// bucketBytes is the size of one bucket: two cache lines — a header line
// (latch, count, first slots) and a slot line. A probe chases the header
// line and, only when the bucket has spilled past it, the dependent slot
// line — with foreign-key build sides most buckets hold a couple of
// tuples, so the common probe is a single random access.
const bucketBytes = 128

// inlineSlots is the number of tuples stored inline before overflowing.
const inlineSlots = 8

// hdrSlots is the number of inline slots that share the header line
// (latch + count + 6 tuples); slots beyond it live on the bucket's
// second line.
const hdrSlots = 6

// bucketStride is the per-bucket word count of the flat backing array:
// the count word followed by the inline slots, mirroring the simulated
// bucket layout so one probe touches one host cache region instead of
// chasing per-bucket slice headers.
const bucketStride = inlineSlots + 1

// phtTable is the shared hash table. Real values live in the flat
// per-bucket array; timing flows through the line-sized bucket buffer
// and the overflow arena.
//
// The table's contents and every insert's slot index are precomputed in
// input order by preclaim (a partitioned claim pass on the host), so
// the timed build phase only issues simulated accesses — worker threads
// never race on shared host state and the simulated numbers are
// bit-identical at every thread count, which is what lets q3 run
// multi-threaded under the golden gate.
type phtTable struct {
	bits     uint
	buckets  mem.Buffer       // nBuckets x bucketBytes (counts + inline slots)
	overflow mem.Buffer       // overflow entry arena (timing only)
	flat     []uint64         // bucketStride words per bucket: count, slots
	over     map[int][]uint64 // tuples beyond inlineSlots, per bucket
	slots    []int32          // per build-tuple inline slot index (input-order claim)
	ovOrd    []int32          // per build-tuple overflow ordinal; -1 if inline
}

func newPHTTable(env *core.Env, nBuild int) *phtTable {
	nBuckets := nextPow2((nBuild + 1) / 2)
	ht := &phtTable{
		bits:     log2(nBuckets),
		buckets:  env.Space.Raw("pht.buckets", int64(nBuckets)*bucketBytes, env.DataRegion()),
		overflow: env.Space.Raw("pht.overflow", int64(nBuild+1)*16, env.DataRegion()),
		flat:     make([]uint64, nBuckets*bucketStride),
		over:     make(map[int][]uint64),
	}
	return ht
}

func (h *phtTable) bucketOf(key uint32) int { return int(hashIdx(key, h.bits)) }

// preclaim walks the build input in input order and claims each tuple's
// slot: the bucket fill cursor gives the inline slot index, spills past
// inlineSlots get a global overflow ordinal, and the real contents are
// written here, once, on the host. With the claim order fixed by input
// order instead of goroutine arrival, the simulated store addresses of
// the build phase are identical whether one thread or many execute it —
// and single-threaded they match the pre-claim-era numbers exactly.
func (h *phtTable) preclaim(build *rel.Relation) {
	n := build.N()
	h.slots = make([]int32, n)
	h.ovOrd = make([]int32, n)
	ov := 0
	for i := 0; i < n; i++ {
		tup := build.Tup.D[i]
		b := h.bucketOf(mem.TupleKey(tup))
		fb := b * bucketStride
		cnt := int(h.flat[fb])
		h.slots[i] = int32(cnt)
		if cnt < inlineSlots {
			h.flat[fb+1+cnt] = tup
			h.ovOrd[i] = -1
		} else {
			h.over[b] = append(h.over[b], tup)
			h.ovOrd[i] = int32(ov)
			ov++
		}
		h.flat[fb] = uint64(cnt + 1)
	}
}

// slotOff returns the simulated offset of inline slot cnt of the bucket
// at base: the first hdrSlots tuples share the header line, the rest live
// on the bucket's second line.
func slotOff(base int64, cnt int) int64 {
	if cnt < hdrSlots {
		return base + 8 + int64(cnt)*8
	}
	return base + 64 + int64(cnt-hdrSlots)*8
}

// overflowStores charges the arena append of one overflowing insert at
// its preclaimed global ordinal (the bucket-side chain-pointer store is
// issued by the caller). preclaim guarantees ord < nBuild and the arena
// holds nBuild+1 entries, so an out-of-range ordinal is a claim bug.
func (h *phtTable) overflowStores(t *engine.Thread, ord int, slotTok, keyTok engine.Tok) {
	off := int64(ord) * 16
	if off+16 > h.overflow.Size {
		panic("join: overflow ordinal past the preclaimed arena")
	}
	t.Store(&h.overflow, off, 8, slotTok, keyTok)
}

// insert charges build tuple i: latch the bucket, read its count, store
// the tuple at the (preclaimed) count-derived slot, bump the count.
func (h *phtTable) insert(t *engine.Thread, i int, tup uint64, keyTok engine.Tok) {
	b := h.bucketOf(mem.TupleKey(tup))
	hTok := engine.After(keyTok, hashCost)
	base := int64(b) * bucketBytes

	// Latch acquire (uncontended fast path: one CAS on the bucket line).
	latchTok := t.CAS(&h.buckets, base, hTok)
	// Count load: random access, address derived from the key's hash.
	cntTok := t.Load(&h.buckets, base, 4, latchTok)
	cnt := int(h.slots[i])
	slotTok := engine.After(cntTok, 1)
	if cnt < inlineSlots {
		// Tuple store at bucket[count]: store address depends on the
		// loaded count — the SSB-sensitive pattern. Slots beyond the
		// header line live on the bucket's second line.
		t.Store(&h.buckets, slotOff(base, cnt), 8, slotTok, keyTok)
	} else {
		// Overflow entry: append to the arena and link it.
		h.overflowStores(t, int(h.ovOrd[i]), slotTok, keyTok)
		t.Store(&h.buckets, base+8+int64(inlineSlots)*8, 8, slotTok, 0) // chain pointer
	}
	// Count update + latch release share the bucket line.
	t.Store(&h.buckets, base, 4, hTok, slotTok)
}

// phtBatch holds the reusable scratch vectors of the batched build and
// probe loops (one per worker thread).
type phtBatch struct {
	baseOffs  []int64
	hToks     []engine.Tok
	latchToks []engine.Tok
	cntToks   []engine.Tok
	slotToks  []engine.Tok
	sOffs     []int64
	sADeps    []engine.Tok
	sDDeps    []engine.Tok
	off0      []int64
	off1      []int64
	longDeps  []engine.Tok
	longToks  []engine.Tok
	longIdx   []int
	shortOffs []int64
	shortDeps []engine.Tok
	shortToks []engine.Tok
	shortIdx  []int
	scanToks  []engine.Tok
	bkts      []int32
}

func newPHTBatch(u int) *phtBatch {
	return &phtBatch{
		baseOffs:  make([]int64, u),
		hToks:     make([]engine.Tok, u),
		latchToks: make([]engine.Tok, u),
		cntToks:   make([]engine.Tok, u),
		slotToks:  make([]engine.Tok, u),
		sOffs:     make([]int64, u),
		sADeps:    make([]engine.Tok, u),
		sDDeps:    make([]engine.Tok, u),
		off0:      make([]int64, u),
		off1:      make([]int64, u),
		longDeps:  make([]engine.Tok, u),
		longToks:  make([]engine.Tok, u),
		longIdx:   make([]int, u),
		shortOffs: make([]int64, u),
		shortDeps: make([]engine.Tok, u),
		shortToks: make([]engine.Tok, u),
		shortIdx:  make([]int, u),
		scanToks:  make([]engine.Tok, u),
		bkts:      make([]int32, u),
	}
}

// insertBatch is the unroll + reorder build kernel over the batched
// APIs, charging build tuples [i0, i0+len(tups)): the batch's latch CAS
// + count loads are one CASLoad (each element's three micro-accesses
// share the bucket's header line), then the count-addressed tuple
// stores and the count/latch-release stores are dispatched as scatter
// groups.
func (h *phtTable) insertBatch(t *engine.Thread, i0 int, tups []uint64, keyToks []engine.Tok, sc *phtBatch) {
	u := len(tups)
	for j := 0; j < u; j++ {
		b := h.bucketOf(mem.TupleKey(tups[j]))
		sc.baseOffs[j] = int64(b) * bucketBytes
		sc.hToks[j] = engine.After(keyToks[j], hashCost)
	}
	t.CASLoad(&h.buckets, 4, sc.baseOffs[:u], sc.hToks[:u], sc.latchToks[:u], sc.cntToks[:u])
	nS := 0
	for j := 0; j < u; j++ {
		cnt := int(h.slots[i0+j])
		sc.slotToks[j] = engine.After(sc.cntToks[j], 1)
		if cnt < inlineSlots {
			sc.sOffs[nS] = slotOff(sc.baseOffs[j], cnt)
			sc.sADeps[nS] = sc.slotToks[j]
			sc.sDDeps[nS] = keyToks[j]
			nS++
		} else {
			h.overflowStores(t, int(h.ovOrd[i0+j]), sc.slotToks[j], keyToks[j])
			sc.sOffs[nS] = sc.baseOffs[j] + 8 + int64(inlineSlots)*8 // chain pointer
			sc.sADeps[nS] = sc.slotToks[j]
			sc.sDDeps[nS] = 0
			nS++
		}
	}
	t.StoreScatter(&h.buckets, 8, sc.sOffs[:nS], sc.sADeps[:nS], sc.sDDeps[:nS])
	// Count updates + latch releases.
	t.StoreScatter(&h.buckets, 4, sc.baseOffs[:u], sc.hToks[:u], sc.slotToks[:u])
}

// scanBucket compares the probe tuple against bucket b's contents
// (timing of the compares and overflow-chain hops; the header/slot-line
// loads were already charged and produced scanTok).
func (h *phtTable) scanBucket(t *engine.Thread, b int, tup uint64, scanTok engine.Tok, out *outWriter) (uint64, engine.Tok) {
	key := mem.TupleKey(tup)
	fb := b * bucketStride
	n := int(h.flat[fb])
	var ov []uint64
	if n > inlineSlots {
		ov = h.over[b]
	}
	var matches uint64
	for i := 0; i < n; i++ {
		var r uint64
		if i < inlineSlots {
			r = h.flat[fb+1+i]
		} else {
			r = ov[i-inlineSlots]
		}
		if i > 0 && i%inlineSlots == 0 {
			// Overflow chain: dependent load per spilled entry group.
			scanTok = t.Load(&h.overflow, int64(i%32)*16, 8, scanTok)
		}
		t.Work(1) // key compare
		if mem.TupleKey(r) == key {
			matches++
			if out != nil {
				out.append(t, mem.MakeTuple(mem.TuplePayload(tup), mem.TuplePayload(r)), scanTok)
			}
		}
	}
	return matches, scanTok
}

// probe returns the number of matches for key and appends output rows.
func (h *phtTable) probe(t *engine.Thread, tup uint64, keyTok engine.Tok, out *outWriter) (uint64, engine.Tok) {
	b := h.bucketOf(mem.TupleKey(tup))
	hTok := engine.After(keyTok, hashCost)
	base := int64(b) * bucketBytes
	// Header line, then the dependent slot line.
	hdrTok := t.Load(&h.buckets, base, 8, hTok)
	scanTok := t.Load(&h.buckets, base+64, 8, engine.After(hdrTok, 1))
	return h.scanBucket(t, b, tup, scanTok, out)
}

// probeBatch is the unroll + reorder probe kernel over the batched APIs.
// Besides grouping the key loads ahead of the bucket accesses, the
// optimized probe gates the slot-line access on the header's count: the
// header line arrives first anyway, so a bucket that fits its header
// line (the common case for foreign-key builds) costs one random access.
// Buckets that spilled past the header form one header→slot LoadChain,
// the rest one header gather; each tuple's compare loop then runs in
// batch order.
func (h *phtTable) probeBatch(t *engine.Thread, tups []uint64, keyToks []engine.Tok, sc *phtBatch, out *outWriter) uint64 {
	u := len(tups)
	nShort, nLong := 0, 0
	for j := 0; j < u; j++ {
		b := h.bucketOf(mem.TupleKey(tups[j]))
		sc.bkts[j] = int32(b)
		base := int64(b) * bucketBytes
		hTok := engine.After(keyToks[j], hashCost)
		if int(h.flat[b*bucketStride]) > hdrSlots {
			sc.off0[nLong] = base
			sc.off1[nLong] = base + 64
			sc.longDeps[nLong] = hTok
			sc.longIdx[nLong] = j
			nLong++
		} else {
			sc.shortOffs[nShort] = base
			sc.shortDeps[nShort] = hTok
			sc.shortIdx[nShort] = j
			nShort++
		}
	}
	t.LoadGather(&h.buckets, 8, sc.shortOffs[:nShort], sc.shortDeps[:nShort], sc.shortToks[:nShort])
	t.LoadChain(&h.buckets, 8, sc.off0[:nLong], sc.off1[:nLong], 1, sc.longDeps[:nLong], sc.longToks[:nLong])
	for k := 0; k < nShort; k++ {
		sc.scanToks[sc.shortIdx[k]] = sc.shortToks[k]
	}
	for k := 0; k < nLong; k++ {
		sc.scanToks[sc.longIdx[k]] = sc.longToks[k]
	}
	var matches uint64
	for j := 0; j < u; j++ {
		m, _ := h.scanBucket(t, int(sc.bkts[j]), tups[j], sc.scanToks[j], out)
		matches += m
	}
	return matches
}

// Run executes the join.
func (p *PHT) Run(env *core.Env, build, probe *rel.Relation, opt Options) (*Result, error) {
	return p.RunOn(env, env.NewGroup(opt.threads()), build, probe, opt)
}

// RunOn executes the join on an existing thread group (pipeline stage
// composition; see RHO.RunOn). Result timing and stats cover only this
// stage's phases. The shared-table build claims its slots in input
// order (preclaim), so results AND simulated numbers are run-to-run
// deterministic at every thread count.
func (p *PHT) RunOn(env *core.Env, g *exec.Group, build, probe *rel.Relation, opt Options) (*Result, error) {
	T := len(g.Threads)
	mark := g.Mark()
	ht := newPHTTable(env, build.N())
	ht.preclaim(build)
	res := &Result{Algorithm: p.Name()}

	unroll := 1
	if opt.Optimized {
		unroll = 8 // one vector key load per batch
	}

	bp := g.Phase("Build", func(t *engine.Thread, id int) {
		lo, hi := exec.Chunk(build.N(), T, id)
		if unroll == 1 {
			for i := lo; i < hi; i++ {
				tup, tok := engine.LoadU64(t, build.Tup, i, 0)
				ht.insert(t, i, tup, tok)
			}
			return
		}
		// Optimized build: group the key loads and hash computations of a
		// batch ahead of the count-dependent stores (Section 4.2 applied
		// to PHT, Fig 9 "PHT O"). The load group is one batched run; the
		// bucket operations go through the CASLoad/StoreScatter batch.
		sc := newPHTBatch(unroll)
		toks := make([]engine.Tok, unroll)
		lineToks := make([]engine.Tok, unroll/8)
		i := lo
		for ; i+unroll <= hi; i += unroll {
			// Vector loads cover the batch's keys 8 lanes at a time.
			t.LoadRunToks(&build.Tup.Buffer, build.Tup.Off(i), 64, unroll/8, 0, lineToks)
			for j := range toks {
				toks[j] = engine.After(lineToks[j/8], 1) // lane extract
			}
			ht.insertBatch(t, i, build.Tup.D[i:i+unroll], toks, sc)
		}
		for ; i < hi; i++ {
			tup, tok := engine.LoadU64(t, build.Tup, i, 0)
			ht.insert(t, i, tup, tok)
		}
	})
	res.BuildCycles = bp.WallCycles

	counts := make([]uint64, T)
	outs := make([]*outWriter, T)
	pp := g.Phase("Probe", func(t *engine.Thread, id int) {
		lo, hi := exec.Chunk(probe.N(), T, id)
		var out *outWriter
		if opt.Materialize {
			out = newOutWriter(env, id, opt.outBuf(id))
			outs[id] = out
		}
		var local uint64
		if unroll == 1 {
			for i := lo; i < hi; i++ {
				tup, tok := engine.LoadU64(t, probe.Tup, i, 0)
				m, _ := ht.probe(t, tup, tok, out)
				local += m
			}
		} else {
			sc := newPHTBatch(unroll)
			toks := make([]engine.Tok, unroll)
			lineToks := make([]engine.Tok, unroll/8)
			i := lo
			for ; i+unroll <= hi; i += unroll {
				// Vector loads cover the batch's keys 8 lanes at a time.
				t.LoadRunToks(&probe.Tup.Buffer, probe.Tup.Off(i), 64, unroll/8, 0, lineToks)
				for j := range toks {
					toks[j] = engine.After(lineToks[j/8], 1) // lane extract
				}
				local += ht.probeBatch(t, probe.Tup.D[i:i+unroll], toks, sc, out)
			}
			for ; i < hi; i++ {
				tup, tok := engine.LoadU64(t, probe.Tup, i, 0)
				m, _ := ht.probe(t, tup, tok, out)
				local += m
			}
		}
		counts[id] = local
	})
	res.ProbeCycles = pp.WallCycles

	for _, c := range counts {
		res.Matches += c
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
