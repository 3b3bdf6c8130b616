package engine_test

import (
	"testing"

	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	"sgxbench/internal/rng"
)

// The randomized differential harness: where gather_test.go replays one
// hand-written trace, this test *generates* traces — a seeded uniform
// op picker interleaving every bulk API (LoadRun, LoadRunToks,
// LoadLines, StoreRun, StoreLinesNT, LoadGather, StoreScatter,
// RMWScatter, LoadChain, CASLoad) with the per-op calls, random batch
// widths, random element sizes and cross-call token dependencies — and
// asserts that the per-op reference engine and the batched fast engine
// stay bit-identical in statistics and completion tokens on every one.
// Any fast-path state divergence that only manifests under a particular
// API adjacency (MRU memo handoff, stream-slot reuse, translation memo)
// is the bug class this hunts.

// randTrace replays one generated trace on t and returns a token
// checksum folding every API's completion tokens.
func randTrace(t *engine.Thread, big, small *mem.Buffer, seed uint64, steps int) uint64 {
	r := rng.NewXorShift(rng.Mix(seed))
	const maxBatch = 24
	offs := make([]int64, maxBatch)
	offs1 := make([]int64, maxBatch)
	deps := make([]engine.Tok, maxBatch)
	toks := make([]engine.Tok, maxBatch)
	casToks := make([]engine.Tok, maxBatch)
	var sum uint64
	add := func(tok engine.Tok) { sum = sum*1099511628211 + uint64(tok) }
	var carry engine.Tok // token chained across steps (cross-call deps)
	elems := []int64{4, 8, 16, 32}
	slots := func(b *mem.Buffer, size int64) int64 { return (b.Size - size) / size }
	for step := 0; step < steps; step++ {
		batch := 1 + int(r.Uint64n(maxBatch))
		elem := elems[r.Uint64n(uint64(len(elems)))]
		buf := big
		if r.Uint64n(4) == 0 {
			buf = small
		}
		ns := slots(buf, elem)
		for i := 0; i < batch; i++ {
			offs[i] = int64(r.Uint64n(uint64(ns))) * elem
			if r.Uint64n(2) == 0 {
				deps[i] = 0
			} else {
				deps[i] = carry
			}
		}
		switch r.Uint64n(13) {
		case 0: // sequential load run
			runN := 1 + int(r.Uint64n(64))
			off := int64(r.Uint64n(uint64(maxInt64(ns-int64(runN), 1)))) * elem
			carry = t.LoadRun(buf, off, elem, runN, deps[0])
			add(carry)
		case 1: // load run with per-element tokens
			runN := 1 + int(r.Uint64n(uint64(maxBatch)))
			off := int64(r.Uint64n(uint64(maxInt64(ns-int64(runN), 1)))) * elem
			t.LoadRunToks(buf, off, elem, runN, deps[0], toks[:runN])
			carry = toks[runN-1]
			add(carry)
		case 2: // line-granular load run
			nLines := 1 + int(r.Uint64n(48))
			off := int64(r.Uint64n(uint64(maxInt64(buf.Size/64-int64(nLines), 1)))) * 64
			carry = t.LoadLines(buf, off, nLines, deps[0])
			add(carry)
		case 3: // sequential store run
			runN := 1 + int(r.Uint64n(64))
			off := int64(r.Uint64n(uint64(maxInt64(ns-int64(runN), 1)))) * elem
			carry = t.StoreRun(buf, off, elem, runN, deps[0], carry)
			add(carry)
		case 4: // non-temporal line stores
			nLines := 1 + int(r.Uint64n(24))
			off := int64(r.Uint64n(uint64(maxInt64(buf.Size/64-int64(nLines), 1)))) * 64
			carry = t.StoreLinesNT(buf, off, nLines, deps[0], carry)
			add(carry)
		case 5: // independent gather
			carry = t.LoadGather(buf, elem, offs[:batch], deps[:batch], toks[:batch])
			add(carry)
		case 6: // independent scatter (data deps from the last gather)
			t.StoreScatter(buf, elem, offs[:batch], deps[:batch], toks[:batch])
		case 7: // read-modify-write scatter (histogram idiom)
			t.RMWScatter(buf, elem, offs[:batch], deps[:batch], toks[:batch])
			carry = toks[batch-1]
			add(carry)
		case 8: // dependent pair chase (header -> slot idiom)
			for i := 0; i < batch; i++ {
				offs1[i] = offs[i] + 64
				if offs1[i]+elem > buf.Size {
					offs1[i] = offs[i]
				}
			}
			carry = t.LoadChain(buf, elem, offs[:batch], offs1[:batch], 1+r.Uint64n(3), deps[:batch], toks[:batch])
			add(carry)
		case 9: // latch CAS + count load (hash-insert idiom)
			n8 := slots(buf, 8)
			for i := 0; i < batch; i++ {
				offs[i] = int64(r.Uint64n(uint64(n8))) * 8
			}
			t.CASLoad(buf, minInt64(elem, 8), offs[:batch], deps[:batch], casToks[:batch], toks[:batch])
			carry = toks[batch-1]
			add(casToks[batch-1])
			add(carry)
		case 10: // per-op load + store + CAS
			off := offs[0]
			add(t.Load(buf, off, elem, deps[0]))
			add(t.Store(buf, off, elem, deps[0], carry))
			n8 := slots(buf, 8)
			carry = t.CAS(buf, int64(r.Uint64n(uint64(n8)))*8, deps[0])
			add(carry)
		case 11: // pure compute between memory ops
			t.Work(1 + r.Uint64n(16))
		case 12: // full-line single accesses
			off := int64(r.Uint64n(uint64(maxInt64(buf.Size/64, 1)))) * 64
			carry = engine.LoadLine(t, buf, off, deps[0])
			add(engine.StoreLine(t, buf, off, deps[0], carry))
		}
	}
	add(engine.Tok(t.Drain()))
	return sum
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestRandomTraceEquivalence runs the generated traces under every
// execution setting and several seeds, asserting bit-identical stats and
// token checksums between the reference and fast engine paths. The big
// buffer is placed on socket 0 (local) and socket 1 (remote), so the
// cross-socket UPI path runs under both engines too.
func TestRandomTraceEquivalence(t *testing.T) {
	plat := platform.XeonGold6326().Scaled(256)
	steps := 300
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		steps = 120
		seeds = seeds[:2]
	}
	for _, s := range gatherSettings() {
		for _, node := range []int{0, 1} {
			for _, seed := range seeds {
				run := func(ref bool) (uint64, engine.Stats) {
					sp := mem.NewSpace(plat.Sockets)
					big := sp.Alloc("big", 1<<20, mem.Region{Node: node, Kind: s.kind})
					small := sp.Alloc("small", 1<<12, mem.Region{Node: 0, Kind: s.kind})
					th := engine.NewThread(engine.Config{
						Plat: plat, Mode: s.mode, Costs: engine.DefaultSGXCosts(),
						Reference: ref,
					}, 0)
					sum := randTrace(th, &big, &small, seed, steps)
					return sum, th.Stats()
				}
				refSum, refStats := run(true)
				fastSum, fastStats := run(false)
				if refSum != fastSum {
					t.Errorf("%s node %d seed %d: token checksum ref=%d fast=%d", s.name, node, seed, refSum, fastSum)
				}
				if refStats != fastStats {
					t.Errorf("%s node %d seed %d: stats differ\nref:  %+v\nfast: %+v", s.name, node, seed, refStats, fastStats)
				}
				if remote := fastStats.UPIBytes > 0; remote != (node == 1) {
					t.Errorf("%s node %d seed %d: UPIBytes=%d, want cross-socket traffic only on node 1",
						s.name, node, seed, fastStats.UPIBytes)
				}
			}
		}
	}
}
