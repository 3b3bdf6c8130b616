package cache

import (
	"testing"

	"sgxbench/internal/platform"
	"sgxbench/internal/rng"
)

// oneSet is a single-set, 4-way cache geometry: every line maps to set 0,
// which makes eviction order directly observable.
var oneSet = platform.CacheGeom{SizeBytes: 4 * 64, Ways: 4, LineBytes: 64}

// lines that all map to set 0 of a single-set cache are just consecutive
// integers; for multi-set geometries use line*sets to stay in one set.

// probeFunc probes for line and fills it on a miss, reporting whether the
// probe hit and, for a miss, the line it evicted.
type probeFunc func(line uint64, write bool) (hit bool, evicted uint64, evictedDirty, evictedOK bool)

// refProbe drives a reference cache the way the engine's per-op path
// does: Access, then Fill on a miss.
func refProbe(c *RefCache) probeFunc {
	return func(line uint64, write bool) (bool, uint64, bool, bool) {
		if c.Access(line, write) {
			return true, 0, false, false
		}
		ev, dirty, ok := c.Fill(line, write)
		return false, ev, dirty, ok
	}
}

// namedProbe is one probe path under test.
type namedProbe struct {
	name  string
	probe probeFunc
}

// impls returns fresh caches of geometry g behind both probe paths: the
// fast cache's fused AccessOrFill and the reference Access+Fill.
func impls(g platform.CacheGeom) []namedProbe {
	return []namedProbe{
		{"fast", New(g).AccessOrFill},
		{"ref", refProbe(NewRef(g))},
	}
}

// TestLRUEvictionOrder fills a set past capacity and checks that the
// least recently used line is evicted, for both implementations.
func TestLRUEvictionOrder(t *testing.T) {
	for _, tc := range impls(oneSet) {
		probe := tc.probe
		// Fill ways with lines 1..4. No evictions while invalid ways last.
		for l := uint64(1); l <= 4; l++ {
			hit, _, _, ok := probe(l, false)
			if hit {
				t.Fatalf("%s: cold access to line %d hit", tc.name, l)
			}
			if ok {
				t.Fatalf("%s: filling invalid way evicted something (line %d)", tc.name, l)
			}
		}
		// Touch line 1: it becomes MRU; LRU is now line 2.
		if hit, _, _, _ := probe(1, false); !hit {
			t.Fatalf("%s: line 1 should be resident", tc.name)
		}
		// Insert line 5: must evict line 2 (true LRU).
		hit, ev, _, ok := probe(5, false)
		if hit {
			t.Fatalf("%s: line 5 unexpectedly hit", tc.name)
		}
		if !ok || ev != 2 {
			t.Errorf("%s: expected eviction of line 2, got ok=%v line=%d", tc.name, ok, ev)
		}
		// Insert line 6: must evict line 3.
		if _, ev, _, _ := probe(6, false); ev != 3 {
			t.Errorf("%s: expected eviction of line 3, got %d", tc.name, ev)
		}
		// 1, 4, 5, 6 resident (touched in that order, so 1 is now LRU).
		for _, want := range []uint64{1, 4, 5, 6} {
			if hit, _, _, _ := probe(want, false); !hit {
				t.Errorf("%s: line %d should be resident", tc.name, want)
			}
		}
		// 2 and 3 are gone: probing them misses and evicts 1, then 4.
		for _, c := range []struct{ line, ev uint64 }{{2, 1}, {3, 4}} {
			if hit, ev, _, _ := probe(c.line, false); hit || ev != c.ev {
				t.Errorf("%s: line %d: hit=%v evicted %d, want a miss evicting %d", tc.name, c.line, hit, ev, c.ev)
			}
		}
	}
}

// TestDirtyWriteback checks that dirty lines report their state when
// evicted and clean lines do not, for both implementations.
func TestDirtyWriteback(t *testing.T) {
	for _, tc := range impls(oneSet) {
		probe := tc.probe
		probe(1, true)  // written on fill
		probe(2, false) // clean
		probe(3, false)
		probe(3, true) // dirtied by a write hit
		probe(4, false)
		// Evict line 1 (LRU): was written on fill -> dirty.
		_, ev, dirty, ok := probe(5, false)
		if !ok || ev != 1 || !dirty {
			t.Errorf("%s: want dirty eviction of line 1, got line=%d dirty=%v ok=%v", tc.name, ev, dirty, ok)
		}
		// Evict line 2: never written -> clean.
		_, ev, dirty, _ = probe(6, false)
		if ev != 2 || dirty {
			t.Errorf("%s: want clean eviction of line 2, got line=%d dirty=%v", tc.name, ev, dirty)
		}
		// Evict line 3: dirtied by the write hit.
		_, ev, dirty, _ = probe(7, false)
		if ev != 3 || !dirty {
			t.Errorf("%s: want dirty eviction of line 3, got line=%d dirty=%v", tc.name, ev, dirty)
		}
	}
}

// TestTLBSetIndexing checks set selection and that an empty way is always
// preferred over evicting a valid entry, for both TLB implementations.
func TestTLBSetIndexing(t *testing.T) {
	geom := platform.TLBGeom{Entries: 8, Ways: 4} // 2 sets x 4 ways
	for _, impl := range []string{"fast", "ref"} {
		var access func(uint64) bool
		if impl == "fast" {
			access = NewTLB(geom).Access
		} else {
			access = NewRefTLB(geom).Access
		}
		// Pages 0,2,4,6 map to set 0; pages 1,3,5 to set 1.
		for _, p := range []uint64{0, 2, 4, 6} {
			if access(p) {
				t.Fatalf("%s: cold access to page %d hit", impl, p)
			}
		}
		// Set 1 is untouched: installing there must not disturb set 0.
		access(1)
		for _, p := range []uint64{0, 2, 4, 6} {
			if !access(p) {
				t.Errorf("%s: page %d evicted by an install in another set", impl, p)
			}
		}
		// Set 0 is full; page 8 evicts its LRU (page 0, refreshed last ->
		// LRU is page 2 after the re-touches above... order after touches
		// is 6,4,2,0 oldest-first? re-touches went 0,2,4,6 so LRU is 0).
		access(8)
		if access(0) {
			t.Errorf("%s: page 0 (LRU) should have been evicted", impl)
		}
		// 2 was re-installed by the miss above? No: Access(0) missed and
		// installed page 0 again, evicting the then-LRU page 2.
		if !access(8) || !access(6) || !access(4) {
			t.Errorf("%s: recently used pages evicted", impl)
		}
	}
}

// TestCacheFusedEquivalence drives every production probe path of the
// fast cache against a RefCache using Access+Fill on one randomized trace
// of mixed reads and writes over a small geometry (so sets overflow
// constantly), and asserts that every probe and every eviction decision
// agrees: AccessOrFill, AccessOrFillStream, and AccessOrFill with an
// immediate repeat of the line taken by DirtyMRU (the engine's same-line
// memo) instead of a probe.
func TestCacheFusedEquivalence(t *testing.T) {
	geom := platform.CacheGeom{SizeBytes: 4 * 64 * 8, Ways: 8, LineBytes: 64} // 4 sets x 8 ways
	memo := New(geom)
	prev := ^uint64(0)
	paths := []namedProbe{
		{"AccessOrFill", New(geom).AccessOrFill},
		{"AccessOrFillStream", New(geom).AccessOrFillStream},
		{"DirtyMRU", func(line uint64, write bool) (bool, uint64, bool, bool) {
			if line != prev {
				return memo.AccessOrFill(line, write)
			}
			// The line was this cache's previous access, so it is the MRU
			// entry of its set: a repeat read changes nothing.
			if write {
				memo.DirtyMRU(line)
			}
			return true, 0, false, false
		}},
	}
	ref := refProbe(NewRef(geom))
	r := rng.NewXorShift(11)
	for i := 0; i < 200000; i++ {
		// Lines 512 apart share a set and a filter key (their tags differ
		// by 128), so the filter's false positives — a scan that misses —
		// are exercised too.
		line := r.Next()%96 + r.Next()%2*512
		write := r.Next()%3 == 0
		rh, re, rd, rok := ref(line, write)
		for _, p := range paths {
			h, e, d, ok := p.probe(line, write)
			if h != rh {
				t.Fatalf("op %d: line %d %s hit=%v ref hit=%v", i, line, p.name, h, rh)
			}
			if !h && (ok != rok || (ok && (e != re || d != rd))) {
				t.Fatalf("op %d: line %d %s eviction=(%d,%v,%v) ref=(%d,%v,%v)", i, line, p.name, e, d, ok, re, rd, rok)
			}
		}
		prev = line
	}
}

// TestTLBImplEquivalence drives both TLB implementations with the same
// randomized page trace.
func TestTLBImplEquivalence(t *testing.T) {
	geom := platform.TLBGeom{Entries: 16, Ways: 4} // 4 sets x 4 ways
	fast := NewTLB(geom)
	ref := NewRefTLB(geom)
	r := rng.NewXorShift(13)
	for i := 0; i < 200000; i++ {
		page := r.Next()%64 + r.Next()%2*512 // +512: same set and filter key
		fh := fast.Access(page)
		rh := ref.Access(page)
		if fh != rh {
			t.Fatalf("op %d: access(page %d) fast=%v ref=%v", i, page, fh, rh)
		}
		// After any probe (hit or miss-install) the page is its set's MRU.
		if !fast.MRUHit(page) {
			t.Fatalf("op %d: page %d not MRU after probe", i, page)
		}
	}
}
