package obs_test

import (
	"sort"
	"testing"

	"sgxbench/internal/obs"
)

// splitmix64 keeps the test's value stream seeded and dependency-free,
// matching the repo's determinism discipline.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// exactPctl is the nearest-rank oracle, matching serve's pctl.
func exactPctl(sorted []uint64, p int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

// TestHistogramSmallValuesExact: values below two octaves of
// sub-buckets (64) live in width-1 buckets, so every percentile is
// exact there.
func TestHistogramSmallValuesExact(t *testing.T) {
	h := obs.NewHistogram()
	var vals []uint64
	for v := uint64(0); v < 64; v++ {
		h.Record(v)
		vals = append(vals, v)
	}
	for _, p := range []int{1, 50, 95, 99, 100} {
		if got, want := h.Percentile(p), exactPctl(vals, p); got != want {
			t.Errorf("p%d = %d, want exact %d", p, got, want)
		}
	}
	if h.Max() != 63 || h.Count() != 64 {
		t.Errorf("max=%d count=%d, want 63/64", h.Max(), h.Count())
	}
}

// TestHistogramPercentileWithinBucketWidth pins the satellite
// guarantee: every percentile is >= the exact sorted-slice value and
// within one bucket width of it, across magnitudes from exact-region
// values to multi-billion-cycle latencies.
func TestHistogramPercentileWithinBucketWidth(t *testing.T) {
	h := obs.NewHistogram()
	var vals []uint64
	r := uint64(42)
	for i := 0; i < 20_000; i++ {
		r = splitmix64(r)
		// Spread over ~10 orders of magnitude: shift by a seeded 0..39.
		v := (r >> 24) >> (r % 40)
		h.Record(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for p := 0; p <= 100; p++ {
		got := h.Percentile(p)
		want := exactPctl(vals, p)
		if got < want {
			t.Fatalf("p%d = %d below exact %d", p, got, want)
		}
		if w := obs.BucketWidth(want); got-want > w {
			t.Fatalf("p%d = %d off exact %d by %d > bucket width %d", p, got, want, got-want, w)
		}
	}
	if got, want := h.Max(), vals[len(vals)-1]; got != want {
		t.Fatalf("Max = %d, want exact %d", got, want)
	}
}

// TestHistogramPercentileClampedToMax: the quantized upper edge never
// exceeds the exact maximum (P99 <= Max must hold for any input).
func TestHistogramPercentileClampedToMax(t *testing.T) {
	h := obs.NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(1000) // bucket [992, 1008): upper edge above the value
	}
	if got := h.Percentile(99); got != 1000 {
		t.Errorf("p99 = %d, want clamped to max 1000", got)
	}
}

// TestHistogramMonotonePercentiles: p50 <= p95 <= p99 <= max for a
// skewed distribution.
func TestHistogramMonotonePercentiles(t *testing.T) {
	h := obs.NewHistogram()
	r := uint64(7)
	for i := 0; i < 5000; i++ {
		r = splitmix64(r)
		h.Record(1_000_000 + r%900_000_000)
	}
	p50, p95, p99 := h.Percentile(50), h.Percentile(95), h.Percentile(99)
	if !(p50 <= p95 && p95 <= p99 && p99 <= h.Max()) {
		t.Errorf("not monotone: p50=%d p95=%d p99=%d max=%d", p50, p95, p99, h.Max())
	}
}

// TestHistogramEmpty: the empty histogram reports zeros everywhere.
func TestHistogramEmpty(t *testing.T) {
	h := obs.NewHistogram()
	if h.Percentile(50) != 0 || h.Max() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

// TestHistogramPercentileZeroReturnsMin pins the p<=0 edge case: the
// 0th percentile is the exact smallest recorded value, not the upper
// edge of its bucket (which for a wide bucket can overshoot the
// minimum by almost a full bucket width).
func TestHistogramPercentileZeroReturnsMin(t *testing.T) {
	h := obs.NewHistogram()
	h.Record(1 << 20) // bucket [1<<20, 1<<20+32768): upper edge > value
	h.Record(1 << 30)
	if got := h.Percentile(0); got != 1<<20 {
		t.Errorf("p0 = %d, want exact min %d", got, 1<<20)
	}
	if got := h.Percentile(-5); got != 1<<20 {
		t.Errorf("p(-5) = %d, want exact min %d", got, 1<<20)
	}
	if got := h.Min(); got != 1<<20 {
		t.Errorf("Min = %d, want %d", got, 1<<20)
	}
}

// TestHistogramMinTracking: Min is exact under Record, zero when empty,
// and a later smaller value lowers it.
func TestHistogramMinTracking(t *testing.T) {
	h := obs.NewHistogram()
	if h.Min() != 0 || h.Percentile(0) != 0 {
		t.Fatal("empty histogram must report Min/p0 = 0")
	}
	r := uint64(3)
	want := ^uint64(0)
	for i := 0; i < 1000; i++ {
		r = splitmix64(r)
		v := 1000 + r%1_000_000
		h.Record(v)
		if v < want {
			want = v
		}
	}
	if h.Min() != want {
		t.Fatalf("Min = %d, want exact %d", h.Min(), want)
	}
	h.Record(7)
	if h.Min() != 7 || h.Percentile(0) != 7 {
		t.Fatalf("Min after recording 7 = %d (p0 %d), want 7", h.Min(), h.Percentile(0))
	}
}

// TestHistogramExtremeValues: the top octave (e=63) is addressable —
// recording near-MaxUint64 values must not walk off the bucket array,
// and percentiles stay ordered.
func TestHistogramExtremeValues(t *testing.T) {
	h := obs.NewHistogram()
	for _, v := range []uint64{0, 1, 63, 64, 1 << 32, 1 << 62, 1 << 63, ^uint64(0) - 1, ^uint64(0)} {
		h.Record(v)
	}
	if h.Max() != ^uint64(0) {
		t.Fatalf("Max = %d, want MaxUint64", h.Max())
	}
	if got := h.Percentile(100); got != ^uint64(0) {
		t.Fatalf("p100 = %d, want MaxUint64", got)
	}
	if h.Percentile(1) != 0 {
		t.Fatalf("p1 = %d, want 0", h.Percentile(1))
	}
}

// TestBucketWidthShape: widths are powers of two, non-decreasing in v,
// and at most ~1/32 of v (the HDR relative-error bound).
func TestBucketWidthShape(t *testing.T) {
	prev := uint64(0)
	for e := 0; e < 63; e++ {
		v := uint64(1) << e
		w := obs.BucketWidth(v)
		if w&(w-1) != 0 {
			t.Fatalf("BucketWidth(%d) = %d not a power of two", v, w)
		}
		if w < prev {
			t.Fatalf("BucketWidth not monotone at %d: %d < %d", v, w, prev)
		}
		if v >= 64 && w*32 > v {
			t.Fatalf("BucketWidth(%d) = %d above v/32", v, w)
		}
		prev = w
	}
}
