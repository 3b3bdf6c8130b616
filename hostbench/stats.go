package main

import (
	"fmt"
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported
// percentile for it to be reported at all.
const tailSamples = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and how many samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// minSamplesFor returns the smallest sample count whose nearest-rank
// p-th percentile has at least tailSamples samples beyond it.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n)/100)) >= tailSamples {
			return n
		}
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match the ones a
// reader recomputes from the recorded values. A single value is its own
// quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// typicalPass returns the time of a typical pass: the sum, over the
// operations of a pass, of each operation's median time. xs holds whole
// passes of n operations each, in pass order. Medians keep a burst that
// slowed a few operations (a collection, time taken by the hypervisor)
// from moving the figure, where a plain sum would count it in full.
func typicalPass(xs []float64, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		var kind []float64
		for j := i; j < len(xs); j += n {
			kind = append(kind, xs[j])
		}
		sum += median(kind)
	}
	return sum
}

// nsPer divides a host time in milliseconds over a count of simulated
// work items (accesses, requests), giving host nanoseconds per item. A
// zero count yields zero: the layer did no work on this workload.
func nsPer(ms float64, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return ms * 1e6 / float64(count)
}

// validName reports whether s is a legal metric or workload name: a
// letter or digit first, then at most 63 more letters, digits, '_', '.'
// or '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 || !alnum(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !alnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: 1 to 16 letters, digits,
// '_', '/', '%', '.' or '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case alnum(c), c == '_', c == '/', c == '%', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}

func alnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics in report order.
type metricSet struct {
	names []string
	vals  map[string]metric
}

// add records a metric, refusing an illegal or repeated name or unit:
// a report with one is a bug in the benchmark, not in the simulator.
func (m *metricSet) add(name, unit string, v float64) {
	if !validName(name) || !validUnit(unit) {
		panic(fmt.Sprintf("hostbench: illegal metric %q [%s]", name, unit))
	}
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if _, dup := m.vals[name]; dup {
		panic(fmt.Sprintf("hostbench: metric %q reported twice", name))
	}
	m.names = append(m.names, name)
	m.vals[name] = metric{Value: v, Unit: unit}
}
