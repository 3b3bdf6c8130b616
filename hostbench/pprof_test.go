package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"sgxbench/internal/cache.(*Cache).AccessOrFill":          "cache",
		"sgxbench/internal/engine.(*Thread).fastLoadAt":          "engine",
		"sgxbench/internal/exec.(*Group).Phase.func1":            "exec",
		"sgxbench/internal/sort.Radix[go.shape.uint64]":          "sort",
		"sgxbench/internal/plan.f[sgxbench/internal/mem.U64Buf]": "plan",
		"runtime.memmove":                        "runtime",
		"internal/runtime/atomic.(*Uint32).Load": "runtime",
		"runtime/internal/syscall.Syscall6":      "runtime",
		"sort.Float64s":                          "other",
		"sync.(*WaitGroup).Wait":                 "other",
		"main.main":                              "bench",
		"sgxbench/hostbench.(*session).loop":     "bench",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

// A real CPU profile of simulator work: the labelled samples are
// attributed to the simulator's packages and are a subset of all.
func TestCPUByLayerReadsRuntimeProfiles(t *testing.T) {
	w, _ := findWorkload(testSizes, "olap-suite")
	ops, err := w.setup(nil, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	labels := pprof.Labels("hostbench", "op")
	for start := time.Now(); time.Since(start) < 600*time.Millisecond; {
		for _, o := range ops {
			run := o.prep(nil)
			pprof.Do(context.Background(), labels, func(context.Context) {
				if _, err := run(); err != nil {
					t.Error(err)
				}
			})
		}
	}
	pprof.StopCPUProfile()
	labelled, err := cpuByLayer(bytes.NewReader(buf.Bytes()), "hostbench", "op")
	if err != nil {
		t.Fatal(err)
	}
	all, err := cpuByLayer(bytes.NewReader(buf.Bytes()), "", "")
	if err != nil {
		t.Fatal(err)
	}
	var sumL, sumA float64
	for _, v := range labelled {
		sumL += v
	}
	for _, v := range all {
		sumA += v
	}
	if labelled["cache"]+labelled["engine"] == 0 || sumL > sumA || sumA == 0 {
		t.Errorf("labelled %v (sum %v), all %v (sum %v)", labelled, sumL, all, sumA)
	}
	if _, err := cpuByLayer(bytes.NewReader([]byte("not a profile")), "", ""); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
