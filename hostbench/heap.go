package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
)

// sentinel is the object whose finalizer marks the end of a collection
// cycle. It holds a pointer, so the tiny allocator never batches it.
type sentinel struct {
	_ *int
	_ [8]byte
}

func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// peakLiveHeap runs one more pass, untimed, with the collector running
// after every 5% of heap growth, and returns the largest live heap any
// cycle saw: the memory the workload needs, independent of how much
// garbage the default collector setting lets pile up between cycles.
// A finalizer on a sentinel runs once per cycle, reads the live heap
// and re-arms itself. Its operations are checked like every other.
func (s *session) peakLiveHeap() uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	var peak atomic.Uint64 // written only by the finalizer goroutine
	var done atomic.Bool
	var arm func()
	arm = func() {
		runtime.SetFinalizer(new(sentinel), func(*sentinel) {
			peak.Store(max(peak.Load(), liveHeap()))
			if !done.Load() {
				arm()
			}
		})
	}
	arm()
	defer done.Store(true)
	for i, o := range s.ops {
		out, err := guarded(prepare(o, nil))
		s.check(i, out.signature(), err)
	}
	runtime.GC()
	return max(peak.Load(), liveHeap())
}
