package serve

import (
	"container/heap"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/platform"
	"sgxbench/internal/sgx"
)

// eventHeap is the original container/heap event queue, kept as the
// ordering oracle the timer wheel is differentially tested against.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// heapQueue adapts eventHeap to the eventQueue interface.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(e event) { heap.Push(&q.h, e) }
func (q *heapQueue) pop() event   { return heap.Pop(&q.h).(event) }
func (q *heapQueue) empty() bool  { return len(q.h) == 0 }

// popBoth pops one event from each queue and fails on any divergence:
// the wheel must reproduce the heap's (time, seq) order bit-exactly,
// including the full event payload.
func popBoth(t *testing.T, wh, hp eventQueue, step int) event {
	t.Helper()
	a, b := wh.pop(), hp.pop()
	if a != b {
		t.Fatalf("step %d: wheel popped %+v, heap popped %+v", step, a, b)
	}
	return a
}

// TestWheelDifferentialRandom drives the timer wheel and the
// container/heap oracle through identical randomized push/pop
// interleavings across seeds. Delta draws deliberately mix equal times
// (seq tie-breaks), small same-slot offsets, and jumps across every
// cascade boundary (64^1 .. 64^9 cycles ahead), so slots at all levels
// fill, drain and cascade.
func TestWheelDifferentialRandom(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		wh := newTimerWheel()
		hp := &heapQueue{}
		r := seed
		next := func(mod uint64) uint64 {
			r = splitmix64(r)
			return r % mod
		}
		var now, lastPush, seq uint64
		pending := 0
		push := func() {
			var tt uint64
			switch next(8) {
			case 0: // exact tie with the previous push: pure seq ordering
				tt = lastPush
				if tt < now {
					tt = now
				}
			case 1: // same level-0 window
				tt = now + next(64)
			case 2, 3: // a few slots ahead
				tt = now + next(4096)
			default: // jump across a cascade boundary at a random level
				lvl := 1 + next(9)
				tt = now + uint64(1)<<(6*lvl) - 32 + next(64)
			}
			lastPush = tt
			seq++
			e := event{t: tt, seq: seq, kind: int(next(6)), who: int(next(1024))}
			wh.push(e)
			hp.push(e)
			pending++
		}
		for i := 0; i < 20000; i++ {
			if pending == 0 || next(5) < 2 {
				push()
				continue
			}
			now = popBoth(t, wh, hp, i).t
			pending--
		}
		for step := 0; pending > 0; pending-- {
			popBoth(t, wh, hp, step)
			step++
		}
		if !wh.empty() || !hp.empty() {
			t.Fatalf("seed %d: queues not drained together", seed)
		}
	}
}

// TestWheelCascadeBoundaries pins the exact cascade edges: events
// straddling 64^l - 1, 64^l, 64^l + 1 for the lower levels, pushed in
// scrambled order with duplicate times, must pop in heap order.
func TestWheelCascadeBoundaries(t *testing.T) {
	var times []uint64
	for lvl := uint(1); lvl <= 4; lvl++ {
		b := uint64(1) << (6 * lvl)
		times = append(times, b-1, b, b+1, b, 2*b-1, 2*b, 3*b+63)
	}
	wh := newTimerWheel()
	hp := &heapQueue{}
	r := uint64(99)
	for seq := uint64(1); seq <= 4096; seq++ {
		r = splitmix64(r)
		e := event{t: times[r%uint64(len(times))], seq: seq, who: int(seq)}
		wh.push(e)
		hp.push(e)
	}
	for i := 0; i < 4096; i++ {
		popBoth(t, wh, hp, i)
	}
}

// TestWheelLatePush: the simulator never schedules into the past, but
// the wheel must not silently diverge from heap semantics if it ever
// did — a late event pops first, ordered among other late events.
func TestWheelLatePush(t *testing.T) {
	wh := newTimerWheel()
	hp := &heapQueue{}
	both := func(e event) { wh.push(e); hp.push(e) }
	both(event{t: 1000, seq: 1})
	popBoth(t, wh, hp, 0) // advances wheel cur to 1000
	both(event{t: 2000, seq: 2})
	both(event{t: 500, seq: 3}) // late
	both(event{t: 500, seq: 4}) // late tie: seq order
	both(event{t: 250, seq: 5}) // later but earlier t: sorts first
	for i := 0; i < 4; i++ {
		popBoth(t, wh, hp, i)
	}
}

// wheelTestWorkload is a hand-built workload for full-replay
// differential tests (internal twin of serve_test.synthetic).
func wheelTestWorkload(setting core.Setting) *Workload {
	return &Workload{
		Setting:   setting,
		Plat:      platform.XeonGold6326(),
		OS:        sgx.DefaultOSCosts(),
		InEnclave: setting.InEnclave(),
		Classes: []ClassCost{
			{Name: "a", ServiceCycles: 40_000, Pages: 16},
			{Name: "b", ServiceCycles: 90_000, Pages: 24},
		},
	}
}

// TestSimulateHeapWheelIdentical replays a scenario matrix spanning
// every simulator feature — legacy global closed loop, faults with
// deadlines/retries/admission, sharded stealing, batching, and
// open-loop arrivals of every kind — once on the heap and once on the
// wheel, and requires bit-identical results. Together with the golden
// gate (whose snapshots predate the wheel) this proves the event-loop
// refactor changed nothing observable.
func TestSimulateHeapWheelIdentical(t *testing.T) {
	wheelQueue := newEventQueue
	defer func() { newEventQueue = wheelQueue }()
	base := Config{Clients: 48, Workers: 8, RequestsPerClient: 6, Sync: SyncLockFree, JitterPct: 10, Seed: 7}
	fault := &FaultPlan{Seed: 11, CrashInterval: 4_000_000, StormInterval: 2_000_000,
		StormLen: 900_000, StormAEXGap: 2_000, FailPct: 3}
	cfgs := map[string]func(Config) Config{
		"legacy.mutex.dyn": func(c Config) Config {
			c.Sync, c.Mem, c.ThinkCycles = SyncMutex, MemDynamic, 200_000
			return c
		},
		"legacy.fault": func(c Config) Config {
			c.Fault, c.DeadlineCycles, c.MaxRetries = fault, 2_500_000, 5
			c.BackoffBase, c.BackoffCap, c.AdmitDepth = 50_000, 800_000, 12
			return c
		},
		"shard.steal": func(c Config) Config {
			c.Dispatch, c.Clients = DispatchSharded, 96
			return c
		},
		"shard.batch.fault": func(c Config) Config {
			c.Dispatch, c.Batch, c.Fault, c.MaxRetries = DispatchSharded, 8, fault, 5
			return c
		},
		"open.poisson": func(c Config) Config {
			c.Arrival = &ArrivalPlan{Kind: ArrivalPoisson, MeanGapCycles: 400_000}
			return c
		},
		"open.bursty.shard.batch": func(c Config) Config {
			c.Dispatch, c.Batch = DispatchSharded, 16
			c.Arrival = &ArrivalPlan{Kind: ArrivalBursty, MeanGapCycles: 300_000, BurstSize: 8}
			return c
		},
		"open.diurnal": func(c Config) Config {
			c.Arrival = &ArrivalPlan{Kind: ArrivalDiurnal, MeanGapCycles: 300_000, RampPeriodCycles: 8_000_000}
			return c
		},
		"open.heavytail": func(c Config) Config {
			c.Arrival = &ArrivalPlan{Kind: ArrivalHeavyTail, MeanGapCycles: 300_000}
			return c
		},
		"closed.thinktail": func(c Config) Config {
			c.ThinkCycles, c.ThinkHeavyTail = 300_000, true
			return c
		},
	}
	for _, setting := range []core.Setting{core.PlainCPU, core.SGXDiE} {
		w := wheelTestWorkload(setting)
		for name, mut := range cfgs {
			cfg := mut(base)
			wheel, err := w.Simulate(cfg)
			if err != nil {
				t.Fatalf("%v/%s (wheel): %v", setting, name, err)
			}
			newEventQueue = func() eventQueue { return &heapQueue{} }
			hp, err := w.Simulate(cfg)
			newEventQueue = wheelQueue
			if err != nil {
				t.Fatalf("%v/%s (heap): %v", setting, name, err)
			}
			if wheel.Check != hp.Check || wheel.MakespanCycles != hp.MakespanCycles ||
				wheel.Breakdown != hp.Breakdown || wheel.DispatchStats != hp.DispatchStats ||
				wheel.P50 != hp.P50 || wheel.P99 != hp.P99 ||
				wheel.Succeeded != hp.Succeeded || wheel.Failed != hp.Failed {
				t.Errorf("%v/%s: wheel and heap replays diverge:\nwheel: check=%#x makespan=%d %+v\nheap:  check=%#x makespan=%d %+v",
					setting, name, wheel.Check, wheel.MakespanCycles, wheel.Breakdown,
					hp.Check, hp.MakespanCycles, hp.Breakdown)
			}
		}
	}
}
