// Package serve is a deterministic multi-query serving simulator: it
// drives many concurrent clients issuing pipeline requests (q1..q5)
// through an enclave worker pool on a virtual clock.
//
// The paper's most dramatic SGXv2 results are concurrency effects, not
// single-query numbers: SDK synchronization primitives whose
// transition-based sleep collapses throughput under contention
// (Section 4.4, Fig 11), and dynamically sized enclaves losing ~95 % of
// their throughput to serialized EDMM page commits (Fig 12). The
// operator simulator parameterizes both costs (sgx.OSCosts) but nothing
// below this layer exercises them end to end. This package does: it
// turns one-shot pipeline executions into a served workload and exposes
// exactly those two collapse axes as scenario knobs.
//
// The design splits cleanly in two:
//
//   - Calibrate runs each query class once through the full engine
//     (internal/query on a fresh core.Env) and records its service
//     cycles, its per-request working set in EPC pages, and its
//     simulated statistics. Because pipelines are bit-identical between
//     the fast and reference engine paths, so is the calibrated
//     Workload.
//   - Workload.Simulate replays a serving scenario — C closed-loop
//     clients, W pool workers, a dispatch queue under a selectable
//     synchronization model, and a memory-provisioning mode — as a pure
//     integer discrete-event simulation on the virtual clock. No host
//     time, no host randomness: results (latency percentiles,
//     throughput, per-phase breakdown, check value) are bit-reproducible
//     across runs, platforms and engine paths.
//
// The request path models what a DuckDB-style engine inside an enclave
// pays per query: the client's ECALL/EEXIT to submit, a push and a pop
// through the shared dispatch queue (each a critical section under the
// scenario's sgx.QueueModel), the worker's ECALL, the commit of the
// request's working-set pages (serialized across the enclave under
// EDMM), the pipeline's service cycles, and the worker's EEXIT.
package serve

import (
	"fmt"
	"strings"

	"sgxbench/internal/core"
	"sgxbench/internal/engine"
	"sgxbench/internal/mem"
	"sgxbench/internal/plan"
	"sgxbench/internal/platform"
	"sgxbench/internal/query"
	"sgxbench/internal/scan"
	"sgxbench/internal/sgx"
)

// SyncKind selects the dispatch queue's synchronization primitive — the
// contention axis of Section 4.4.
type SyncKind int

const (
	// SyncMutex is the setting-appropriate sleeping mutex: the SGX SDK
	// mutex inside enclaves (sleep and wake are enclave transitions with
	// the mutex held), a futex-based mutex outside.
	SyncMutex SyncKind = iota
	// SyncSpin is a test-and-set spinlock: waiters burn cycles in place
	// but never transition.
	SyncSpin
	// SyncLockFree is a CAS-based lock-free queue.
	SyncLockFree
)

func (k SyncKind) String() string {
	switch k {
	case SyncMutex:
		return "mutex"
	case SyncSpin:
		return "spin"
	case SyncLockFree:
		return "lockfree"
	default:
		return fmt.Sprintf("SyncKind(%d)", int(k))
	}
}

// ParseSync parses a SyncKind name as printed by String.
func ParseSync(s string) (SyncKind, error) {
	switch strings.ToLower(s) {
	case "mutex":
		return SyncMutex, nil
	case "spin", "spinlock":
		return SyncSpin, nil
	case "lockfree", "lock-free", "cas":
		return SyncLockFree, nil
	}
	return 0, fmt.Errorf("serve: unknown sync kind %q (want mutex, spin or lockfree)", s)
}

// MemMode selects how each request's working memory is provisioned —
// the enclave-sizing axis of Fig 12.
type MemMode int

const (
	// MemPreSized: the enclave (or process) was sized for the workload;
	// every page is resident before serving starts. No per-request cost.
	MemPreSized MemMode = iota
	// MemDynamic: each request commits its working-set pages on first
	// touch. Inside an enclave this is EDMM — the AEX/EAUG/EACCEPT
	// protocol per page, serialized across the whole enclave on the
	// page-table lock (the Fig 12 collapse). Outside it is ordinary
	// minor faults, charged to the faulting worker only.
	MemDynamic
)

func (m MemMode) String() string {
	switch m {
	case MemPreSized:
		return "pre"
	case MemDynamic:
		return "dyn"
	default:
		return fmt.Sprintf("MemMode(%d)", int(m))
	}
}

// ParseMem parses a MemMode name as printed by String.
func ParseMem(s string) (MemMode, error) {
	switch strings.ToLower(s) {
	case "pre", "presized", "pre-sized", "static":
		return MemPreSized, nil
	case "dyn", "dynamic", "edmm":
		return MemDynamic, nil
	}
	return 0, fmt.Errorf("serve: unknown memory mode %q (want pre or dyn)", s)
}

// ClassCost is the calibrated cost model of one query class.
type ClassCost struct {
	// Name is the pipeline name (query.Q1Name, ...).
	Name string `json:"name"`
	// ServiceCycles is the pipeline's wall cycles when executed alone by
	// one worker on a warm, pre-sized environment.
	ServiceCycles uint64 `json:"service_cycles"`
	// Pages is the request-private working set in 4 KiB pages: the
	// pre-allocated inter-stage scratch plus everything the operators
	// allocate during one run. Under MemDynamic every request commits
	// this many pages.
	Pages int64 `json:"pages"`
	// EPCPages is the EPC capacity the class was calibrated under
	// (0: unlimited). Set when CalibrateOptions.EPCRatio oversubscribes
	// the enclave relative to the class's probed working set.
	EPCPages int64 `json:"epc_pages,omitempty"`
	// Faults is the demand-paging fault count of the calibration run
	// (non-zero only under an EPC capacity limit with data in EPC).
	Faults uint64 `json:"faults,omitempty"`
	// Check is the pipeline's deterministic check value (equivalence).
	Check uint64 `json:"check"`
}

// Workload is a calibrated service model: the per-class costs plus the
// platform and OS-cost context the simulation charges against.
type Workload struct {
	Setting   core.Setting
	Plat      *platform.Platform
	OS        sgx.OSCosts
	InEnclave bool
	// EPCRatio is the working-set / EPC-capacity oversubscription the
	// classes were calibrated under (0: unlimited enclave).
	EPCRatio float64
	Classes  []ClassCost
	// Stats aggregates the calibration runs' engine statistics; bench
	// golden gates pin it alongside the simulated scenario numbers.
	Stats engine.Stats
}

// CalibrateOptions configures Calibrate. Zero values select small
// serving-sized queries on the paper's platform.
type CalibrateOptions struct {
	Plat      *platform.Platform // default: XeonGold6326().Scaled(32)
	Setting   core.Setting
	Reference bool // per-op reference engine path
	// Dataset shape. Serving workloads are many small queries, so the
	// defaults are deliberately tiny: NDim 256, NFact 4096.
	NDim, NFact, MaxRows int
	Pipelines            []string // default: q1..q5 (+ q2s/q3s when EPCRatio > 0)
	Seed                 uint64   // dataset seed (default 4242)
	// EPCRatio oversubscribes the enclave: each class's working set is
	// probed on an unlimited environment, then the class is calibrated
	// with an EPC capacity of workingSet/EPCRatio pages, so service
	// cycles include the demand-paging cost of running at that ratio.
	// Zero (or any setting that keeps data out of EPC) calibrates on an
	// unlimited enclave. This is the working-set/EPC-ratio scenario axis:
	// calibrate the same mix at ratios 1, 2, 4 and the spill pipelines
	// degrade gracefully while the naive shapes collapse.
	EPCRatio float64
}

func (o *CalibrateOptions) defaults() {
	if o.Plat == nil {
		o.Plat = platform.XeonGold6326().Scaled(32)
	}
	if o.NDim == 0 {
		o.NDim = 1 << 8
	}
	if o.NFact == 0 {
		o.NFact = 1 << 12
	}
	if o.MaxRows == 0 || o.MaxRows > o.NFact {
		o.MaxRows = o.NFact
	}
	if len(o.Pipelines) == 0 {
		o.Pipelines = []string{query.Q1Name, query.Q2Name, query.Q3Name, query.Q4Name, query.Q5Name}
		if o.EPCRatio > 0 {
			// The oversubscription axis is about how operators behave when
			// the working set outgrows the enclave — include the spill
			// shapes so the workload carries both halves of the story.
			o.Pipelines = append(o.Pipelines, query.Q2SName, query.Q3SName)
		}
	}
	if o.Seed == 0 {
		o.Seed = 4242
	}
}

// Calibrate measures each query class once through the full engine and
// returns the Workload the discrete-event simulation replays.
//
// Every class runs on a fresh environment (cold simulated caches, fresh
// address space), single-threaded — one pool worker executes one
// request — with memory pre-sized: dynamic-memory costs (MemDynamic)
// are the serving layer's to charge, per scenario. The calibration is
// deterministic and bit-identical between engine paths, which makes
// every downstream Simulate result so too.
func Calibrate(o CalibrateOptions) (*Workload, error) {
	o.defaults()
	w := &Workload{
		Setting:   o.Setting,
		Plat:      o.Plat,
		OS:        sgx.DefaultOSCosts(),
		InEnclave: o.Setting.InEnclave(),
	}
	w.EPCRatio = o.EPCRatio
	for _, name := range o.Pipelines {
		p, err := query.ByName(name)
		if err != nil {
			return nil, err
		}
		var epcPages int64
		if o.EPCRatio > 0 {
			// Probe the class's EPC working set on an unlimited enclave,
			// then size the capacity limit to oversubscribe it by the
			// requested ratio. Settings that keep data out of EPC probe
			// zero and stay unlimited.
			probe := core.NewEnv(core.Options{
				Plat: o.Plat, Setting: o.Setting, Reference: o.Reference,
			})
			pds := plan.GenDataset(probe, o.NDim, o.NFact, o.Seed)
			p.Run(probe, pds, plan.Options{
				Threads: 1,
				Pred:    scan.Predicate{Lo: 16, Hi: 127},
				MaxRows: o.MaxRows,
				Scratch: plan.NewScratch(probe, pds, 1, o.MaxRows),
			})
			if used := probe.Space.Used(mem.Region{Node: 0, Kind: mem.EPC}); used > 0 {
				ws := (used + 4095) / 4096
				epcPages = int64(float64(ws) / o.EPCRatio)
				if epcPages < 1 {
					epcPages = 1
				}
			}
		}
		env := core.NewEnv(core.Options{
			Plat: o.Plat, Setting: o.Setting, Reference: o.Reference,
			EPCPages: epcPages,
		})
		ds := plan.GenDataset(env, o.NDim, o.NFact, o.Seed)
		reg := env.DataRegion()
		// Snapshot before the scratch so the working set below counts
		// every request-private byte exactly once — the eager scratch,
		// the sort/top-k buffers q4/q5 allocate lazily on first use, and
		// whatever the operators allocate while running (join tables,
		// partition buffers, ...).
		preUsed := env.Space.Used(reg)
		sc := plan.NewScratch(env, ds, 1, o.MaxRows)
		res := p.Run(env, ds, plan.Options{
			Threads: 1,
			Pred:    scan.Predicate{Lo: 16, Hi: 127},
			MaxRows: o.MaxRows,
			Scratch: sc,
		})
		wsBytes := env.Space.Used(reg) - preUsed
		w.Classes = append(w.Classes, ClassCost{
			Name:          name,
			ServiceCycles: res.WallCycles,
			Pages:         (wsBytes + 4095) / 4096,
			EPCPages:      epcPages,
			Faults:        res.Stats.EPCFaults,
			Check:         res.Check,
		})
		w.Stats.Add(res.Stats)
	}
	return w, nil
}

// queueModel maps a SyncKind onto the timing model of the workload's
// execution setting: SyncMutex is the SGX SDK mutex inside enclaves and
// a plain futex mutex outside; spinlocks and lock-free queues behave
// identically in both worlds.
func (w *Workload) queueModel(k SyncKind) sgx.QueueModel {
	switch k {
	case SyncSpin:
		return sgx.SpinlockQueue(w.OS)
	case SyncLockFree:
		return sgx.LockFreeQueue(w.OS)
	default:
		if w.InEnclave {
			return sgx.SGXMutexQueue(w.OS)
		}
		return sgx.PlainMutexQueue(w.OS)
	}
}
