// Command hostbench measures the simulator on the host clock: how fast
// it produces the paper's simulated numbers, and whether they are right.
// It drives the simulator from outside, through its public functions,
// as a single-process closed loop: one operation at a time (one query
// execution, one operator run or one serving-scenario replay), each
// started when the last one ends, on at most two simulated threads.
//
// A timed run (--trace 0) attaches no instrument and prints the
// end-to-end metrics. A traced run (--trace 1) records host-clock spans
// around every call into the simulator and a CPU profile, and prints the
// per-layer metrics. Every operation is checked against the per-op
// reference engine on the same inputs; see README.md.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload olap-suite --seed 1 --seconds 10 --trace 0
//	bash hostbench/run.sh compare parent.jsonl change.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sgxbench/internal/engine"
	"sgxbench/internal/obs"
)

// setupRuns is how many times a timed run sets the workload up (this
// process once, fresh child processes the rest); setup_s is their median.
// Set-up fills process-wide caches (plan.ModelFor), so only a fresh
// process can repeat it.
const setupRuns = 3

// maxLoop bounds the timed loop's wall time, keeping a whole run under
// three minutes whatever --seconds asks for.
const maxLoop = 100 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	record    string
	out       string
	setupOnly bool
	refOnly   bool
}

func runMain(args []string) int {
	var c config
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: olap-suite, epc-spill or serve-openloop")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.IntVar(&c.seconds, "seconds", 10, "host seconds of timed operations to measure")
	fs.IntVar(&c.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&c.record, "record", "", "append this run's result as one JSON line to this file (input to compare)")
	fs.StringVar(&c.out, "out", filepath.Join(".bench_build", "hostbench"), "directory for the traced run's trace and CPU profile")
	fs.BoolVar(&c.setupOnly, "setup-only", false, "set the workload up once, print the set-up seconds and exit")
	fs.BoolVar(&c.refOnly, "reference-only", false, "run one pass on the per-op reference engine, print the signatures and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(benchSizes, c.workload)
	if !ok || c.seconds < 1 || (c.trace != 0 && c.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "hostbench: need --workload olap-suite|epc-spill|serve-openloop, --seconds >= 1 and --trace 0|1")
		fs.Usage()
		return 2
	}
	out, err := runMode(w, c)
	if err == nil {
		var b []byte
		if b, err = json.Marshal(out); err == nil {
			fmt.Println(string(b))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	return 0
}

// runMode makes the run the flags ask for and returns what it prints
// as its last line.
func runMode(w workload, c config) (any, error) {
	switch {
	case c.setupOnly:
		s := &session{w: w, seed: c.seed}
		secs, err := s.setup(nil)
		return setupReport{secs}, err
	case c.refOnly:
		return referenceSignatures(w, c.seed)
	}
	res, err := measure(w, c)
	if err == nil && c.record != "" {
		err = appendRecord(c, res)
	}
	return res, err
}

// measure gets the reference signatures and, for a timed run, the
// extra set-up times from child processes, then makes the run.
func measure(w workload, c config) (*result, error) {
	var ref []string
	if err := child(c, "--reference-only", &ref); err != nil {
		return nil, err
	}
	if c.trace == 1 {
		return tracedRun(w, c, ref)
	}
	var setups []float64
	for i := 1; i < setupRuns; i++ {
		var v setupReport
		if err := child(c, "--setup-only", &v); err != nil {
			return nil, err
		}
		setups = append(setups, v.Seconds)
	}
	return timedRun(w, c, setups, ref)
}

// setupReport is what a --setup-only child prints.
type setupReport struct {
	Seconds float64 `json:"setup_s"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(s *session, m *metricSet) *result {
	for _, name := range m.names {
		fmt.Printf("  %-26s %14.6g %s\n", name, m.vals[name].Value, m.vals[name].Unit)
	}
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m.vals}
}

// session is one run's state: the workload's operations, the reference
// engine's signature of each, and the verification tally.
type session struct {
	w         workload
	seed      uint64
	ops       []op
	ref       []string // reference signature per op ("" when it failed)
	warm      []string // warm-up signature per op
	warmErr   []error
	attempted int
	failed    int
}

// setup sets the workload up for the fast engine: shared state, then a
// warm-up pass that runs every operation once, so that the planner's
// model cache and lazy allocations are filled before timing. It returns
// the seconds it took.
func (s *session) setup(sp *spans) (float64, error) {
	start := time.Now()
	sp.begin("setup")
	defer sp.end()
	ops, err := s.w.setup(sp, s.seed, false)
	if err != nil {
		return 0, fmt.Errorf("%s setup: %w", s.w.name, err)
	}
	s.ops = ops
	s.warm = make([]string, len(ops))
	s.warmErr = make([]error, len(ops))
	for i, o := range ops {
		out, err := guarded(prepare(o, sp))
		s.warm[i], s.warmErr[i] = out.signature(), err
	}
	return time.Since(start).Seconds(), nil
}

// referenceSignatures runs one pass of w on the per-op reference
// engine, over the same inputs as the fast engine's, and returns each
// operation's signature ("" for one that failed).
func referenceSignatures(w workload, seed uint64) ([]string, error) {
	ops, err := w.setup(nil, seed, true)
	if err != nil {
		return nil, fmt.Errorf("%s reference setup: %w", w.name, err)
	}
	sigs := make([]string, len(ops))
	for i, o := range ops {
		out, err := guarded(prepare(o, nil))
		if err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: reference %s: %v\n", o.name, err)
			continue
		}
		sigs[i] = out.signature()
	}
	return sigs, nil
}

// verify takes the reference signatures and checks the warm-up pass
// against them.
func (s *session) verify(ref []string) error {
	if len(ref) != len(s.ops) {
		return fmt.Errorf("%s: %d reference signatures for %d operations", s.w.name, len(ref), len(s.ops))
	}
	s.ref = ref
	for i := range s.ops {
		s.check(i, s.warm[i], s.warmErr[i])
	}
	return nil
}

// check counts one attempted operation and whether it failed: an error,
// a panic, or a simulated result that differs from the reference's.
func (s *session) check(i int, sig string, err error) {
	s.attempted++
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "hostbench: %s failed: %v\n", s.ops[i].name, err)
	case s.ref[i] == "":
		fmt.Fprintf(os.Stderr, "hostbench: %s has no reference result\n", s.ops[i].name)
	case sig != s.ref[i]:
		fmt.Fprintf(os.Stderr, "hostbench: %s differs from the reference engine:\n  fast %s\n  ref  %s\n", s.ops[i].name, sig, s.ref[i])
	default:
		return
	}
	s.failed++
}

// digest folds every operation's reference signature into one value:
// the workload's simulated numbers for this seed.
func (s *session) digest() uint64 {
	h := fnv.New64a()
	for i, o := range s.ops {
		fmt.Fprintf(h, "%s\x00%s\x00", o.name, s.ref[i])
	}
	return h.Sum64()
}

// prepare runs an operation's untimed preparation. A panic there comes
// back as a call that reports it, so that it counts as a failed op.
func prepare(o op, sp *spans) (run func() (outcome, error)) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("prepare: panic: %v", r)
			run = func() (outcome, error) { return outcome{}, err }
		}
	}()
	return o.prep(sp)
}

// guarded runs one timed call, turning a panic into an error.
func guarded(run func() (outcome, error)) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run()
}

// loopStats accumulates the timed operations of complete passes.
type loopStats struct {
	passes int
	cpuMS  []float64     // host CPU time per operation, every thread
	wallMS []float64     // host wall time per operation
	cpu    time.Duration // sum of operation CPU times
	wall   time.Duration // sum of operation wall times
	work   uint64        // simulated work items (see outcome.work)
	outs   []outcome     // one pass worth of outcomes (the last one)
}

// cpuTime returns the CPU time this process has used on all its
// threads. Unlike wall time it leaves out time the machine gave to
// others, such as the hypervisor's steal time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument fails
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loop runs complete passes, each operation prepared outside the timed
// region and started after a forced collection, until the timed
// operations add up to target and at least minOps have run (or maxLoop
// elapses). With sp set it records spans and labels the timed calls for
// the CPU profile; every operation is checked against the reference.
func (s *session) loop(sp *spans, target time.Duration, minOps int, onOp func(out outcome, before, after *runtime.MemStats)) loopStats {
	var ls loopStats
	labels := pprof.Labels("hostbench", "op")
	begin := time.Now()
	for {
		ls.outs = ls.outs[:0]
		for i, o := range s.ops {
			if sp != nil {
				sp.op++
			}
			run := prepare(o, sp)
			runtime.GC()
			var before runtime.MemStats
			if onOp != nil {
				runtime.ReadMemStats(&before)
			}
			var (
				out       outcome
				err       error
				wall, cpu time.Duration
			)
			if sp == nil {
				c, t := cpuTime(), time.Now()
				out, err = guarded(run)
				wall, cpu = time.Since(t), cpuTime()-c
			} else {
				sp.begin("op")
				c, t := cpuTime(), time.Now()
				pprof.Do(context.Background(), labels, func(context.Context) { out, err = guarded(run) })
				wall, cpu = time.Since(t), cpuTime()-c
				sp.end()
			}
			if onOp != nil {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				onOp(out, &before, &after)
			}
			s.check(i, out.signature(), err)
			ls.cpuMS = append(ls.cpuMS, float64(cpu.Nanoseconds())/1e6)
			ls.wallMS = append(ls.wallMS, float64(wall.Nanoseconds())/1e6)
			ls.cpu += cpu
			ls.wall += wall
			ls.work += out.work()
			ls.outs = append(ls.outs, out)
		}
		ls.passes++
		if ls.wall >= target && len(ls.cpuMS) >= minOps {
			return ls
		}
		if time.Since(begin) > maxLoop {
			fmt.Fprintf(os.Stderr, "hostbench: stopped after %v of wall time with %d operations (%v timed)\n", maxLoop, len(ls.cpuMS), ls.wall)
			return ls
		}
	}
}

// timedRun measures the end-to-end metrics with no instrument attached.
// setups holds the set-up seconds of earlier fresh processes; this
// run's own set-up joins them.
func timedRun(w workload, c config, setups []float64, ref []string) (*result, error) {
	s := &session{w: w, seed: c.seed}
	secs, err := s.setup(nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, secs)
	if err := s.verify(ref); err != nil {
		return nil, err
	}
	ls := s.loop(nil, time.Duration(c.seconds)*time.Second, minSamplesFor(90), nil)
	p50, b50 := percentile(ls.cpuMS, 50)
	p90, b90 := percentile(ls.cpuMS, 90)
	w50, _ := percentile(ls.wallMS, 50)
	w90, _ := percentile(ls.wallMS, 90)
	s.report(ls)
	fmt.Printf("  op_cpu_ms: n=%d, p50 has %d beyond, p90 has %d beyond\n", len(ls.cpuMS), b50, b90)
	fmt.Printf("  wall time per op: p50 %.4g ms, p90 %.4g ms; %.4g work items per wall second\n", w50, w90, float64(ls.work)/ls.wall.Seconds())
	fmt.Printf("  setup_s samples %v\n", setups)
	var m metricSet
	workPerPass := float64(ls.work) / float64(ls.passes)
	m.add("sim_work_per_cpu_s", "1/s", workPerPass/(typicalPass(ls.cpuMS, len(s.ops))/1e3))
	m.add("op_cpu_ms_p50", "ms", p50)
	m.add("op_cpu_ms_p90", "ms", p90)
	m.add("setup_s", "s", median(setups))
	m.add("peak_heap_mb", "MB", float64(s.peakLiveHeap())/(1<<20))
	return newResult(s, &m), nil
}

// report prints the run's human-readable summary lines.
func (s *session) report(ls loopStats) {
	rate := float64(s.failed) / float64(max(s.attempted, 1))
	fmt.Printf("hostbench %s seed=%d: %d ops in %d passes, %v wall and %v CPU timed; attempted=%d failed=%d error_rate=%g\n",
		s.w.name, s.seed, len(ls.cpuMS), ls.passes, ls.wall.Round(time.Millisecond), ls.cpu.Round(time.Millisecond), s.attempted, s.failed, rate)
	fmt.Printf("sim_digest %s seed=%d %#016x\n", s.w.name, s.seed, s.digest())
}

// child runs this program again in a fresh process with the run's
// workload and seed and the given mode flag, waits for it, and decodes
// the JSON on its last line of output into v. Set-up runs in a child
// because set-up fills process-wide caches (plan.ModelFor) that only a
// fresh process repeats; the reference pass runs in one so that the
// reference engine leaves no heap or cache state in the measured
// process.
func child(c config, mode string, v any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, mode, "--workload", c.workload, "--seed", strconv.FormatUint(c.seed, 10))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("%s child printed %q: %w", mode, lines[len(lines)-1], err)
	}
	return nil
}

// tracedRun measures the per-layer metrics: half of --seconds with no
// instrument (the baseline for the tracing overhead), then half with
// spans and a CPU profile whose samples of the timed calls are
// attributed to the simulator's packages. Per-layer values are per pass:
// one execution of every operation of the workload.
func tracedRun(w workload, c config, ref []string) (*result, error) {
	sp := newSpans(1 << 18)
	s := &session{w: w, seed: c.seed}
	if _, err := s.setup(sp); err != nil {
		return nil, err
	}
	if err := s.verify(ref); err != nil {
		return nil, err
	}
	half := time.Duration(c.seconds) * time.Second / 2
	base := s.loop(nil, half, 1, nil)

	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(c.out, fmt.Sprintf("%s.seed%d", w.name, c.seed))
	prof, err := os.Create(stem + ".cpu.pb.gz")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	var allocBytes, gcCycles, phaseNS uint64
	traced := s.loop(sp, half, 1, func(out outcome, before, after *runtime.MemStats) {
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcCycles += uint64(after.NumGC - before.NumGC)
		for _, p := range out.phases {
			phaseNS += uint64(p.HostNanos)
		}
	})
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	s.report(traced)

	if err := writeTrace(stem+".trace.json", sp.tr); err != nil {
		return nil, err
	}
	if d := sp.tr.Dropped(); d > 0 {
		return nil, fmt.Errorf("span buffer dropped %d spans", d)
	}
	f, err := os.Open(stem + ".cpu.pb.gz")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cpu, err := cpuByLayer(f, "hostbench", "op")
	if err != nil {
		return nil, err
	}
	spansAll := sp.tr.Spans()
	setupSpans, opSpans := summarize(spansAll, true), summarize(spansAll, false)
	printSpans("set-up spans", setupSpans, 1)
	printSpans("operation spans, per pass", opSpans, traced.passes)
	fmt.Printf("  cpu profile %s.cpu.pb.gz, trace %s.trace.json\n", stem, stem)

	perPass := func(x float64) float64 { return x / float64(traced.passes) }
	msPerPass := func(d time.Duration) float64 { return perPass(float64(d.Nanoseconds()) / 1e6) }
	// The simulated counts repeat exactly in every pass: take the last.
	var st engine.Stats
	var phases, req, transitions, retries, timeouts, steals, batches uint64
	for _, o := range traced.outs {
		st.Add(o.stats)
		phases += uint64(len(o.phases))
		if r := o.serve; r != nil {
			req += uint64(r.Requests)
			transitions += r.Breakdown.Transitions
			retries += r.Breakdown.Retries
			timeouts += r.Breakdown.Timeouts
			steals += r.DispatchStats.Steals
			batches += r.DispatchStats.Batches
		}
	}
	selfMS := func(layer string) float64 { return perPass(cpu[layer] / 1e6) }
	setupMS := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += setupSpans[n].Total
		}
		return float64(d.Nanoseconds()) / 1e6
	}
	opMS := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += opSpans[n].Total
		}
		return msPerPass(d)
	}
	accesses := st.Loads + st.Stores
	var m metricSet
	m.add("cache.self_ms", "ms", selfMS("cache"))
	m.add("cache.ns_per_access", "ns", nsPer(selfMS("cache"), accesses))
	m.add("cache.l1_hits", "count", float64(st.L1Hits))
	m.add("cache.l2_hits", "count", float64(st.L2Hits))
	m.add("cache.l3_hits", "count", float64(st.L3Hits))
	m.add("cache.dram_accesses", "count", float64(st.DRAMAcc))
	m.add("cache.tlb_walks", "count", float64(st.TLBWalks))
	m.add("engine.self_ms", "ms", selfMS("engine"))
	m.add("engine.ns_per_access", "ns", nsPer(selfMS("engine"), accesses))
	m.add("engine.loads", "count", float64(st.Loads))
	m.add("engine.stores", "count", float64(st.Stores))
	m.add("engine.nt_stores", "count", float64(st.NTStores))
	m.add("engine.epc_faults", "count", float64(st.EPCFaults))
	m.add("engine.epc_evictions", "count", float64(st.EPCEvictions))
	for _, pkg := range []string{"kernels", "scan", "join", "agg", "sort", "btree"} {
		m.add(pkg+".self_ms", "ms", selfMS(pkg))
	}
	m.add("join.grace.ms", "ms", opMS("join.GRACE.Run"))
	m.add("join.pht.ms", "ms", opMS("join.PHT.Run"))
	m.add("agg.spill.ms", "ms", opMS("agg.SpillRun"))
	m.add("agg.direct.ms", "ms", opMS("agg.DirectRun"))
	m.add("exec.phases", "count", float64(phases))
	m.add("exec.phase_host_ms", "ms", perPass(float64(phaseNS)/1e6))
	m.add("plan.modelfor_ms", "ms", setupMS("plan.ModelFor"))
	m.add("plan.dataset_ms", "ms", setupMS("plan.GenSuiteDataset"))
	choose := 0.0
	if t := opSpans["plan.Query.Plan"]; t.Count > 0 {
		choose = float64(t.Total.Nanoseconds()) / 1e3 / float64(t.Count)
	}
	m.add("plan.choose_us", "us", choose)
	m.add("plan.execute_ms", "ms", opMS("plan.Execute"))
	gap := 0.0
	if opSpans["plan.Execute"].Count > 0 {
		gap = opMS("plan.Execute") - perPass(float64(phaseNS)/1e6)
	}
	m.add("plan.node_gap_ms", "ms", gap)
	m.add("serve.calibrate_ms", "ms", setupMS("serve.Calibrate"))
	m.add("serve.simulate_ms", "ms", opMS("serve.Workload.Simulate"))
	m.add("serve.self_ms", "ms", selfMS("serve"))
	m.add("serve.ns_per_request", "ns", nsPer(opMS("serve.Workload.Simulate"), req))
	m.add("serve.requests", "count", float64(req))
	m.add("serve.transitions", "count", float64(transitions))
	m.add("serve.retries", "count", float64(retries))
	m.add("serve.timeouts", "count", float64(timeouts))
	m.add("serve.steals", "count", float64(steals))
	m.add("serve.batches", "count", float64(batches))
	m.add("setup.env_ms", "ms", setupMS("core.NewEnv"))
	m.add("setup.datagen_ms", "ms", setupMS("plan.GenSuiteDataset", "rel.GenFKPair"))
	m.add("runtime.self_ms", "ms", selfMS("runtime"))
	m.add("go.alloc_mb", "MB", perPass(float64(allocBytes)/(1<<20)))
	m.add("go.gc_cycles", "count", perPass(float64(gcCycles)))
	m.add("bench.self_ms", "ms", msPerPass(opSpans["op"].Self))
	m.add("bench.trace_overhead_pct", "%", (perPass(traced.cpu.Seconds())*float64(base.passes)/base.cpu.Seconds()-1)*100)
	return newResult(s, &m), nil
}

func printSpans(title string, t map[string]spanTotal, passes int) {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %s:\n", title)
	for _, n := range names {
		fmt.Printf("    %-26s n=%-6d total=%-12v self=%v\n", n, t[n].Count/passes,
			(t[n].Total / time.Duration(passes)).Round(time.Microsecond), (t[n].Self / time.Duration(passes)).Round(time.Microsecond))
	}
}

func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, tr, nil); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// record is one line of a result set: a run's result with the workload
// and seed it was measured on.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(c config, res *result) error {
	b, err := json.Marshal(record{Workload: c.workload, Seed: c.seed, Trace: c.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(c.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a result set written with --record.
func readRecords(r io.Reader) ([]record, error) {
	dec := json.NewDecoder(r)
	var out []record
	for {
		var rec record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("record for %q has no result", rec.Workload)
		}
		out = append(out, rec)
	}
}
