// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (see workloads.go) as a closed loop — one client, each
// op issued when the previous one has finished — at GOMAXPROCS = the
// CPUs available, checks every op against references computed during
// setup, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cpals-64c3-r16 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends half the
// time untraced and half with an obs.Collector and a flight.Recorder
// on, and reports the per-layer metrics: self times resolved from the
// flight begin/end pairs (they partition the traced op time), exact
// counts, runtime allocation figures, and the tracing overhead.
//
// Timings on a shared host drift by minutes, not by runs: compare two
// commits by interleaving their runs, and compare exact counts (words,
// flops, allocations) as counts, not as times.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/plan"
	"repro/internal/simd"
)

// processStart approximates process start: the first setup's wall time
// is taken from here, and its CPU time from the process's start, so the
// first setup covers everything before the first timed op.
var processStart = time.Now()

const (
	// setupReps is how many times setup runs; setup_s is the median.
	setupReps = 5
	// opDeadline bounds one op. The slowest op (a Tucker solve) takes
	// about a second; a miss is a hang, counted as a failure, and ends
	// the loop.
	opDeadline = 20 * time.Second
	// minOps keeps the tail percentile defined (it needs 11 samples)
	// even when --seconds is too short for them.
	minOps = 11
	// maxLoop caps a loop stretched by minOps on a very slow host.
	maxLoop = 60 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the --trace 0 metrics, as BENCHMARK.json does. The
// wall-time figures of the loop — ops_per_s, op_ms_p50 and op_ms_tail —
// are printed beside them on every run but reported as per-layer rows:
// on a shared 2-vCPU host whose hypervisor takes up to 40% of the CPUs
// while they are busy, the share it takes moves from run to run, and
// with it these figures' spread over ten seeds reached 0.2-0.5 of the
// median, past the largest bound a gate may use. The CPU time of an op
// does not include what the hypervisor takes and moves about a third
// as much.
var endToEnd = []struct{ name, unit string }{
	// setup_s is the process CPU time of one setup, the median of
	// setupReps, for the same reason: the wall time of the same setups
	// (printed as setup_wall_s) moved by half between two ten-seed sets.
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	// heap_inuse_mb is the median heap in use at op ends. Where an op's
	// last GC cycle falls sets how much of its garbage is still in use
	// when it ends: on dist-64c3-r16-p8 op ends sit at about 5, 8 or
	// 13 MB, and a high percentile (p90 read 8.2 to 13.6 MB over ten
	// seeds) lands on one mode or another from run to run, while the
	// median stays on the 8 MB one.
	{"heap_inuse_mb", "MB"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name: "+workloadNames())
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if !(*seconds > 0) || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	if err := bench(stdout, wl, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// setupRep is one timed setup: its wall time, the process CPU time it
// used, and the wall time of its parts.
type setupRep struct {
	total, cpu, calibrate time.Duration
	times                 setupTimes
}

// runner holds one run's state.
type runner struct {
	wl      workloadDef
	drv     driver
	inst    instance
	probs   []shapeProblem
	reps    []setupRep
	cal     *plan.Calibration // the run's one calibration, which the ops plan against
	choices []plan.Choice     // its plan per problem
	calPath string
	out     io.Writer
}

func bench(stdout io.Writer, wl workloadDef, seed int64, seconds float64, traced bool) error {
	np := nproc()
	runtime.GOMAXPROCS(np)

	// plan.Auto reads its calibration from this file. Each setup
	// measures afresh and rewrites it, so no earlier run's constants
	// leak in; the file lives in the checkout and is removed at exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	r := &runner{wl: wl, drv: driver{pid: wl.driverPid}, out: stdout,
		calPath: filepath.Join(".bench_build", fmt.Sprintf("perfbench-calibration-%d.json", os.Getpid()))}
	if err := os.Setenv(plan.EnvCachePath, r.calPath); err != nil {
		return err
	}
	defer func() { _ = os.Remove(r.calPath) }() // best-effort: a leftover file is only clutter

	if err := r.setup(seed, np); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.printEnv(seed, seconds, traced, np)

	// The inputs stay live for the whole run; drop the garbage of the
	// repeated setups so heap_inuse_mb reflects the loop.
	debug.FreeOSMemory()

	var res result
	if traced {
		res = r.runTraced(seconds)
	} else {
		res = r.runUntraced(seconds)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// setup runs the workload's whole setup setupReps times, calibration
// included, so that setup_s is a median, and keeps the last one: its
// instance, and its plan.Measure reading as the run's one calibration,
// which every op plans against through plan.Auto as the cmd/ tools do.
// The first setup is timed from process start.
func (r *runner) setup(seed int64, np int) error {
	for i := 0; i < setupReps; i++ {
		start, cpu0 := time.Now(), processCPU()
		if i == 0 {
			start, cpu0 = processStart, 0
		}
		// Calibrate on a quiet process: a GC cycle still running from
		// the previous setup would take the second CPU and read as low
		// parallel efficiency.
		runtime.GC()
		t0 := time.Now()
		cal := plan.Measure()
		if err := cal.Save(r.calPath); err != nil {
			return err
		}
		rep := setupRep{calibrate: time.Since(t0)}
		inst, times, err := r.wl.setup(seed, np)
		if err != nil {
			return err
		}
		rep.times = times
		rep.total, rep.cpu = time.Since(start), processCPU()-cpu0
		r.reps = append(r.reps, rep)
		r.inst, r.cal = inst, cal
	}
	r.probs = r.inst.problems()
	for _, sp := range r.probs {
		c, err := plan.Plan(sp.prob, r.cal)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.key, err)
		}
		r.choices = append(r.choices, c)
	}
	return nil
}

// printEnv records the environment and the plans of this run.
func (r *runner) printEnv(seed int64, seconds float64, traced bool, np int) {
	// One entry per shape: the plan the ops use. A shape whose plan
	// differs between two runs' lines times a different engine or worker
	// count, not different code.
	type planRec struct {
		Shape  string      `json:"shape"`
		Choice plan.Choice `json:"choice"`
	}
	var plans []planRec
	for i, sp := range r.probs {
		plans = append(plans, planRec{Shape: sp.key, Choice: r.choices[i]})
	}
	commit, digest := sourceIdentity()
	env := map[string]any{
		"workload":        r.wl.name,
		"seed":            seed,
		"seconds":         seconds,
		"traced":          traced,
		"loop":            "closed, 1 client",
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           np,
		"simd":            simd.Describe(),
		"repro_nosimd":    os.Getenv("REPRO_NOSIMD"),
		"calibration_key": plan.Key(),
		"go":              runtime.Version(),
		"commit":          commit,
		"source_sha256":   digest,
		"plans":           plans,
	}
	b, err := json.Marshal(env)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(r.out, "env %s\n", b)
}

// sourceIdentity returns the VCS revision stamped into the binary, if
// any, and a digest of the repository's Go sources, which identifies
// the code under test even in a checkout that is not a git repository.
func sourceIdentity() (commit, digest string) {
	commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		_, _ = h.Write(data) // hash.Hash writes never fail
		return nil
	})
	if err != nil {
		return commit, "unknown"
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

// loopStats summarizes one closed loop.
type loopStats struct {
	attempted, failed int
	durs              []time.Duration // every attempted op, failures included
	cpu               []time.Duration // process CPU time (user + system) during each op
	elapsed           time.Duration
	heapInuse         []float64 // heap in use at each op end, bytes
	counts            opCounts  // exact counts of the last successful op
	aborted           bool      // an op missed its deadline
}

func (s loopStats) succeeded() int { return s.attempted - s.failed }

func (s loopStats) opsPerSec() float64 {
	return float64(s.succeeded()) / s.elapsed.Seconds()
}

// cpuMsPerOp is the median over ops of the process CPU time each op
// used, in ms. The median leaves out ops that a burst of load on the
// host's other tenants slowed.
func (s loopStats) cpuMsPerOp() float64 {
	ms := make([]float64, len(s.cpu))
	for i, d := range s.cpu {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	return median(ms)
}

// meanOp is the mean timed op duration, hooks excluded.
func (s loopStats) meanOp() time.Duration {
	var sum time.Duration
	for _, d := range s.durs {
		sum += d
	}
	return sum / time.Duration(max(len(s.durs), 1))
}

// opHooks are the untimed steps around each op of a loop: before runs
// before the op's timer starts, after once it has stopped, with the
// op's timed duration. An error from after fails the op.
type opHooks struct {
	before func()
	after  func(wall time.Duration) error
}

// loop runs ops back to back for the given time. each runs one op and
// returns its counts. An op that misses its deadline ends the loop,
// since its abandoned goroutine still owns the inputs.
func (r *runner) loop(seconds float64, each func() (opCounts, error), h opHooks) loopStats {
	var s loopStats
	var ms runtime.MemStats
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= budget && s.attempted >= minOps) || el >= max(budget, maxLoop) {
			break
		}
		if h.before != nil {
			h.before()
		}
		var c opCounts
		cpu0, t0 := processCPU(), time.Now()
		err := runOp(func() error {
			var err error
			c, err = each()
			return err
		}, opDeadline)
		wall := time.Since(t0)
		s.durs = append(s.durs, wall)
		s.cpu = append(s.cpu, processCPU()-cpu0)
		s.attempted++
		if err == nil && h.after != nil {
			err = h.after(wall)
		}
		if err != nil {
			s.failed++
			if s.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", s.attempted, err)
			}
			if errors.Is(err, errTimeout) {
				s.aborted = true
				break
			}
		} else {
			s.counts = c
		}
		runtime.ReadMemStats(&ms)
		s.heapInuse = append(s.heapInuse, float64(ms.HeapInuse))
	}
	s.elapsed = time.Since(start)
	return s
}

// processCPU is the CPU time all of the process's threads have used.
// A hypervisor's steal time is not charged to it, so per op it moves
// with a shared host's load far less than wall time does.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warm runs one untimed, verified op so the loops start with grown
// workspaces; a failure is returned for the caller to count.
func (r *runner) warm() error {
	return runOp(func() error {
		_, err := r.inst.op(nil)
		return err
	}, opDeadline)
}

func (r *runner) untracedOp() (opCounts, error) {
	return r.inst.op(nil)
}

func (r *runner) runUntraced(seconds float64) result {
	res := result{Metrics: map[string]metric{}}
	if err := r.warm(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up op failed:", err)
		return r.failedResult(res, endToEndNames())
	}
	s := r.loop(seconds, r.untracedOp, opHooks{})
	p50, tail, tailPct := latency(s.durs)
	var totals, cpus []float64
	for _, rep := range r.reps {
		totals = append(totals, rep.total.Seconds())
		cpus = append(cpus, rep.cpu.Seconds())
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(cpus))
	set("cpu_ms_per_op", "ms", s.cpuMsPerOp())
	set("heap_inuse_mb", "MB", median(s.heapInuse)/1e6)
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0 && !s.aborted

	fmt.Fprintf(r.out, "%-24s %14s  %s\n", "metric", "value", "unit")
	for _, m := range endToEnd {
		fmt.Fprintf(r.out, "%-24s %14.6g  %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(r.out, "%-24s %14.6g  s (wall; not gated)\n", "setup_wall_s", median(totals))
	fmt.Fprintf(r.out, "%-24s %14.6g  1/s (wall; not gated)\n", "ops_per_s", s.opsPerSec())
	fmt.Fprintf(r.out, "%-24s %14.6g  ms (wall; not gated)\n", "op_ms_p50", p50)
	fmt.Fprintf(r.out, "%-24s %14.6g  ms (wall, p%.1f of %d ops, 10 beyond it; not gated)\n", "op_ms_tail", tail, tailPct, len(s.durs))
	fmt.Fprintf(r.out, "fail_ratio %d/%d\n", s.failed, s.attempted)
	r.printCounts(s.counts)
	return res
}

func (r *runner) printCounts(c opCounts) {
	if c.fit > 0 {
		fmt.Fprintf(r.out, "fit %.12f\n", c.fit)
	}
	if c.commWordsMax != 0 {
		fmt.Fprintf(r.out, "comm_words_max %d words, comm_ratio_bound %.4f\n",
			c.commWordsMax, float64(c.commWordsMax)/c.commBound)
	}
	if c.dimtreeFlops != 0 {
		fmt.Fprintf(r.out, "dimtree.flops %d\n", c.dimtreeFlops)
	}
}

func endToEndNames() []string {
	var out []string
	for _, m := range endToEnd {
		out = append(out, m.name)
	}
	return out
}

// failedResult reports a run that could not measure: every metric is
// present, with a value of -1 for "not measured", and correct is false.
func (r *runner) failedResult(res result, names []string) result {
	for _, n := range names {
		res.Metrics[n] = metric{Value: -1, Unit: unitOf(n)}
	}
	res.Attempted, res.Failed = 1, 1
	return res
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// latency returns the median op time and the tail: the highest
// percentile with at least ten samples beyond it, i.e. the 11th
// slowest op, and that percentile. With fewer than 11 samples the tail
// is the slowest op.
func latency(durs []time.Duration) (p50, tail, pct float64) {
	if len(durs) == 0 {
		return 0, 0, 0
	}
	ms := make([]float64, len(durs))
	for i, d := range durs {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	n := len(ms)
	k := max(n-11, 0)
	return median(ms), ms[k], 100 * float64(k+1) / float64(n)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent on GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// newRecorder returns a recorder for one traced op: one ring for a
// shared-memory op, one per rank plus the driver's for a simulated
// one (where anonymous engine events inside ranks are dropped).
func (r *runner) newRecorder() *flight.Recorder {
	if r.wl.ranks > 0 {
		return flight.NewDistributed(r.wl.ranks+1, r.wl.ringCap)
	}
	return flight.New(1, r.wl.ringCap)
}

// runTraced spends half the time untraced, for the runtime figures and
// the overhead baseline, and half traced, one fresh recorder per op.
func (r *runner) runTraced(seconds float64) result {
	res := result{Metrics: map[string]metric{}}
	if err := r.warm(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up op failed:", err)
		return r.failedResult(res, perLayerNames())
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	g0 := runtime.NumGoroutine()
	plain := r.loop(seconds/2, r.untracedOp, opHooks{})
	runtime.ReadMemStats(&m1)
	gc1 := gcCPUSeconds()
	g1 := runtime.NumGoroutine()

	// Only the traced op itself is timed: the recorder's allocation
	// happens before the timer starts, and reading, resolving and
	// checking its events after the timer stops.
	col := obs.New(0)
	ot := &opTrace{words: func() int64 { return col.Totals().Words() }}
	acc := newLayerAcc()
	var rec *flight.Recorder
	traced := r.loop(seconds/2, func() (opCounts, error) {
		obs.Enable(col)
		flight.Enable(rec)
		defer obs.Disable()
		defer flight.Disable()
		r.drv.begin(nmOp)
		defer r.drv.end(nmOp)
		return r.inst.op(ot)
	}, opHooks{
		before: func() {
			rec = r.newRecorder()
			ot.plans = ot.plans[:0]
			col.Reset()
		},
		after: func(wall time.Duration) error {
			acc.dropped += rec.Dropped()
			acc.events += rec.TotalCount()
			lay, err := resolve(rec.Events(), r.wl.driverPid, r.wl.ranks)
			if err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			if err := checkOpSpan(lay.opNs, wall); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			acc.add(lay, ot.plans, wall)
			return nil
		},
	})

	ops := float64(max(plain.succeeded(), 1))
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	for _, n := range perLayerNames() {
		set(n, 0)
	}
	var calib, gen, ref []float64
	for _, rep := range r.reps {
		calib = append(calib, rep.calibrate.Seconds())
		gen = append(gen, rep.times.generate.Seconds())
		ref = append(ref, rep.times.reference.Seconds())
	}
	set("plan.calibrate_s", median(calib))
	set("workload.generate_s", median(gen))
	set("seq.reference_s", median(ref))
	set("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops)
	set("runtime.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/ops)
	set("runtime.gc_ms_per_op", (gc1-gc0)*1e3/ops)
	set("runtime.goroutines_per_op", float64(g1-g0)/ops)
	p50, tail, _ := latency(plain.durs)
	set("ops_per_s", plain.opsPerSec())
	set("op_ms_p50", p50)
	set("op_ms_tail", tail)
	probeFailed := 0
	if o, ok := r.inst.(*oneshotInst); ok {
		n, err := o.freshCallGoroutines()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: fresh sparse call:", err)
			probeFailed = 1
		}
		set("sparse.fresh_call_goroutines", float64(n))
	}
	// Untraced ops/s over traced ops/s, both over timed op time only.
	if p := plain.meanOp(); p > 0 {
		set("trace.overhead_ratio", float64(traced.meanOp())/float64(p))
	}
	c := traced.counts
	set("fit", c.fit)
	set("dimtree.flops", float64(c.dimtreeFlops))
	set("comm_words_max", float64(c.commWordsMax))
	if c.commBound > 0 {
		set("comm_ratio_bound", float64(c.commWordsMax)/c.commBound)
	}
	set("simnet.words_max", float64(c.rankWordsMax))
	set("simnet.msgs_max", float64(c.msgsMax))
	set("simnet.sends_total", float64(c.sendsTotal))

	partErr := acc.report(set)
	res.Attempted = plain.attempted + traced.attempted + probeFailed
	res.Failed = plain.failed + traced.failed + probeFailed
	res.Correct = res.Failed == 0 && !plain.aborted && !traced.aborted && acc.dropped == 0 && partErr == nil
	if acc.dropped != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: flight recorder dropped %d events\n", acc.dropped)
	}
	if partErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", partErr)
	}

	fmt.Fprintf(r.out, "%-36s %14s  %s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		fmt.Fprintf(r.out, "%-36s %14.6g  %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(r.out, "traced ops %d, untraced ops %d; self times + unattributed_ms = trace.op_ms\n",
		traced.succeeded(), plain.succeeded())
	return res
}

// layerAcc sums resolved traces over the traced ops.
type layerAcc struct {
	ops         int
	opNs        int64 // bench.op spans
	wallNs      int64 // the same ops' timed wall time
	self        map[string]int64
	kernelNs    int64
	kernelFlops int64
	dropped     int64
	events      int64
	predS       map[string]float64 // sum of measured/predicted seconds
	predW       map[string]float64 // sum of measured/predicted words
	predN       map[string]int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{self: map[string]int64{}, predS: map[string]float64{},
		predW: map[string]float64{}, predN: map[string]int{}}
}

func (a *layerAcc) add(l opLayers, plans []planSample, wall time.Duration) {
	a.ops++
	a.opNs += l.opNs
	a.wallNs += int64(wall)
	for k, v := range l.self {
		a.self[k] += v
	}
	a.kernelNs += l.kernelNs
	a.kernelFlops += l.kernelFlops
	for _, p := range plans {
		if p.predicted.Seconds > 0 {
			a.predS[p.key] += p.seconds / p.predicted.Seconds
		}
		if p.predicted.Words > 0 {
			a.predW[p.key] += float64(p.words) / p.predicted.Words
		}
		a.predN[p.key]++
	}
}

// report sets the traced per-layer metrics, means per traced op. The
// driver-row self times partition trace.op_ms by construction (see
// resolve); the spans are checked against the ops' timed wall time.
func (a *layerAcc) report(set func(string, float64)) error {
	if a.ops == 0 {
		return fmt.Errorf("no traced op completed")
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(a.ops) }
	for _, m := range partitionMetrics() {
		set(m, perOp(a.self[m]))
	}
	for _, m := range rankMetric {
		set(m, perOp(a.self[m]))
	}
	set(otherRank, perOp(a.self[otherRank]))
	set("trace.op_ms", perOp(a.opNs))
	if a.kernelNs > 0 {
		set("kernel.gflops", float64(a.kernelFlops)/float64(a.kernelNs))
	}
	set("trace.dropped", float64(a.dropped))
	set("trace.events_per_op", float64(a.events)/float64(a.ops))
	for k, n := range a.predN {
		set("plan.pred_ratio_s."+k, a.predS[k]/float64(n))
		set("plan.pred_ratio_words."+k, a.predW[k]/float64(n))
	}
	return checkSpanCover(a.opNs, a.wallNs, a.ops)
}
