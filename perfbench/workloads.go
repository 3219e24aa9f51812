package main

// The four workloads. Each one drives the repository's internal
// packages through the exported entry points the cmd/ tools use, and
// each exists to put one group of layers on the critical path while
// the others stay idle, so a change to one layer moves one workload
// and leaves the rest as controls:
//
//   - cpals-64c3-r16 isolates dimtree (plus plan, once per solve).
//   - hooi-64c3-r8 isolates the eigensolver (linalg) with ttm beside it.
//   - dist-64c3-r16-p8 isolates simnet, comm and par.
//   - mttkrp-oneshot-mix isolates plan, kernel, fast32 and sparse per call.
//
// Every op is checked against a reference computed during setup, so a
// fast wrong answer counts as a failure, never as a speed-up.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/cpals"
	"repro/internal/obs/flight"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/seq"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/tucker"
	"repro/internal/workload"
)

// mttkrpTol is the absolute tolerance cmd/mttkrp accepts between an
// f64 engine and the atomic reference kernel.
const mttkrpTol = 1e-9

// Benchmark span names. The benchmark records these on the driver row
// around every call it makes; the program's own spans nest inside.
var (
	nmOp        = flight.RegisterName("bench.op")
	nmPlan      = flight.RegisterName("bench.plan")
	nmPrepare   = flight.RegisterName("bench.prepare")
	nmRun       = flight.RegisterName("bench.run")
	nmSparseBld = flight.RegisterName("bench.sparse-build")
	nmSparseRun = flight.RegisterName("bench.sparse-run")
	nmVerify    = flight.RegisterName("bench.verify")
	nmParallel  = flight.RegisterName("bench.parallel")
)

// opCounts are the exact counts one op produces. They do not depend on
// timing, so they are reported as their own rows rather than folded
// into a time.
type opCounts struct {
	fit          float64 // final solver fit (solver workloads)
	dimtreeFlops int64   // dimension-tree MTTKRP flops of the solve
	commWordsMax int64   // sum over runs of max-over-ranks words sent+received
	commBound    float64 // sum over runs of the Thm 4.2/4.3 par-best bound
	rankWordsMax int64   // max over ranks of words summed over runs
	msgsMax      int64   // sum over runs of max-over-ranks messages
	sendsTotal   int64   // sum over runs of words sent by all ranks
}

// planSample is one planned call of a traced op: what the planner
// predicted for it and what Prepare plus Run measured.
type planSample struct {
	key       string
	predicted plan.Cost
	seconds   float64
	words     int64
}

// opTrace carries the traced run's per-op state; nil when untraced.
type opTrace struct {
	words func() int64 // obs-counted memory words so far
	plans []planSample
}

// instance is one workload after setup: its inputs, the references
// its ops are checked against, and the shapes it plans.
type instance interface {
	// op runs one timed operation and verifies its output.
	op(ot *opTrace) (opCounts, error)
	// problems lists the planner problems the workload plans per op,
	// keyed by shape, for the environment record and plan checks.
	problems() []shapeProblem
}

type shapeProblem struct {
	key  string
	prob plan.Problem
}

// setupTimes splits one setup into the layers the per-layer metrics
// name; calibration is timed by the caller.
type setupTimes struct {
	generate  time.Duration
	reference time.Duration
}

type workloadDef struct {
	name string
	why  string
	// driverPid is the flight row the benchmark's spans use: the
	// anonymous engine row for shared-memory workloads (so engine spans
	// nest under the benchmark's), a row past the last rank for the
	// distributed one (whose ranks own rows 0..P-1).
	driverPid int
	ranks     int // simulated ranks (0 = shared memory)
	ringCap   int // flight events per track, sized so one op never wraps
	setup     func(seed int64, nproc int) (instance, setupTimes, error)
}

// driver records the benchmark's own spans on the workload's driver row.
type driver struct{ pid int }

func (d driver) begin(name uint8) { flight.Rec().Begin(d.pid, 0, name) }
func (d driver) end(name uint8)   { flight.Rec().End(d.pid, 0, name) }

// autoPlan plans a problem as the cmd/ tools do — plan.Auto, then Apply —
// inside a bench.plan span.
func (d driver) autoPlan(p plan.Problem) (plan.Choice, error) {
	d.begin(nmPlan)
	defer d.end(nmPlan)
	choice, _, err := plan.Auto(p)
	if err == nil {
		choice.Apply()
	}
	return choice, err
}

const distRanks = 8

var workloads = []workloadDef{
	{
		// CP-ALS is the paper's motivating application: a whole solve is
		// what a user waits for. Planned as cmd/cpals plans it, it runs the
		// dimension-tree engine here, so dimtree does ~70% of the work and
		// linalg's solves most of the rest. Ten sweeps with early stopping
		// off keep the work per solve independent of where ALS converges
		// for a seed. The tensor is 64³ (2 MB), which stays in a core's
		// L2: a 128³ tensor (16 MB) lives in the L3 the host shares with
		// other tenants, and in interleaved runs its CPU time per solve
		// spread 12.5% of the median over ten seeds, against 3.1% at 64³.
		name:      "cpals-64c3-r16",
		why:       "whole CP-ALS solve (10 sweeps, planned engine): isolates dimtree, amortizes plan",
		driverPid: flight.AnonPid,
		ringCap:   1 << 16,
		setup:     setupCPALS,
	},
	{
		// A Tucker solve (HOSVD init plus 3 HOOI sweeps). The eigensolve
		// dominates and ttm does a few percent, so eigensolver work shows
		// here and nowhere else; dimtree and kernel do no work.
		name:      "hooi-64c3-r8",
		why:       "whole Tucker solve (HOSVD + 3 HOOI sweeps): isolates linalg eigensolves, with ttm beside them",
		driverPid: flight.AnonPid,
		ringCap:   1 << 16,
		setup:     setupHOOI,
	},
	{
		// Algorithms 3 and 4 and the Section VI matmul baseline on the
		// simulated P=8 machine, all modes. simnet, comm and par do the
		// work here and nowhere else; the words are exact counts checked
		// against Eq. (14)/(18), so a comm regression shows under noise.
		name:      "dist-64c3-r16-p8",
		why:       "simulated Alg. 3/4 and 1D matmul baseline, P=8, all modes: isolates simnet, comm and par",
		driverPid: distRanks,
		ranks:     distRanks,
		ringCap:   1 << 12,
		setup:     setupDist,
	},
	{
		// One-shot planned MTTKRPs as cmd/mttkrp runs them: plan, apply,
		// prepare and run on a fresh instance per call. The only workload
		// that pays plan and prepare per call, and the only one running
		// fast32 and sparse (CSF build plus kernel).
		name:      "mttkrp-oneshot-mix",
		why:       "one-shot planned MTTKRP over five shapes (dense f64/f32, order 4, sparse): isolates plan, kernel, sparse",
		driverPid: flight.AnonPid,
		ringCap:   1 << 15,
		setup:     setupOneshot,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func cube(side, order int) []int {
	d := make([]int, order)
	for i := range d {
		d[i] = side
	}
	return d
}

// ---- cpals-64c3-r16 ----

const cpalsIters = 10

type cpalsInst struct {
	drv    driver
	x      *tensor.Dense
	prob   plan.Problem
	opts   cpals.Options
	refFit float64
}

func setupCPALS(seed int64, nproc int) (instance, setupTimes, error) {
	var st setupTimes
	dims := cube(64, 3)
	t0 := time.Now()
	w, err := workload.Generate(workload.Spec{Dims: dims, R: 16, Seed: seed, Noise: 0.01})
	if err != nil {
		return nil, st, err
	}
	st.generate = time.Since(t0)
	c := &cpalsInst{
		drv:  driver{pid: flight.AnonPid},
		x:    w.X,
		prob: plan.Problem{Dims: dims, R: 16, Mode: plan.AllModes, MaxWorkers: nproc, Reuses: cpalsIters},
		// Tol = -Inf turns early stopping off: every solve runs all sweeps.
		opts: cpals.Options{R: 16, MaxIters: cpalsIters, Tol: math.Inf(-1), Seed: seed + 100},
	}
	// The reference fit comes from the independent per-mode kernel
	// engine, run after the plan's block sizes are applied.
	if _, err := c.drv.autoPlan(c.prob); err != nil {
		return nil, st, err
	}
	t0 = time.Now()
	ref, _, err := cpals.Decompose(c.x, c.opts)
	if err != nil {
		return nil, st, fmt.Errorf("reference solve: %w", err)
	}
	st.reference = time.Since(t0)
	c.refFit = ref.Fit
	return c, st, nil
}

func (c *cpalsInst) problems() []shapeProblem {
	return []shapeProblem{{key: "64c3-r16-all", prob: c.prob}}
}

func (c *cpalsInst) op(*opTrace) (opCounts, error) {
	var n opCounts
	choice, err := c.drv.autoPlan(c.prob)
	if err != nil {
		return n, err
	}
	opts := c.opts
	opts.Workers = choice.Workers
	var model *cpals.Model
	var trace []cpals.TraceEntry
	c.drv.begin(nmRun)
	if choice.Engine == "tree" {
		model, trace, n.dimtreeFlops, err = cpals.DecomposeTree(c.x, opts)
	} else {
		model, trace, err = cpals.Decompose(c.x, opts)
	}
	c.drv.end(nmRun)
	if err != nil {
		return n, err
	}
	c.drv.begin(nmVerify)
	defer c.drv.end(nmVerify)
	n.fit = model.Fit
	if len(trace) != cpalsIters {
		return n, fmt.Errorf("ran %d sweeps, want %d", len(trace), cpalsIters)
	}
	// The tests hold the tree and per-mode engines' fits to 1e-8.
	if d := math.Abs(model.Fit - c.refFit); !(d <= 1e-8) {
		return n, fmt.Errorf("fit %.12f differs from reference %.12f by %.3g", model.Fit, c.refFit, d)
	}
	return n, nil
}

// ---- hooi-64c3-r8 ----

const hooiIters = 3

type hooiInst struct {
	drv    driver
	x      *tensor.Dense
	prob   plan.Problem
	opts   tucker.Options
	refFit float64
}

func setupHOOI(seed int64, nproc int) (instance, setupTimes, error) {
	var st setupTimes
	dims := cube(64, 3)
	ranks := []int{8, 8, 8}
	// Synthetic data as cmd/tucker makes it: a random core expanded by
	// orthonormal factors, plus noise.
	t0 := time.Now()
	factors, err := tucker.InitFactors(dims, ranks, seed)
	if err != nil {
		return nil, st, err
	}
	truth := &tucker.Model{Core: tensor.RandomDense(seed+1, ranks...), Factors: factors}
	x := truth.Reconstruct()
	tensor.AddNoise(x, seed+2, 0.01)
	st.generate = time.Since(t0)

	h := &hooiInst{
		drv: driver{pid: flight.AnonPid},
		x:   x,
		prob: plan.Problem{Dims: dims, R: 8, Mode: plan.AllModes, Ranks: ranks,
			MaxWorkers: nproc, Reuses: hooiIters * (len(dims) + 1)},
		opts: tucker.Options{Ranks: ranks, MaxIters: hooiIters, Tol: math.Inf(-1)},
	}
	if _, err := h.drv.autoPlan(h.prob); err != nil {
		return nil, st, err
	}
	// Results are bitwise independent of the worker count, so a
	// one-worker reference must give the planned run's fit.
	t0 = time.Now()
	refOpts := h.opts
	refOpts.Workers = 1
	ref, _, err := tucker.Decompose(x, refOpts)
	if err != nil {
		return nil, st, fmt.Errorf("reference solve: %w", err)
	}
	st.reference = time.Since(t0)
	h.refFit = ref.Fit
	return h, st, nil
}

func (h *hooiInst) problems() []shapeProblem {
	return []shapeProblem{{key: "64c3-r8-ttm", prob: h.prob}}
}

func (h *hooiInst) op(*opTrace) (opCounts, error) {
	var n opCounts
	choice, err := h.drv.autoPlan(h.prob)
	if err != nil {
		return n, err
	}
	opts := h.opts
	opts.Workers = choice.Workers
	h.drv.begin(nmRun)
	model, trace, err := tucker.Decompose(h.x, opts)
	h.drv.end(nmRun)
	if err != nil {
		return n, err
	}
	h.drv.begin(nmVerify)
	defer h.drv.end(nmVerify)
	n.fit = model.Fit
	if len(trace) != hooiIters {
		return n, fmt.Errorf("ran %d sweeps, want %d", len(trace), hooiIters)
	}
	if d := math.Abs(model.Fit - h.refFit); !(d <= 1e-10) {
		return n, fmt.Errorf("fit %.12f differs from one-worker reference %.12f by %.3g", model.Fit, h.refFit, d)
	}
	return n, nil
}

// ---- dist-64c3-r16-p8 ----

type distInst struct {
	drv     driver
	x       *tensor.Dense
	factors []*tensor.Matrix
	refs    []*tensor.Matrix // seq.Ref output per mode
	bound   float64          // par-best lower bound of one run (same for every mode of a cube)
}

func setupDist(seed int64, _ int) (instance, setupTimes, error) {
	var st setupTimes
	dims := cube(64, 3)
	t0 := time.Now()
	w, err := workload.Generate(workload.Spec{Dims: dims, R: 16, Seed: seed})
	if err != nil {
		return nil, st, err
	}
	st.generate = time.Since(t0)
	d := &distInst{drv: driver{pid: distRanks}, x: w.X, factors: w.Factors}
	t0 = time.Now()
	for n := range dims {
		d.refs = append(d.refs, seq.Ref(w.X, w.Factors, n))
	}
	st.reference = time.Since(t0)
	d.bound = bounds.ParBest(bounds.Problem{Dims: dims, R: 16}, distRanks, 1, 1)
	return d, st, nil
}

func (d *distInst) problems() []shapeProblem { return nil }

var distAlgs = []core.ParAlgorithm{core.ParStationary, core.ParGeneral, core.ParViaMatmul}

func (d *distInst) op(*opTrace) (opCounts, error) {
	var n opCounts
	rankWords := make([]int64, distRanks)
	for _, alg := range distAlgs {
		for mode := range d.refs {
			d.drv.begin(nmParallel)
			res, err := core.Parallel(d.x, d.factors, mode, core.ParOptions{Algorithm: alg, P: distRanks})
			d.drv.end(nmParallel)
			if err != nil {
				return n, fmt.Errorf("%v mode %d: %w", alg, mode, err)
			}
			d.drv.begin(nmVerify)
			err = d.check(res, alg, mode)
			d.drv.end(nmVerify)
			if err != nil {
				return n, fmt.Errorf("%v mode %d: %w", alg, mode, err)
			}
			n.commWordsMax += res.MaxWords()
			n.commBound += d.bound
			n.msgsMax += res.MaxMsgs()
			n.sendsTotal += res.TotalSent()
			for r, s := range res.Stats {
				rankWords[r] += s.Words()
			}
		}
	}
	for _, w := range rankWords {
		n.rankWordsMax = max(n.rankWordsMax, w)
	}
	return n, nil
}

// check compares the reassembled output with the reference and the
// busiest rank's sends with the exact closed form for the grid used.
func (d *distInst) check(res *par.Result, alg core.ParAlgorithm, mode int) error {
	if res.B == nil || !res.B.EqualApprox(d.refs[mode], mttkrpTol) {
		return fmt.Errorf("output differs from seq.Ref by more than %g", mttkrpTol)
	}
	if len(res.Stats) != distRanks {
		return fmt.Errorf("%d ranks ran, want %d", len(res.Stats), distRanks)
	}
	want, err := exactSends(d.x.Dims(), d.refs[mode].Cols(), alg, mode, res.Grid)
	if err != nil {
		return err
	}
	if got := res.MaxSent(); float64(got) != want { //repro:bitwise exact word count against a closed form checked to be whole
		return fmt.Errorf("max sends %d, closed form %v on grid %v", got, want, res.Grid)
	}
	return nil
}

// exactSends is the per-processor send count the paper's analysis gives
// for a balanced run: Eq. (14) for Algorithm 3, Eq. (18) for Algorithm
// 4, and (P-1)/P * I_n * R for the 1D matmul baseline's Reduce-Scatter.
// It must come out whole; a fractional value means an unbalanced grid,
// where the closed forms are not exact.
func exactSends(dims []int, R int, alg core.ParAlgorithm, mode int, grid []int) (float64, error) {
	fd := make([]float64, len(dims))
	for i, v := range dims {
		fd[i] = float64(v)
	}
	shape := make([]float64, len(grid))
	for i, v := range grid {
		shape[i] = float64(v)
	}
	m := costmodel.Model{Dims: fd, R: float64(R)}
	var w float64
	switch alg {
	case core.ParStationary:
		w = m.Alg3Words(shape)
	case core.ParGeneral:
		w = m.Alg4Words(shape)
	case core.ParViaMatmul:
		P := float64(distRanks)
		w = (P - 1) / P * fd[mode] * float64(R)
	default:
		return 0, fmt.Errorf("no closed form for %v", alg)
	}
	if w != math.Trunc(w) { //repro:bitwise integrality test of the closed form
		return 0, fmt.Errorf("closed form %v is not whole on grid %v", w, grid)
	}
	return w, nil
}

// ---- mttkrp-oneshot-mix ----

// oneshotShape is one planned MTTKRP call of the mix.
type oneshotShape struct {
	key     string
	prob    plan.Problem
	x       *tensor.Dense
	coo     *sparse.COO
	factors []*tensor.Matrix
	refs    []*tensor.Matrix // one per output mode (all modes) or one
	tol     float64
	// inst is the sparse shape's instance, kept across calls; see call.
	inst *plan.Instance
}

type oneshotInst struct {
	drv    driver
	shapes []*oneshotShape
}

func setupOneshot(seed int64, nproc int) (instance, setupTimes, error) {
	var st setupTimes
	o := &oneshotInst{drv: driver{pid: flight.AnonPid}}
	dense := func(key string, dims []int, R, mode int, dt plan.DType, w *workload.Instance) *oneshotShape {
		return &oneshotShape{key: key, x: w.X, factors: w.Factors, tol: mttkrpTol,
			prob: plan.Problem{Dims: dims, R: R, Mode: mode, DType: dt, MaxWorkers: nproc}}
	}
	gen := func(dims []int, R int, s int64) (*workload.Instance, error) {
		return workload.Generate(workload.Spec{Dims: dims, R: R, Seed: s})
	}

	t0 := time.Now()
	w16, err := gen(cube(16, 3), 8, seed)
	if err != nil {
		return nil, st, err
	}
	w128, err := gen(cube(128, 3), 16, seed+1)
	if err != nil {
		return nil, st, err
	}
	w32, err := gen(cube(32, 4), 8, seed+2)
	if err != nil {
		return nil, st, err
	}
	spDims := cube(256, 3)
	coo := sparse.Random(seed+3, 100_000, spDims...)
	spFactors := tensor.RandomFactors(seed+4, spDims, 16)
	st.generate = time.Since(t0)

	// 16^3 sits below plan.SmallAllModesElems, where the planner pins
	// the fast kernel; the others are planned by the cost model.
	o.shapes = []*oneshotShape{
		dense("16c3-r8-all", cube(16, 3), 8, plan.AllModes, plan.F64, w16),
		dense("128c3-r16-m1-f64", cube(128, 3), 16, 1, plan.F64, w128),
		dense("128c3-r16-m1-f32", cube(128, 3), 16, 1, plan.F32, w128),
		dense("32c4-r8-m2", cube(32, 4), 8, 2, plan.F64, w32),
		{key: "sp256c3-r16-m0", coo: coo, factors: spFactors, tol: mttkrpTol,
			prob: plan.Problem{Dims: spDims, R: 16, Mode: 0, NNZ: int64(coo.NNZ()), MaxWorkers: nproc},
			inst: &plan.Instance{COO: coo, Factors: spFactors}},
	}

	t0 = time.Now()
	for _, s := range o.shapes {
		switch {
		case s.coo != nil:
			// The atomic dense reference would need the 256^3 tensor
			// densified (128 MiB); the COO loop is the sparse oracle.
			s.refs = []*tensor.Matrix{sparse.MTTKRP(s.coo, s.factors, s.prob.Mode)}
		case s.prob.DType == plan.F32:
			// As cmd/mttkrp: the reference runs on the exactly widened
			// float32 inputs, and only the float32 store may round.
			wide := make([]*tensor.Matrix, len(s.factors))
			for k, f := range s.factors {
				wide[k] = tensor.Matrix32FromMatrix(f).ToMatrix()
			}
			x32 := tensor.Dense32FromDense(s.x).ToDense()
			s.refs = []*tensor.Matrix{seq.Ref(x32, wide, s.prob.Mode)}
			s.tol = 1e-5 * float64(s.x.Elems()) / float64(s.x.Dim(s.prob.Mode))
		case s.prob.Mode == plan.AllModes:
			for n := range s.prob.Dims {
				s.refs = append(s.refs, seq.Ref(s.x, s.factors, n))
			}
		default:
			s.refs = []*tensor.Matrix{seq.Ref(s.x, s.factors, s.prob.Mode)}
		}
	}
	st.reference = time.Since(t0)
	return o, st, nil
}

func (o *oneshotInst) problems() []shapeProblem {
	out := make([]shapeProblem, len(o.shapes))
	for i, s := range o.shapes {
		out[i] = shapeProblem{key: s.key, prob: s.prob}
	}
	return out
}

func (o *oneshotInst) op(ot *opTrace) (opCounts, error) {
	for _, s := range o.shapes {
		if err := o.call(s, ot); err != nil {
			return opCounts{}, fmt.Errorf("%s: %w", s.key, err)
		}
	}
	return opCounts{}, nil
}

// call is one cmd/mttkrp-style run: plan, apply, prepare a fresh
// instance, run once, verify.
func (o *oneshotInst) call(s *oneshotShape, ot *opTrace) error {
	choice, err := o.drv.autoPlan(s.prob)
	if err != nil {
		return err
	}
	eng, ok := plan.Lookup(choice.Engine)
	if !ok {
		return fmt.Errorf("planner chose unknown engine %q", choice.Engine)
	}
	prep, run := nmPrepare, nmRun
	inst := &plan.Instance{X: s.x, Factors: s.factors}
	if s.coo != nil {
		prep, run = nmSparseBld, nmSparseRun
		// A fresh Instance's CSF workspace parks a worker goroutine that
		// nothing releases, and that goroutine keeps the workspace and
		// the CSF tree (~4 MB here) alive: thousands of fresh calls would
		// exhaust memory. The sparse shape therefore keeps one Instance
		// and drops its derived operands, so Prepare rebuilds the CSF on
		// every call while the workspace and its pool carry over.
		// freshCallGoroutines measures the leak instead.
		inst = s.inst
		inst.CSF, inst.Factors32 = nil, nil
	}
	var res plan.Result
	var w0 int64
	if ot != nil {
		w0 = ot.words()
	}
	t0 := time.Now()
	o.drv.begin(prep)
	err = eng.Prepare(s.prob, inst)
	o.drv.end(prep)
	if err != nil {
		return err
	}
	o.drv.begin(run)
	eng.Run(s.prob, inst, &res, choice.Workers)
	o.drv.end(run)
	if ot != nil {
		ot.plans = append(ot.plans, planSample{key: s.key, predicted: choice.Predicted,
			seconds: time.Since(t0).Seconds(), words: ot.words() - w0})
	}
	o.drv.begin(nmVerify)
	defer o.drv.end(nmVerify)
	return s.verify(&res)
}

// freshCallGoroutines runs the sparse shape once on a fresh Instance,
// as a one-shot caller would, and returns how many goroutines the call
// leaves running.
func (o *oneshotInst) freshCallGoroutines() (int, error) {
	var s *oneshotShape
	for _, sh := range o.shapes {
		if sh.coo != nil {
			s = sh
		}
	}
	choice, err := o.drv.autoPlan(s.prob)
	if err != nil {
		return 0, err
	}
	eng, ok := plan.Lookup(choice.Engine)
	if !ok {
		return 0, fmt.Errorf("planner chose unknown engine %q", choice.Engine)
	}
	// Let the goroutines of earlier ops finish exiting first.
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()
	inst := &plan.Instance{COO: s.coo, Factors: s.factors}
	if err := eng.Prepare(s.prob, inst); err != nil {
		return 0, err
	}
	var res plan.Result
	eng.Run(s.prob, inst, &res, choice.Workers)
	return runtime.NumGoroutine() - before, s.verify(&res)
}

func (s *oneshotShape) verify(res *plan.Result) error {
	var got []*tensor.Matrix
	switch {
	case s.prob.DType == plan.F32:
		if res.B32 == nil {
			return fmt.Errorf("no f32 output")
		}
		if d := res.B32.MaxAbsDiff(s.refs[0]); !(d <= s.tol) {
			return fmt.Errorf("f32 output differs from reference by %.3g (tolerance %.3g)", d, s.tol)
		}
		return nil
	case s.prob.Mode == plan.AllModes:
		got = res.All
	default:
		got = []*tensor.Matrix{res.B}
	}
	if len(got) != len(s.refs) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(s.refs))
	}
	for i, b := range got {
		if b == nil || !b.EqualApprox(s.refs[i], s.tol) {
			return fmt.Errorf("output %d differs from reference by more than %g", i, s.tol)
		}
	}
	return nil
}

// nproc is the worker ceiling of every engine: the CPUs this process
// may run on, which the benchmark also sets as GOMAXPROCS.
func nproc() int { return runtime.NumCPU() }
