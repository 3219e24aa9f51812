// Command sparsemttkrp demonstrates the sparse-MTTKRP extension the
// paper's conclusion points to: with sparse tensors, communication is
// governed by the nonzero structure, quantified by the hypergraph
// (lambda-1) connectivity of the nonzero partition. The command first
// races the two local engines sequentially (naive COO loop vs the CSF
// fiber-tree kernel), then builds a structured (blocky) and an
// unstructured random sparse tensor, runs the owner-computes
// expand/fold parallel MTTKRP under block and random partitions with
// the selected engine, and checks — not just prints — that the
// simnet-measured words AND the obs-measured comm words both equal the
// metric. Any mismatch makes the command exit nonzero, turning E19's
// printed comparison into a checked invariant.
//
// Usage:
//
//	sparsemttkrp [-side 24] [-nnz 480] [-r 4] [-p 8]
//	             [-engine csf|coo] [-workers 0] [-obs] [-obs-json -]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/plan"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

func main() {
	side := flag.Int("side", 24, "tensor dimension per mode (3-way)")
	nnz := flag.Int("nnz", 480, "nonzero count")
	r := flag.Int("r", 4, "rank R")
	p := flag.Int("p", 8, "parts / processors")
	seed := flag.Int64("seed", 21, "seed")
	engineFlag := flag.String("engine", "auto", "parallel local engine: auto (cost-model planner) | csf | coo")
	workers := flag.Int("workers", 0, "CSF kernel workers in the sequential race (0 = GOMAXPROCS)")
	dtype := flag.String("dtype", "f64", "value/factor storage precision: f64 | f32 (accumulation stays float64)")
	obsFlag := flag.Bool("obs", false, "print the instrumented observability report")
	obsJSON := flag.String("obs-json", "", "write the observability report as JSON to this path (- for stdout)")
	traceOut := flag.String("trace", "", "write a flight-recorder Chrome trace (JSON) to this path")
	flag.Parse()

	dims := []int{*side, *side, *side}

	// -trace starts before the planner runs so the trace carries the
	// plan instant; the expand/fold runs get one process row per part.
	if *traceOut != "" {
		flush := flight.StartTrace(*traceOut, *p)
		defer func() {
			if err := flush(); err != nil {
				fmt.Fprintln(os.Stderr, "sparsemttkrp:", err)
				os.Exit(2)
			}
		}()
	}

	// -engine auto routes the local-engine pick through the cost-model
	// planner: csf vs coo decided from the nonzero count and rank.
	engineName := *engineFlag
	var choice plan.Choice
	planned := false
	if engineName == "auto" {
		prob := plan.Problem{Dims: dims, R: *r, Mode: 0, NNZ: int64(*nnz), MaxWorkers: *workers}
		if *dtype == "f32" {
			prob.DType = plan.F32
		}
		var err error
		choice, _, err = plan.Auto(prob)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparsemttkrp:", err)
			os.Exit(2)
		}
		choice.Apply()
		engineName = choice.Engine
		planned = true
	}
	engine, err := sparse.ParseEngine(engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparsemttkrp:", err)
		os.Exit(2)
	}
	fs := tensor.RandomFactors(*seed+1, dims, *r)

	blocks := 8
	perBlock := *nnz / blocks
	tensors := []struct {
		name string
		s    *sparse.COO
	}{
		{"blocky", sparse.RandomBlocky(*seed, blocks, perBlock, 5, dims...)},
		{"uniform", sparse.Random(*seed, *nnz, dims...)},
	}

	// Sequential head-to-head: same tensor, same factors, COO loop vs
	// CSF fiber tree. Both must agree; the CSF build amortizes across
	// the per-mode passes of a real CP-ALS sweep, so it is timed
	// separately.
	uni := tensors[1].s
	t0 := time.Now()
	bCOO := sparse.MTTKRP(uni, fs, 0)
	cooDur := time.Since(t0)
	t0 = time.Now()
	csf := sparse.FromCOO(uni, 0)
	buildDur := time.Since(t0)
	var bCSF *tensor.Matrix
	var csfDur time.Duration
	var tol float64
	switch *dtype {
	case "f64":
		t0 = time.Now()
		bCSF = csf.MTTKRPWorkers(fs, 0, *workers)
		csfDur = time.Since(t0)
		tol = 1e-9
	case "f32":
		// Narrow the value stream and factors to float32 storage; the
		// accumulation stays float64, so the only drift vs the COO loop
		// on unrounded inputs is the per-element input rounding.
		csf.EnableF32Values()
		fs32 := make([]*tensor.Matrix32, len(fs))
		for k, f := range fs {
			fs32[k] = tensor.Matrix32FromMatrix(f)
		}
		t0 = time.Now()
		b32 := csf.MTTKRP32(fs32, 0)
		csfDur = time.Since(t0)
		bCSF = b32.ToMatrix()
		tol = 1e-3
	default:
		fmt.Fprintf(os.Stderr, "sparsemttkrp: unknown dtype %q (want f64 or f32)\n", *dtype)
		os.Exit(2)
	}
	fmt.Printf("Sparse MTTKRP (E19/E25): dims=%v R=%d P=%d engine=%v dtype=%s\n", dims, *r, *p, engine, *dtype)
	if planned {
		fmt.Printf("plan: engine=%s predicted=%v\n",
			choice.Engine, time.Duration(choice.Predicted.Seconds*1e9))
	}
	fmt.Printf("sequential mode-0, nnz=%d: coo=%v csf=%v (build %v), max |diff| = %.3g\n\n",
		uni.NNZ(), cooDur, csfDur, buildDur, bCSF.MaxAbsDiff(bCOO))
	if d := bCSF.MaxAbsDiff(bCOO); d > tol {
		fmt.Fprintf(os.Stderr, "sparsemttkrp: engines disagree sequentially by %g\n", d)
		os.Exit(1)
	}

	col := obs.New(*p)
	obs.Enable(col)
	defer obs.Disable()

	var rep *obs.Report
	failures := 0
	fmt.Printf("%-9s %-10s %-8s %-14s %-13s %-13s %-10s\n",
		"tensor", "partition", "nnz", "volume(metric)", "simnet(meas)", "obs(meas)", "max load")
	for _, tc := range tensors {
		for _, pc := range []struct {
			name string
			part sparse.Partition
		}{
			{"block", sparse.BlockPartition(tc.s, *p)},
			{"random", sparse.RandomPartition(tc.s, *p, *seed+2)},
		} {
			col.Reset()
			vol := sparse.CommVolume(tc.s, pc.part, 0, *r)
			res, err := sparse.ParallelMTTKRPEngine(tc.s, fs, 0, pc.part, engine)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sparsemttkrp:", err)
				os.Exit(1)
			}
			tot := col.Totals()
			fmt.Printf("%-9s %-10s %-8d %-14d %-13d %-13d %-10d\n",
				tc.name, pc.name, tc.s.NNZ(), vol, res.TotalSent(), tot.CommSent, sparse.MaxPartLoad(pc.part))
			if res.TotalSent() != vol {
				fmt.Fprintf(os.Stderr, "sparsemttkrp: %s/%s: simnet measured %d words, metric %d\n",
					tc.name, pc.name, res.TotalSent(), vol)
				failures++
			}
			if tot.CommSent != vol || tot.CommRecv != vol {
				fmt.Fprintf(os.Stderr, "sparsemttkrp: %s/%s: obs measured sent=%d recv=%d, metric %d\n",
					tc.name, pc.name, tot.CommSent, tot.CommRecv, vol)
				failures++
			}
			if tc.name == "uniform" && pc.name == "block" {
				rep = obs.NewReport("sparsemttkrp", engine.String(), dims, *r, 0, obs.Machine{P: *p})
				if *dtype == "f32" {
					rep.WordBytes = 4
				}
				rep.SetMeasuredWords(res.TotalSent())
				rep.FillFromCollector(col)
				rep.JoinBound("hypergraph-lambda1", float64(vol))
				if planned {
					rep.Plan = choice.PlanInfo()
				}
			}
		}
	}
	fmt.Println("\nMeasured words (simulated network and obs counters alike) equal the")
	fmt.Println("hypergraph (lambda-1) metric; structure-aware partitions cut communication")
	fmt.Println("on structured tensors, which is why the sparse case leads to hypergraph")
	fmt.Println("partitioning [15], [23].")

	if *obsFlag && rep != nil {
		fmt.Println()
		rep.Format(os.Stdout)
	}
	if *obsJSON != "" && rep != nil {
		w := os.Stdout
		if *obsJSON != "-" {
			f, err := os.Create(*obsJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sparsemttkrp:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := rep.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "sparsemttkrp:", err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "sparsemttkrp: %d measured-vs-metric mismatch(es)\n", failures)
		os.Exit(1)
	}
}
