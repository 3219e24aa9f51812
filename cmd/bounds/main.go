// Command bounds prints every communication lower bound of Section IV
// for a given problem and machine configuration, alongside the
// algorithms' modeled upper bounds, so the sandwich can be inspected
// for any parameter point.
//
// Usage:
//
//	bounds -dims 64,64,64 -r 16 -m 4096 -p 64 [-gamma 1] [-delta 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bounds"
	"repro/internal/costmodel"
	"repro/internal/seq"
	"repro/internal/workload"
)

func main() {
	dimsFlag := flag.String("dims", "64,64,64", "tensor dimensions, comma separated")
	r := flag.Int("r", 16, "decomposition rank R")
	m := flag.Float64("m", 4096, "fast/local memory capacity M (words)")
	p := flag.Float64("p", 64, "processor count P")
	gamma := flag.Float64("gamma", 1, "tensor load-balance factor (>= 1)")
	delta := flag.Float64("delta", 1, "factor-matrix load-balance factor (>= 1)")
	flag.Parse()

	dims, err := workload.ParseInts(*dimsFlag, 2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bounds:", err)
		os.Exit(2)
	}
	prob := bounds.Problem{Dims: dims, R: *r}
	prob.Validate()
	N := prob.N()

	fmt.Printf("Problem: N=%d dims=%v R=%d  (I = %.4g, sum I_k R = %.4g)\n",
		N, dims, *r, prob.I(), prob.SumIkR())
	fmt.Printf("Machine: M=%.0f words, P=%.0f processors, gamma=%.2f, delta=%.2f\n\n", *m, *p, *gamma, *delta)

	fmt.Println("Sequential lower bounds (loads + stores):")
	fmt.Printf("  Theorem 4.1 (memory-dependent): %14.4g\n", bounds.SeqMemDependent(prob, *m))
	fmt.Printf("  Fact 4.1   (input/output size): %14.4g\n", bounds.SeqTrivial(prob, *m))
	fmt.Printf("  best:                           %14.4g\n\n", bounds.SeqBest(prob, *m))

	fmt.Println("Sequential upper bounds (algorithm costs):")
	fmt.Printf("  Algorithm 1 (unblocked):        %14d\n", seq.UpperUnblocked(dims, *r))
	if b, err := seq.ChooseBlock(int64(*m), N, 0.9); err == nil {
		fmt.Printf("  Algorithm 2 (blocked, b=%d):    %14d\n", b, seq.UpperBlocked(dims, *r, b))
	} else {
		fmt.Printf("  Algorithm 2: %v\n", err)
	}
	fmt.Printf("  via matmul (model):             %14.4g\n\n", seq.UpperViaMatmul(dims, *r, 0, int64(*m)))

	fmt.Println("Parallel lower bounds (per-processor sends + receives):")
	fmt.Printf("  Corollary 4.1 (memory-dep.):    %14.4g\n", bounds.ParMemDependent(prob, *m, *p))
	fmt.Printf("  Theorem 4.2:                    %14.4g\n", bounds.ParMemIndependent1(prob, *p, *gamma, *delta))
	fmt.Printf("  Theorem 4.3:                    %14.4g\n", bounds.ParMemIndependent2(prob, *p, *gamma, *delta))
	fmt.Printf("  best:                           %14.4g\n\n", bounds.ParBest(prob, *p, *gamma, *delta))

	// Theorem 6.1's hypothesis window for the paper's constants.
	if lo, hi, err := bounds.T61Window(prob, bounds.PaperT61Constants()); err == nil {
		if lo <= hi {
			fmt.Printf("Theorem 6.1 window (paper constants): M in [%.4g, %.4g]", lo, hi)
			if *m >= lo && *m <= hi {
				fmt.Printf("  <- M=%.0f inside: optimality guaranteed\n\n", *m)
			} else {
				fmt.Printf("  (M=%.0f outside)\n\n", *m)
			}
		} else {
			fmt.Printf("Theorem 6.1 window empty for this problem (needs larger I*R)\n\n")
		}
	}

	mdl := costmodel.Model{Dims: toFloat(dims), R: float64(*r)}
	fmt.Println("Parallel modeled costs (per-processor sends, optimal grid):")
	fmt.Printf("  Algorithm 3 ideal:              %14.4g\n", mdl.StationaryIdealWords(*p))
	fmt.Printf("  Algorithm 4 ideal:              %14.4g\n", mdl.GeneralIdealWords(*p))
	fmt.Printf("  regime: NR = %.4g vs (I/P)^(1-1/N) = %.4g -> ", float64(N)*float64(*r), bounds.RegimeThreshold(prob, *p))
	if bounds.LargeRankRegime(prob, *p) {
		fmt.Println("large-rank (Algorithm 4 needed)")
	} else {
		fmt.Println("small-rank (Algorithm 3 optimal)")
	}
}

func toFloat(dims []int) []float64 {
	out := make([]float64, len(dims))
	for i, d := range dims {
		out[i] = float64(d)
	}
	return out
}
