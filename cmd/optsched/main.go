// Command optsched computes the exact optimal communication of a tiny
// MTTKRP instance over ALL executions (orderings and residency
// decisions) via exhaustive state search, and prints it between the
// Section IV lower bounds and Algorithm 2's measured cost. It is the
// strongest form of validation this repository offers for Theorem 4.1:
// not even the best possible schedule beats the bound.
//
// Usage:
//
//	optsched [-dims 2,2,2] [-r 1] [-mode 0] [-ms 4,5,6,8]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/memsim"
	"repro/internal/pebble"
	"repro/internal/seq"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func main() {
	dimsFlag := flag.String("dims", "2,2,2", "tensor dimensions (keep tiny: exact search)")
	r := flag.Int("r", 1, "rank R")
	mode := flag.Int("mode", 0, "MTTKRP mode")
	ms := flag.String("ms", "4,5,6,8,12", "fast memory sizes to sweep")
	budget := flag.Int("budget", 50_000_000, "state-exploration budget")
	flag.Parse()

	dims, err := workload.ParseInts(*dimsFlag, 1)
	if err != nil {
		fatal(err)
	}
	prob := bounds.Problem{Dims: dims, R: *r}
	x := tensor.RandomDense(1, dims...)
	fs := tensor.RandomFactors(2, dims, *r)

	fmt.Printf("Exact optimal I/O for MTTKRP dims=%v R=%d mode=%d (E16)\n", dims, *r, *mode)
	fmt.Printf("%-6s %-14s %-8s %-10s %s\n", "M", "lower bound", "OPT", "W(alg2)", "status")
	for _, part := range strings.Split(*ms, ",") {
		M, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || M < 1 {
			fatal(fmt.Errorf("bad M %q", part))
		}
		lb := bounds.SeqBest(prob, float64(M))
		opt, err := pebble.Optimal(pebble.Instance{Dims: dims, R: *r, N: *mode, M: M}, *budget)
		if err != nil {
			fmt.Printf("%-6d %-14.4g %-8s %-10s %v\n", M, lb, "-", "-", err)
			continue
		}
		alg2 := "-"
		if res, err := seq.Blocked(x, fs, *mode, 1, memsim.New(int64(M))); err == nil {
			alg2 = fmt.Sprintf("%d", res.Counts.Words())
		}
		status := "lb <= OPT <= alg2"
		if float64(opt) < lb {
			status = "BOUND VIOLATED"
		}
		fmt.Printf("%-6d %-14.4g %-8d %-10s %s\n", M, lb, opt, alg2, status)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optsched:", err)
	os.Exit(2)
}
