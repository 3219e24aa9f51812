// Command gridexplore enumerates every processor-grid factorization
// for a problem and prints its modeled communication (Eq. 14/18),
// message count, and memory footprint — the design space Section V's
// analysis optimizes over, laid out explicitly. Useful for seeing how
// forgiving (or not) grid choice is at a given scale.
//
// Usage:
//
//	gridexplore -dims 64,64,64 -r 16 -p 64 [-general] [-top 10]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/grid"
	"repro/internal/workload"
)

type row struct {
	shape []int
	words float64
	msgs  float64
	mem   float64
}

func main() {
	dimsFlag := flag.String("dims", "64,64,64", "tensor dimensions")
	r := flag.Int("r", 16, "rank R")
	p := flag.Int("p", 64, "processor count")
	general := flag.Bool("general", false, "explore (N+1)-way grids (Algorithm 4) instead of N-way")
	top := flag.Int("top", 12, "show the best and worst k grids")
	flag.Parse()

	dims, err := workload.ParseInts(*dimsFlag, 1)
	if err != nil {
		fatal(err)
	}
	fdims := make([]float64, len(dims))
	for i, d := range dims {
		fdims[i] = float64(d)
	}
	m := costmodel.Model{Dims: fdims, R: float64(*r)}

	parts := len(dims)
	if *general {
		parts++
	}
	var rows []row
	for _, shape := range grid.Factorizations(*p, parts) {
		fshape := make([]float64, len(shape))
		valid := true
		for i, s := range shape {
			fshape[i] = float64(s)
			if *general {
				if i == 0 {
					valid = valid && s <= *r
				} else {
					valid = valid && s <= dims[i-1]
				}
			} else {
				valid = valid && s <= dims[i]
			}
		}
		if !valid {
			continue
		}
		var w, msgs, mem float64
		if *general {
			w = m.Alg4Words(fshape)
			msgs = m.Alg4Messages(fshape)
			mem = m.Alg4Memory(fshape)
		} else {
			w = m.Alg3Words(fshape)
			msgs = m.Alg3Messages(fshape)
			mem = m.Alg3Memory(fshape)
		}
		rows = append(rows, row{shape: shape, words: w, msgs: msgs, mem: mem})
	}
	if len(rows) == 0 {
		fatal(fmt.Errorf("no valid grids for P=%d over dims %v", *p, dims))
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].words < rows[b].words })

	algo := "Algorithm 3 (stationary)"
	if *general {
		algo = "Algorithm 4 (general, shape[0] = P0)"
	}
	fmt.Printf("%s grid design space: dims=%v R=%d P=%d — %d valid grids\n",
		algo, dims, *r, *p, len(rows))
	fmt.Printf("%-20s %-14s %-10s %-12s\n", "grid", "words/proc", "msgs", "mem/proc")
	show := *top
	if show > len(rows) {
		show = len(rows)
	}
	for i := 0; i < show; i++ {
		printRow(rows[i])
	}
	if len(rows) > 2*show {
		fmt.Println("  ...")
	}
	for i := max(len(rows)-show, show); i < len(rows); i++ {
		printRow(rows[i])
	}
	fmt.Printf("\nbest/worst ratio: %.2fx — grid choice matters by this factor at this scale\n",
		rows[len(rows)-1].words/rows[0].words)
}

func printRow(r row) {
	// fmt applies widths elementwise to slices; stringify first.
	fmt.Printf("%-20s %-14.5g %-10.0f %-12.5g\n", fmt.Sprint(r.shape), r.words, r.msgs, r.mem)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridexplore:", err)
	os.Exit(2)
}
