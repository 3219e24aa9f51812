package seq

import (
	"fmt"
	"runtime"

	"repro/internal/fanout"
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// RefParallel computes the MTTKRP with the atomic kernel split across
// `workers` goroutines (0 means GOMAXPROCS). The tensor's element
// range is divided into contiguous chunks; each worker accumulates
// into a private output matrix through a cached column-slice table
// (the same hoisting as AccumulateRef), and the privates are combined
// with the engine's parallel pairwise tree reduction
// (kernel.ReduceTree). This is the shared-memory counterpart of the
// distributed algorithms: within one node, the "communication" is the
// final R * I_n * workers reduction, mirroring the C-matrix reductions
// of Algorithms 3-4.
//
// Results equal Ref up to floating-point reassociation of the final
// reduction.
func RefParallel(x *tensor.Dense, factors []*tensor.Matrix, n, workers int) *tensor.Matrix {
	_, R := checkArgs(x, factors, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := x.Elems()
	if workers > total {
		workers = total
	}
	if workers == 1 {
		return Ref(x, factors, n)
	}
	N := x.Order()
	dims := x.Dims()
	data := x.Data()
	privates := make([]*tensor.Matrix, workers)
	fanout.Split(total, workers, func(w, lo, hi int) {
		b := tensor.NewMatrix(x.Dim(n), R)
		fcols, bcols := cacheCols(b, factors, n, R)
		idx := multiIndexOf(lo, dims)
		for off := lo; off < hi; off++ {
			v := data[off]
			in := idx[n]
			for r := 0; r < R; r++ {
				p := v
				for k := 0; k < N; k++ {
					if k == n {
						continue
					}
					p *= fcols[k*R+r][idx[k]]
				}
				bcols[r][in] += p
			}
			incIndex(idx, dims)
		}
		privates[w] = b
	})
	bufs := make([][]float64, workers)
	for w, p := range privates {
		bufs[w] = p.Data()
	}
	kernel.ReduceTree(bufs, workers)
	return privates[0]
}

// multiIndexOf converts a column-major linear offset to a multi-index.
func multiIndexOf(off int, dims []int) []int {
	idx := make([]int, len(dims))
	for k, d := range dims {
		idx[k] = off % d
		off /= d
	}
	if off != 0 {
		panic(fmt.Sprintf("seq: offset out of range for dims %v", dims))
	}
	return idx
}
