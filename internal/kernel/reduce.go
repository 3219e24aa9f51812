package kernel

import (
	"repro/internal/fanout"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// ReduceTree sums bufs[1:] into bufs[0] with pairwise (binary-tree)
// combining: round s adds bufs[i+s] into bufs[i] for i = 0, 2s, 4s,
// ..., halving the live set each round. The association order depends
// only on len(bufs), never on the worker count, so a reduction over
// the same private buffers is bitwise reproducible at any parallelism.
//
// Within a round the adds are independent; they are split across
// `workers` goroutines by pair and, when pairs are scarcer than
// workers, by contiguous vector segment. workers <= 0 selects the
// linalg package default. All buffers must have the same length.
//
//repro:hotpath
func ReduceTree(bufs [][]float64, workers int) {
	m := len(bufs)
	if m <= 1 {
		return
	}
	workers = linalg.ResolveWorkers(workers)
	n := len(bufs[0])
	// m-1 pairwise adds of n words each: read both operands, write one.
	obs.Axpy(m-1, n)
	for stride := 1; stride < m; stride *= 2 {
		step := 2 * stride
		npairs := 0
		for i := 0; i+stride < m; i += step {
			npairs++
		}
		if workers <= 1 || npairs*n < 1<<14 {
			for i := 0; i+stride < m; i += step {
				addInto(bufs[i], bufs[i+stride])
			}
			continue
		}
		//repro:ignore hotpath-alloc fan-out closure: bookkeeping only on the parallel path
		reduceRound(bufs, stride, npairs, workers)
	}
}

// reduceRound runs one ReduceTree round across workers: npairs adds
// of bufs[i+stride] into bufs[i], each cut into contiguous segments
// so that there are about as many pieces as workers.
func reduceRound(bufs [][]float64, stride, npairs, workers int) {
	n := len(bufs[0])
	segs := (workers + npairs - 1) / npairs
	seglen := (n + segs - 1) / segs
	nseg := (n + seglen - 1) / seglen
	fanout.Queue(npairs*nseg, workers, func(_, c int) {
		i := c / nseg * 2 * stride
		lo := c % nseg * seglen
		hi := min(lo+seglen, n)
		addInto(bufs[i][lo:hi], bufs[i+stride][lo:hi])
	})
}

func addInto(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}
