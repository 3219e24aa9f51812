// Package fanout is the one fork-join primitive the engines share.
// Every kernel in the repository splits its iteration space into
// independent pieces, computes them concurrently, joins, and then
// reduces; this package owns the fork and the join, and nothing else.
//
// Both entry points run worker 0 on the calling goroutine, start the
// other workers as fresh goroutines, and return only after every
// worker has finished, so no goroutine outlives a call. With one
// worker (or fewer) they run inline and allocate nothing themselves;
// a caller that must stay allocation-free there branches before it
// builds a capturing fn closure, since the goroutine path makes any
// such closure escape. Above one worker a call allocates at most
// AllocBound(workers) objects.
//
// The package has no knobs: the caller resolves the worker count, and
// the chunk-to-piece mapping is fixed by the arguments alone, so a
// caller that keeps one accumulation bucket per piece gets bitwise
// identical results at every worker count.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Split cuts [0, total) into k = min(workers, total) contiguous
// ranges, worker w getting [w*total/k, (w+1)*total/k), and runs
// fn(w, lo, hi) for each concurrently. With k <= 1 it runs
// fn(0, 0, total) inline.
func Split(total, workers int, fn func(w, lo, hi int)) {
	k := min(workers, total)
	if k <= 1 {
		fn(0, 0, total)
		return
	}
	run(k, func(w int) { fn(w, w*total/k, (w+1)*total/k) })
}

// Queue runs fn(w, c) once for every chunk c in [0, chunks) on
// min(workers, chunks) workers that claim chunks from a shared atomic
// counter; w names the claiming worker (for per-worker scratch and
// trace rows). Which worker claims a chunk varies from run to run, so
// fn must make chunk c's output depend on c alone. With one worker
// (or fewer) the chunks run inline, in order, as worker 0.
func Queue(chunks, workers int, fn func(w, c int)) {
	k := min(workers, chunks)
	if k <= 1 {
		for c := 0; c < chunks; c++ {
			fn(0, c)
		}
		return
	}
	var next atomic.Int64
	run(k, func(w int) {
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			fn(w, c)
		}
	})
}

// AllocBound is the most heap objects one Split or Queue call above
// one worker allocates, the caller's capturing fn closure included:
// that closure, the join bookkeeping (WaitGroup, queue counter, worker
// body) and one closure per started goroutine. The allocation guards
// assert it.
func AllocBound(workers int) int {
	if workers <= 1 {
		return 0
	}
	return workers + 3
}

// run calls body(w) for every w in [0, k): worker 0 on the calling
// goroutine, the rest on fresh goroutines, and returns once all k
// have returned. k must be at least 2.
func run(k int, body func(w int)) {
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for w := 1; w < k; w++ {
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	body(0)
	wg.Wait()
}
