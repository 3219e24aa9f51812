package sparse

import "sync"

// Workspace holds every buffer the CSF MTTKRP kernels need: row-major
// mirrors of the factor matrices (one per tree level), the row-major
// output accumulator, per-chunk private accumulation buckets for the
// tree reduction, the nnz-balanced chunk boundaries, and per-worker
// walker scratch. Buffers grow monotonically and are reused across
// calls, so an ALS sweep that cycles through the modes of one tensor
// reaches a steady state: a one-worker pass allocates nothing, a
// multi-worker pass only the fan-out's bounded bookkeeping
// (fanout.AllocBound).
//
// A Workspace is not safe for concurrent use by multiple kernel
// calls; use one per goroutine (or the pool helpers below).
type Workspace struct {
	packed  [][]float64 // per level: I_lv x R row-major factor mirror
	acc     []float64   // bucket 0 and final row-major output accumulator
	priv    []float64   // (nbuf-1) * len(acc) private accumulation buckets
	bufs    [][]float64 // bucket headers handed to kernel.ReduceTree
	bounds  []int32     // chunk boundaries over root fibers (nbuf+1 entries)
	stack   []float64   // workers * 2*N*R walker scratch (subtree sums + prefixes)
	walkers []csfWalker // one traversal state per worker
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return new(Workspace) }

// ensure grows every buffer for a kernel pass over t at rank R with
// nbuf accumulation buckets of total words each and the given worker
// count. Existing capacity is kept.
//
//repro:ignore hotpath-alloc grow-only workspace sizing; allocates only while capacity still grows
func (ws *Workspace) ensure(t *CSF, R, workers, nbuf, total int) {
	N := len(t.dims)
	if cap(ws.packed) < N {
		ws.packed = make([][]float64, N)
	}
	ws.packed = ws.packed[:N]
	for lv := 0; lv < N; lv++ {
		ws.packed[lv] = growf(ws.packed[lv], t.dims[t.perm[lv]]*R)
	}
	ws.acc = growf(ws.acc, total)
	if nbuf > 1 {
		ws.priv = growf(ws.priv, (nbuf-1)*total)
	}
	if cap(ws.bufs) < nbuf {
		ws.bufs = make([][]float64, 0, nbuf)
	}
	if cap(ws.bounds) < nbuf+1 {
		ws.bounds = make([]int32, nbuf+1)
	}
	ws.bounds = ws.bounds[:nbuf+1]
	ws.stack = growf(ws.stack, workers*2*N*R)
	if cap(ws.walkers) < workers {
		ws.walkers = make([]csfWalker, workers)
	}
	ws.walkers = ws.walkers[:workers]
	for w := range ws.walkers {
		wk := &ws.walkers[w]
		if cap(wk.outs) < N {
			wk.outs = make([][]float64, N)
		}
		wk.outs = wk.outs[:N]
	}
}

//repro:ignore hotpath-alloc grow-only workspace primitive; allocates only while capacity still grows
func growf(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

var csfWsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace fetches a CSF workspace from the shared pool.
func GetWorkspace() *Workspace { return csfWsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool for reuse.
func PutWorkspace(ws *Workspace) { csfWsPool.Put(ws) }
