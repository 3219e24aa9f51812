package ttm

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// gramSlabName labels per-chunk gram accumulation on flight-recorder
// worker rows.
var gramSlabName = flight.RegisterName("gram-slab")

// gramChunks fixes the interior-mode bucket count: slabs are assigned
// to chunks by index and each chunk accumulates into its own bucket,
// merged by kernel.ReduceTree in an order that depends only on the
// bucket count — so the gram is bitwise identical for every worker
// count.
const gramChunks = 16

// GramInto computes G = Y_(k) Y_(k)^T (I_k x I_k) — the Gram matrix
// of the mode-k unfolding — without materializing the unfolding. The
// boundary modes are single GEMMs on the storage itself; interior
// modes accumulate per-slab GEMMs G += X_t^T X_t over the Rt slabs.
// ws supplies the slab scratch and buckets (steady-state calls
// allocate nothing).
//
//repro:hotpath
func GramInto(g *tensor.Matrix, y *tensor.Dense, mode, workers int, ws *Workspace) {
	N := y.Order()
	if mode < 0 || mode >= N {
		panic(fmt.Sprintf("ttm: mode %d out of range for order %d", mode, N))
	}
	L, I, Rt := slabShape(y, mode)
	if g.Rows() != I || g.Cols() != I {
		panic(fmt.Sprintf("ttm: gram is %dx%d, mode %d needs %dx%d", g.Rows(), g.Cols(), mode, I, I))
	}
	data := y.Data()
	sp := obs.Start(obs.PhaseGram)
	switch {
	case Rt == 1:
		// Y_(k) is the transpose of the whole L x I storage:
		// G = X^T X.
		linalg.GemmTN(g.Data(), data, data, L, I, I, workers)
	case L == 1:
		// Y_(k) is the whole I x Rt storage: G = Y Y^T.
		linalg.GemmNT(g.Data(), data, data, I, Rt, I, workers)
	default:
		gramSlabs(g.Data(), data, L, I, Rt, workers, ws)
	}
	sp.Stop()
}

// gramSlabs accumulates G = sum_t X_t^T X_t over the Rt interior
// slabs into fixed buckets merged by kernel.ReduceTree (mirroring
// kernel.FastInto's interior-mode strategy).
//
//repro:hotpath
func gramSlabs(g, data []float64, L, I, Rt, workers int, ws *Workspace) {
	n := I * I
	workers = linalg.ResolveWorkers(workers)
	nbuf := min(gramChunks, Rt)
	if workers > nbuf {
		workers = nbuf
	}
	ws.ensureGram(n, nbuf, workers)
	bufs := append(ws.bufs, g[:n]) //repro:ignore hotpath-alloc ensureGram reserves nbuf slots
	for b := 1; b < nbuf; b++ {
		bufs = append(bufs, ws.priv[(b-1)*n:b*n]) //repro:ignore hotpath-alloc ensureGram reserves nbuf slots
	}
	for _, b := range bufs {
		clearSlice(b)
	}
	ws.bufs = bufs
	if workers <= 1 {
		wbuf := ws.scratch[:n]
		for c := 0; c < nbuf; c++ {
			gramChunk(bufs[c], wbuf, data, L, I, Rt, c, nbuf)
		}
	} else {
		// Chunk c's bucket is touched only by the worker that claimed
		// c, so buckets need no locking and the ReduceTree merge is
		// the only cross-worker combine. The closure reads the buckets
		// through ws, so the serial path above keeps bufs off the heap.
		fr := flight.Rec()
		//repro:ignore hotpath-alloc fan-out closure: bookkeeping only on the parallel path
		fanout.Queue(nbuf, workers, func(w, c int) {
			if fr.Enabled() {
				fr.Begin(flight.AnonPid, w, gramSlabName)
			}
			gramChunk(ws.bufs[c], ws.scratch[w*n:(w+1)*n], data, L, I, Rt, c, nbuf)
			if fr.Enabled() {
				fr.End(flight.AnonPid, w, gramSlabName)
			}
		})
	}
	kernel.ReduceTree(bufs, workers)
	ws.bufs = bufs[:0]
}

// gramChunk folds chunk c's slab range into one bucket through the
// worker-private wbuf.
//
//repro:hotpath
func gramChunk(bucket, wbuf, data []float64, L, I, Rt, c, nbuf int) {
	t0, t1 := c*Rt/nbuf, (c+1)*Rt/nbuf
	for t := t0; t < t1; t++ {
		xt := data[t*L*I : (t+1)*L*I]
		linalg.GemmTN(wbuf, xt, xt, L, I, I, 1)
		simd.Add(bucket, wbuf)
	}
	obs.Axpy(t1-t0, len(bucket))
}

func clearSlice(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
