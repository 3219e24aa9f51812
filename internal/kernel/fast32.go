package kernel

// The float32 storage variant of the KRP-splitting engine. The tensor
// and factor matrices live in float32 (half the bytes on every big
// stream the paper's bounds count), while every intermediate — KRP
// panels, slab scratch, accumulation buckets — stays float64, and the
// result rounds to float32 exactly once at the final store. The mode
// split, blocking, fixed-chunk slab tiling, and ReduceTree merge are
// identical to FastInto, so the float32 path inherits the bitwise
// worker-count-independence contract unchanged.

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// Fast32 computes the MTTKRP B(n) = X_(n) * KRP on float32 storage at
// the default worker count. factors[n] is ignored and may be nil.
//
//repro:hotpath
func Fast32(x *tensor.Dense32, factors []*tensor.Matrix32, n int) *tensor.Matrix32 {
	R := checkArgs32(x, factors, n)
	b := tensor.NewMatrix32(x.Dim(n), R) //repro:ignore hotpath-alloc result allocation is the API; the zero-alloc path is Fast32Into
	ws := GetWorkspace()
	Fast32Into(b, x, factors, n, 0, ws)
	PutWorkspace(ws)
	return b
}

// Fast32Into computes the float32 MTTKRP into b (x.Dim(n) x R,
// overwritten). Same workspace and determinism contract as FastInto;
// the extra out64 buffer holds the float64 accumulator that rounds
// into b at the end.
//
//repro:hotpath
func Fast32Into(b *tensor.Matrix32, x *tensor.Dense32, factors []*tensor.Matrix32, n, workers int, ws *Workspace) {
	R := checkArgs32(x, factors, n)
	In := x.Dim(n)
	if b.Rows() != In || b.Cols() != R {
		panic(fmt.Sprintf("kernel: output is %dx%d, want %dx%d", b.Rows(), b.Cols(), In, R))
	}
	if ws == nil {
		ws = GetWorkspace()
		defer PutWorkspace(ws)
	}
	span := obs.Start(obs.PhaseKernel)
	defer span.Stop()
	N := x.Order()
	L, Rt := 1, 1
	for k := 0; k < n; k++ {
		L *= x.Dim(k)
	}
	for k := n + 1; k < N; k++ {
		Rt *= x.Dim(k)
	}
	workers = linalg.ResolveWorkers(workers)
	ws.ensure(L, Rt, In, R, workers)
	ws.out64 = grow(ws.out64, In*R)

	data := x.Data()
	acc := ws.out64[:In*R]
	switch {
	case n == 0:
		KRPInto32(ws.krRight, factors, 1, N, R)
		linalg.Gemm32NN(acc, data, ws.krRight, In, Rt, R, workers)
	case n == N-1:
		KRPInto32(ws.krLeft, factors, 0, N-1, R)
		linalg.Gemm32TN(acc, data, ws.krLeft, L, In, R, workers)
	default:
		KRPInto32(ws.krLeft, factors, 0, n, R)
		KRPInto32(ws.krRight, factors, n+1, N, R)
		interior32(acc, data, ws.krLeft, ws.krRight, L, In, Rt, R, workers, ws)
	}
	store32(b.Data(), acc)
}

// interior32 mirrors interior with a float32 tensor stream: same
// fixed chunk tiling, same ReduceTree association, float64 buckets.
func interior32(out []float64, data []float32, kl, kr []float64, L, M, Rt, R, workers int, ws *Workspace) {
	nbuf := min(interiorChunks, Rt)
	MR := M * R
	out = out[:MR]
	for i := range out {
		out[i] = 0
	}
	if nbuf == 1 {
		interiorSlabs32(out, ws.scratch[:MR], data, kl, kr, L, M, Rt, R, 0, Rt)
		return
	}
	bufs := append(ws.bufs[:0], out) //repro:ignore hotpath-alloc bucket list reuses workspace capacity ensured by ensureScratch
	priv := ws.priv[:(nbuf-1)*MR]
	for i := range priv {
		priv[i] = 0
	}
	for c := 1; c < nbuf; c++ {
		bufs = append(bufs, priv[(c-1)*MR:c*MR]) //repro:ignore hotpath-alloc appends within capacity ensured by ensureScratch
	}
	ws.bufs = bufs
	if workers > nbuf {
		workers = nbuf
	}
	if workers <= 1 {
		for c := 0; c < nbuf; c++ {
			interiorSlabs32(bufs[c], ws.scratch[:MR], data, kl, kr, L, M, Rt, R, c*Rt/nbuf, (c+1)*Rt/nbuf)
		}
	} else {
		//repro:ignore hotpath-alloc fan-out closure: bookkeeping only on the parallel path
		fanout.Queue(nbuf, workers, func(w, c int) {
			interiorSlabs32(ws.bufs[c], ws.scratch[w*MR:(w+1)*MR], data, kl, kr, L, M, Rt, R, c*Rt/nbuf, (c+1)*Rt/nbuf)
		})
	}
	ReduceTree(bufs, workers)
	ws.bufs = bufs[:0]
}

// interiorSlabs32 accumulates slabs [t0, t1) into acc (In x R) with a
// float32 tensor stream and float64 everything else.
func interiorSlabs32(acc, wbuf []float64, data []float32, krLeft, krRight []float64, L, In, Rt, R, t0, t1 int) {
	obs.Axpy((t1-t0)*R, In)
	slab := L * In
	for t := t0; t < t1; t++ {
		xt := data[t*slab : (t+1)*slab]
		linalg.Gemm32TN(wbuf, xt, krLeft, L, In, R, 1)
		for r := 0; r < R; r++ {
			krv := krRight[t+r*Rt]
			if krv == 0 { //repro:bitwise exact-zero sparsity skip; krv was stored, never computed
				continue
			}
			simd.Axpy(acc[r*In:(r+1)*In], wbuf[r*In:(r+1)*In], krv)
		}
	}
}

// KRPInto32 is KRPInto reading float32 factor columns: the expansion
// and every product run in float64, only the source storage narrows.
//
//repro:hotpath
func KRPInto32(dst []float64, factors []*tensor.Matrix32, lo, hi, R int) {
	rows := 1
	sumRows := 0
	for k := lo; k < hi; k++ {
		rows *= factors[k].Rows()
		sumRows += factors[k].Rows()
	}
	obs.KRP(rows, sumRows, R)
	for r := 0; r < R; r++ {
		col := dst[r*rows : (r+1)*rows]
		f0 := factors[lo].Col(r)
		for i, v := range f0 {
			col[i] = float64(v)
		}
		cur := len(f0)
		for k := lo + 1; k < hi; k++ {
			fk := factors[k].Col(r)
			for j := len(fk) - 1; j >= 0; j-- {
				v := float64(fk[j])
				out := col[j*cur : j*cur+cur]
				for i, base := range col[:cur] {
					out[i] = base * v
				}
			}
			cur *= len(fk)
		}
	}
}

// store32 rounds the float64 accumulator into float32 storage — the
// single store-side rounding of the float32 path. It charges nothing
// to obs: the producing kernels already counted the output write
// (exactly as in the float64 schedule), so the narrowing store is a
// re-store of the same stream, and charging it would make the float32
// schedule's element count differ from the float64 one it mirrors.
//
//repro:hotpath
func store32(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// checkArgs32 validates the float32 (tensor, factors, mode) triple
// and returns the rank R.
func checkArgs32(x *tensor.Dense32, factors []*tensor.Matrix32, n int) int {
	N := x.Order()
	if len(factors) != N {
		panic(fmt.Sprintf("kernel: %d factors for order-%d tensor", len(factors), N))
	}
	if n < 0 || n >= N {
		panic(fmt.Sprintf("kernel: mode %d out of range [0,%d)", n, N))
	}
	R := -1
	for k, f := range factors {
		if k == n {
			continue
		}
		if f == nil {
			panic(fmt.Sprintf("kernel: factor %d is nil", k))
		}
		if f.Rows() != x.Dim(k) {
			panic(fmt.Sprintf("kernel: factor %d has %d rows, tensor dim is %d", k, f.Rows(), x.Dim(k)))
		}
		if R == -1 {
			R = f.Cols()
		} else if f.Cols() != R {
			panic(fmt.Sprintf("kernel: factor %d has %d cols, want %d", k, f.Cols(), R))
		}
	}
	if R == -1 {
		panic("kernel: MTTKRP needs at least two modes")
	}
	return R
}
