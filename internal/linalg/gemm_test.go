package linalg

import (
	"math/rand"
	"testing"

	"repro/internal/fanout"
	"repro/internal/simd"
	"repro/internal/tensor"
)

func randMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func naiveNN(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for l := 0; l < a.Cols(); l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func naiveTN(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Cols(), b.Cols())
	for i := 0; i < a.Cols(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for l := 0; l < a.Rows(); l++ {
				s += a.At(l, i) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func naiveNT(a, b *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(a.Rows(), b.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			var s float64
			for l := 0; l < a.Cols(); l++ {
				s += a.At(i, l) * b.At(j, l)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// Shapes cross every micro-kernel edge: the 4-wide column and l
// remainders, single rows/columns, and sizes straddling the default
// 256-wide cache-block boundaries.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{4, 4, 4},
	{5, 9, 6},
	{17, 33, 13},
	{64, 16, 64},
	{1, 300, 4},
	{300, 1, 5},
	{31, 257, 9},
	{260, 270, 11},
}

func TestGemmNNMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range gemmShapes {
		for _, w := range []int{1, 2, 4} {
			a := randMat(rng, s.m, s.k)
			b := randMat(rng, s.k, s.n)
			c := tensor.NewMatrix(s.m, s.n)
			c.Fill(3.25) // engine must overwrite, not accumulate
			GemmNN(c.Data(), a.Data(), b.Data(), s.m, s.k, s.n, w)
			if want := naiveNN(a, b); !c.EqualApprox(want, 1e-11*float64(s.k)) {
				t.Fatalf("GemmNN %dx%dx%d workers=%d: max diff %g", s.m, s.k, s.n, w, c.MaxAbsDiff(want))
			}
		}
	}
}

func TestGemmTNMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range gemmShapes {
		for _, w := range []int{1, 3} {
			a := randMat(rng, s.k, s.m) // contraction down rows
			b := randMat(rng, s.k, s.n)
			c := tensor.NewMatrix(s.m, s.n)
			c.Fill(-1)
			GemmTN(c.Data(), a.Data(), b.Data(), s.k, s.m, s.n, w)
			if want := naiveTN(a, b); !c.EqualApprox(want, 1e-11*float64(s.k)) {
				t.Fatalf("GemmTN %dx%dx%d workers=%d: max diff %g", s.m, s.k, s.n, w, c.MaxAbsDiff(want))
			}
		}
	}
}

func TestGemmNTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range gemmShapes {
		for _, w := range []int{1, 3} {
			a := randMat(rng, s.m, s.k)
			b := randMat(rng, s.n, s.k)
			c := tensor.NewMatrix(s.m, s.n)
			c.Fill(7)
			GemmNT(c.Data(), a.Data(), b.Data(), s.m, s.k, s.n, w)
			if want := naiveNT(a, b); !c.EqualApprox(want, 1e-11*float64(s.k)) {
				t.Fatalf("GemmNT %dx%dx%d workers=%d: max diff %g", s.m, s.k, s.n, w, c.MaxAbsDiff(want))
			}
		}
	}
}

func TestMatMulIntoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 37, 23)
	b := randMat(rng, 23, 19)
	c := tensor.NewMatrix(37, 19)
	MatMulInto(c, a, b)
	if !c.EqualApprox(naiveNN(a, b), 1e-10) {
		t.Fatal("MatMulInto mismatch")
	}

	at := randMat(rng, 41, 11)
	bt := randMat(rng, 41, 7)
	ct := tensor.NewMatrix(11, 7)
	MatMulTransAInto(ct, at, bt)
	if !ct.EqualApprox(naiveTN(at, bt), 1e-10) {
		t.Fatal("MatMulTransAInto mismatch")
	}

	an := randMat(rng, 13, 29)
	bn := randMat(rng, 17, 29)
	cn := tensor.NewMatrix(13, 17)
	MatMulTransBInto(cn, an, bn)
	if !cn.EqualApprox(naiveNT(an, bn), 1e-10) {
		t.Fatal("MatMulTransBInto mismatch")
	}
}

// TestGemmFringeBothDispatchPaths sweeps every extent in {1..9, 16,
// 17} through the three data orders on the init-time dispatch path
// and again with the kernels forced scalar, pinning asm-vs-oracle
// agreement for every micro-kernel fringe (the issue's m,n,k sweep).
func TestGemmFringeBothDispatchPaths(t *testing.T) {
	ext := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17}
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, m := range ext {
			for _, k := range ext {
				for _, n := range ext {
					a := randMat(rng, m, k)
					b := randMat(rng, k, n)
					c := tensor.NewMatrix(m, n)
					GemmNN(c.Data(), a.Data(), b.Data(), m, k, n, 1)
					if want := naiveNN(a, b); !c.EqualApprox(want, 1e-12*float64(k)) {
						t.Fatalf("GemmNN %dx%dx%d: max diff %g", m, k, n, c.MaxAbsDiff(want))
					}
					at := randMat(rng, k, m)
					GemmTN(c.Data(), at.Data(), b.Data(), k, m, n, 1)
					if want := naiveTN(at, b); !c.EqualApprox(want, 1e-12*float64(k)) {
						t.Fatalf("GemmTN %dx%dx%d: max diff %g", m, k, n, c.MaxAbsDiff(want))
					}
					bt := randMat(rng, n, k)
					GemmNT(c.Data(), a.Data(), bt.Data(), m, k, n, 1)
					if want := naiveNT(a, bt); !c.EqualApprox(want, 1e-12*float64(k)) {
						t.Fatalf("GemmNT %dx%dx%d: max diff %g", m, k, n, c.MaxAbsDiff(want))
					}
				}
			}
		}
	}
	t.Run("dispatch="+simd.Path(), run)
	restore := simd.ForceScalar()
	defer restore()
	t.Run("dispatch=scalar", run)
}

// TestGemmBitwiseAcrossWorkers pins the determinism contract on the
// bound dispatch path: one kernel set per process means the worker
// count cannot change a single bit of the result.
func TestGemmBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, k, n := 129, 65, 33
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	ref := tensor.NewMatrix(m, n)
	GemmNN(ref.Data(), a.Data(), b.Data(), m, k, n, 1)
	got := tensor.NewMatrix(m, n)
	for w := 2; w <= 8; w++ {
		GemmNN(got.Data(), a.Data(), b.Data(), m, k, n, w)
		for i, v := range got.Data() {
			if v != ref.Data()[i] { //repro:bitwise worker count must not change results
				t.Fatalf("GemmNN workers=%d differs at %d on path %s", w, i, simd.Path())
			}
		}
	}
}

// TestGemmBlocksBitwise: the cache blocks move traffic, never the
// result. gemmNN, gemmNT and gemm32NN must produce the same bits for
// every power-of-two (kc, mc) candidate within the budget, on fringe
// shapes (m and k off multiples of 4 and of the blocks), split over 1
// and 3 workers by columns and (gemmNN) by rows.
func TestGemmBlocksBitwise(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{5, 9, 6}, {17, 33, 13}, {67, 131, 9}, {130, 259, 7}, {301, 37, 5},
	}
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, s := range shapes {
			m, k, n := s.m, s.k, s.n
			a := randMat(rng, m, k).Data()
			b := randMat(rng, k, n).Data()
			bt := randMat(rng, n, k).Data()
			a32 := make([]float32, len(a))
			for i, v := range a {
				a32[i] = float32(v)
			}
			refNN, refNT, ref32 := make([]float64, m*n), make([]float64, m*n), make([]float64, m*n)
			gemmNN(refNN, a, b, m, k, 256, 256, 0, m, 0, n)
			gemmNT(refNT, a, bt, m, k, n, 256, 256, 0, n)
			gemm32NN(ref32, a32, b, m, k, 256, 0, n)
			got := make([]float64, m*n)
			check := func(what string, ref []float64, kc, mc, w int) {
				t.Helper()
				for i := range got {
					if got[i] != ref[i] { //repro:bitwise the blocks must not change a single bit
						t.Fatalf("%s %dx%dx%d kc=%d mc=%d workers=%d differs at %d on path %s",
							what, m, k, n, kc, mc, w, i, simd.Path())
					}
				}
			}
			for kc := 16; kc <= 4096; kc *= 2 {
				for mc := 16; mc <= 4096 && kc*mc <= gemmBudget; mc *= 2 {
					for _, w := range []int{1, 3} {
						fanout.Split(n, w, func(_, j0, j1 int) { gemmNN(got, a, b, m, k, kc, mc, 0, m, j0, j1) })
						check("gemmNN/cols", refNN, kc, mc, w)
						fanout.Split(m, w, func(_, i0, i1 int) { gemmNN(got, a, b, m, k, kc, mc, i0, i1, 0, n) })
						check("gemmNN/rows", refNN, kc, mc, w)
						fanout.Split(n, w, func(_, j0, j1 int) { gemmNT(got, a, bt, m, k, n, kc, mc, j0, j1) })
						check("gemmNT", refNT, kc, mc, w)
						fanout.Split(n, w, func(_, j0, j1 int) { gemm32NN(got, a32, b, m, k, kc, j0, j1) })
						check("gemm32NN", ref32, kc, mc, w)
					}
				}
			}
		}
	}
	t.Run("dispatch="+simd.Path(), run)
	restore := simd.ForceScalar()
	defer restore()
	t.Run("dispatch=scalar", run)
}

// TestGemmBlocksRespectBudget: the derived blocks stay powers of two
// in [16, 4096] (so KC is a multiple of the register unroll) and the
// A panel stays within the hot-panel budget.
func TestGemmBlocksRespectBudget(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{4096, 1 << 20, 16}, {1 << 20, 16, 16}, {16, 1 << 20, 64}, {100, 200, 8}, {0, 0, 0},
	} {
		kc, mc := gemmBlocks(s.m, s.k, s.n)
		if kc*mc > gemmBudget {
			t.Errorf("%v: blocks %dx%d exceed the %d-word budget", s, kc, mc, gemmBudget)
		}
		for _, b := range []int{kc, mc} {
			if b < 16 || b > 4096 || b&(b-1) != 0 {
				t.Errorf("%v: block %d is not a power of two in [16, 4096]", s, b)
			}
		}
	}
}
