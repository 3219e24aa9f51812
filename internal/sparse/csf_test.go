package sparse

import (
	"testing"

	"repro/internal/fanout"
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// maxAbsDiff over two matrices, for tolerance comparisons.
func matDiff(a, b *tensor.Matrix) float64 { return a.MaxAbsDiff(b) }

// TestCSFStructure: FromCOO sorts, deduplicates, and round-trips.
func TestCSFStructure(t *testing.T) {
	c := NewCOO(3, 4, 5)
	c.Append(1.0, 2, 1, 3)
	c.Append(2.0, 0, 0, 0)
	c.Append(3.0, 2, 1, 3) // duplicate of the first: summed to 4
	c.Append(5.0, 2, 1, 4) // same (i,j) fiber, new leaf
	c.Append(7.0, 0, 3, 0)
	for root := 0; root < 3; root++ {
		f := FromCOO(c, root)
		if f.Root() != root || f.Order() != 3 {
			t.Fatalf("root %d: got root %d order %d", root, f.Root(), f.Order())
		}
		if f.NNZ() != 4 {
			t.Fatalf("root %d: nnz %d, want 4 after dedup", root, f.NNZ())
		}
		if d := matDense(f.ToCOO()).MaxAbsDiff(matDense(c)); d != 0 { //repro:bitwise dedup must sum exactly
			t.Fatalf("root %d: round-trip differs by %g", root, d)
		}
	}
	f := FromCOO(c, 0)
	if f.Fibers() != 2 { // root indices 0 and 2
		t.Fatalf("fibers %d, want 2", f.Fibers())
	}
	if f.Nodes(2) != f.NNZ() {
		t.Fatalf("leaf nodes %d != nnz %d", f.Nodes(2), f.NNZ())
	}
}

// matDense flattens a COO into a dense tensor viewed as one long
// column so MaxAbsDiff can compare them.
func matDense(c *COO) *tensor.Matrix {
	d := c.ToDense()
	return tensor.NewMatrixFromData(d.Data(), len(d.Data()), 1)
}

// TestCSFMatchesCOOAndDense: property test over orders 3-5, every
// output mode and every root mode, against both the COO kernel and
// the dense KRP-splitting kernel on the materialized tensor.
func TestCSFMatchesCOOAndDense(t *testing.T) {
	const R = 5
	shapes := [][]int{
		{6, 7, 8},
		{5, 4, 3, 6},
		{3, 4, 2, 3, 4},
	}
	for _, dims := range shapes {
		cells := 1
		for _, d := range dims {
			cells *= d
		}
		c := Random(11, cells/3, dims...)
		fs := tensor.RandomFactors(13, dims, R)
		x := c.ToDense()
		for n := range dims {
			want := MTTKRP(c, fs, n)
			dense := kernel.Fast(x, fs, n)
			if d := matDiff(want, dense); d > 1e-10 {
				t.Fatalf("dims %v mode %d: coo vs dense differ by %g", dims, n, d)
			}
			for root := range dims {
				f := FromCOO(c, root)
				got := f.MTTKRPWorkers(fs, n, 1)
				if d := matDiff(got, want); d > 1e-10 {
					t.Fatalf("dims %v mode %d root %d: csf vs coo differ by %g",
						dims, n, root, d)
				}
			}
		}
	}
}

// TestCSFDuplicates: duplicate coordinates are summed, matching the
// COO kernel's accumulate-in-place semantics.
func TestCSFDuplicates(t *testing.T) {
	dims := []int{5, 6, 7, 4}
	c := Random(17, 80, dims...)
	// Re-append half of the entries with new values (duplicates).
	for i, e := range c.Entries() {
		if i%2 == 0 {
			c.Append(float64(i)*0.25-3, e.Idx...)
		}
	}
	fs := tensor.RandomFactors(19, dims, 4)
	for n := range dims {
		want := MTTKRP(c, fs, n)
		got := FromCOO(c, n).MTTKRPWorkers(fs, n, 1)
		if d := matDiff(got, want); d > 1e-10 {
			t.Fatalf("mode %d: csf vs coo with duplicates differ by %g", n, d)
		}
	}
}

// TestCSFDegenerate: size-1 modes, a single entry, and an empty
// tensor all work at every root/output mode.
func TestCSFDegenerate(t *testing.T) {
	const R = 3
	shapes := [][]int{
		{1, 5, 4},
		{4, 1, 1, 3},
		{1, 1, 2},
	}
	for _, dims := range shapes {
		cells := 1
		for _, d := range dims {
			cells *= d
		}
		nnzs := []int{0, 1, cells / 2, cells}
		for _, nnz := range nnzs {
			c := Random(23, nnz, dims...)
			fs := tensor.RandomFactors(29, dims, R)
			for n := range dims {
				want := MTTKRP(c, fs, n)
				for root := range dims {
					got := FromCOO(c, root).MTTKRP(fs, n)
					if d := matDiff(got, want); d > 1e-10 {
						t.Fatalf("dims %v nnz %d mode %d root %d: differ by %g",
							dims, nnz, n, root, d)
					}
				}
			}
		}
	}
}

// TestCSFWorkerBitwise: the determinism contract — every worker count
// from 1 to 8 produces bitwise-identical output for every mode, for
// both the single-mode and the all-modes kernels.
func TestCSFWorkerBitwise(t *testing.T) {
	dims := []int{40, 31, 17, 9}
	c := Random(31, 6000, dims...)
	fs := tensor.RandomFactors(37, dims, 6)
	f := FromCOO(c, 0)
	base := make([]*tensor.Matrix, len(dims))
	for n := range dims {
		base[n] = f.MTTKRPWorkers(fs, n, 1)
	}
	baseAll := f.AllModes(fs, 1)
	for n := range dims {
		bd, ad := base[n].Data(), baseAll[n].Data()
		for i := range bd {
			if bd[i] != ad[i] { //repro:bitwise all-modes pass shares the single-mode arithmetic order
				t.Fatalf("mode %d elem %d: all-modes %x != single %x", n, i, ad[i], bd[i])
			}
		}
	}
	for w := 2; w <= 8; w++ {
		for n := range dims {
			got := f.MTTKRPWorkers(fs, n, w)
			gd, bd := got.Data(), base[n].Data()
			for i := range gd {
				if gd[i] != bd[i] { //repro:bitwise the worker-count-independence contract under test
					t.Fatalf("workers %d mode %d elem %d: %x != %x", w, n, i, gd[i], bd[i])
				}
			}
		}
		gotAll := f.AllModes(fs, w)
		for n := range dims {
			gd, bd := gotAll[n].Data(), base[n].Data()
			for i := range gd {
				if gd[i] != bd[i] { //repro:bitwise the worker-count-independence contract under test
					t.Fatalf("all-modes workers %d mode %d elem %d: %x != %x", w, n, i, gd[i], bd[i])
				}
			}
		}
	}
}

// TestCSFZeroAlloc: after a warm-up call, MTTKRPInto and AllModesInto
// allocate nothing at one worker, and at more workers only the one
// chunk fan-out's bookkeeping (the tree reduction here is small enough
// to stay serial).
func TestCSFZeroAlloc(t *testing.T) {
	dims := []int{32, 24, 28}
	c := Random(41, 4000, dims...)
	fs := tensor.RandomFactors(43, dims, 8)
	f := FromCOO(c, 0)
	b := tensor.NewMatrix(dims[1], 8)
	outs := make([]*tensor.Matrix, len(dims))
	for k := range outs {
		outs[k] = tensor.NewMatrix(dims[k], 8)
	}
	for _, w := range []int{1, 4} {
		ws := NewWorkspace()
		bound := float64(fanout.AllocBound(w))
		f.MTTKRPInto(b, fs, 1, w, ws) // warm buffers
		if allocs := testing.AllocsPerRun(10, func() { f.MTTKRPInto(b, fs, 1, w, ws) }); allocs > bound {
			t.Errorf("MTTKRPInto workers=%d: steady state allocates %v objects/op, want <= %v", w, allocs, bound)
		}
		f.AllModesInto(outs, fs, w, ws)
		if allocs := testing.AllocsPerRun(10, func() { f.AllModesInto(outs, fs, w, ws) }); allocs > bound {
			t.Errorf("AllModesInto workers=%d: steady state allocates %v objects/op, want <= %v", w, allocs, bound)
		}
	}
}

// TestCSFSharedAcrossModes: one CSF serves every output mode without
// rebuilding, and the pooled-workspace path (ws == nil) works.
func TestCSFSharedAcrossModes(t *testing.T) {
	dims := []int{12, 9, 14}
	c := Random(47, 300, dims...)
	fs := tensor.RandomFactors(53, dims, 4)
	f := FromCOO(c, 1) // root deliberately != 0
	for n := range dims {
		want := MTTKRP(c, fs, n)
		got := f.MTTKRP(fs, n)
		if d := matDiff(got, want); d > 1e-10 {
			t.Fatalf("mode %d via shared csf: differ by %g", n, d)
		}
	}
	all := f.AllModes(fs, 0)
	for n := range dims {
		want := MTTKRP(c, fs, n)
		if d := matDiff(all[n], want); d > 1e-10 {
			t.Fatalf("all-modes mode %d: differ by %g", n, d)
		}
	}
}
