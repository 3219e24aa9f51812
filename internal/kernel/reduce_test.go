package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
)

// randomBufs draws m independent buffers of length n from a seeded
// generator, plus their serial left-to-right pairwise-tree reference
// sum computed with a fresh copy (ReduceTree mutates in place).
func randomBufs(rng *rand.Rand, m, n int) [][]float64 {
	bufs := make([][]float64, m)
	for i := range bufs {
		bufs[i] = make([]float64, n)
		for j := range bufs[i] {
			bufs[i][j] = rng.NormFloat64()
		}
	}
	return bufs
}

func cloneBufs(bufs [][]float64) [][]float64 {
	out := make([][]float64, len(bufs))
	for i, b := range bufs {
		out[i] = append([]float64(nil), b...)
	}
	return out
}

// refTree reproduces ReduceTree's association order serially: round
// `stride` folds bufs[i+stride] into bufs[i].
func refTree(bufs [][]float64) []float64 {
	m := len(bufs)
	for stride := 1; stride < m; stride *= 2 {
		for i := 0; i+stride < m; i += 2 * stride {
			for j, v := range bufs[i+stride] {
				bufs[i][j] += v
			}
		}
	}
	if m == 0 {
		return nil
	}
	return bufs[0]
}

func TestReduceTreeZeroAndOneBuffer(t *testing.T) {
	// Zero buffers: must not panic, nothing to reduce.
	kernel.ReduceTree(nil, 4)
	kernel.ReduceTree([][]float64{}, 4)

	// One buffer: must be left untouched.
	b := []float64{1, 2, 3}
	kernel.ReduceTree([][]float64{b}, 4)
	for i, want := range []float64{1, 2, 3} {
		if b[i] != want { //repro:bitwise untouched buffer must be bit-identical
			t.Fatalf("single buffer mutated at %d: got %v want %v", i, b[i], want)
		}
	}
}

func TestReduceTreeNonPowerOfTwoCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{2, 3, 5, 6, 7, 9, 13} {
		bufs := randomBufs(rng, m, 33)
		want := refTree(cloneBufs(bufs))
		kernel.ReduceTree(bufs, 1)
		for j := range want {
			if bufs[0][j] != want[j] { //repro:bitwise same association order must match exactly
				t.Fatalf("m=%d: bufs[0][%d] = %v, want %v", m, j, bufs[0][j], want[j])
			}
		}
	}
}

func TestReduceTreeWorkersExceedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// n large enough that npairs*n >= 1<<14 triggers the parallel
	// branch even with a single pair per round.
	const n = 1 << 15
	bufs := randomBufs(rng, 3, n)
	want := refTree(cloneBufs(bufs))
	kernel.ReduceTree(bufs, 64) // 64 workers, at most 1 pair in round 2
	for j := range want {
		if bufs[0][j] != want[j] { //repro:bitwise association order is worker-count independent
			t.Fatalf("bufs[0][%d] = %v, want %v", j, bufs[0][j], want[j])
		}
	}
}

func TestReduceTreeBitwiseAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Past the serial cutoff so parallel paths engage; the odd length
	// leaves a short last segment.
	for _, n := range []int{1 << 14, 1<<14 + 3} {
		for _, m := range []int{2, 5, 8} {
			base := randomBufs(rng, m, n)
			var first []float64
			for _, workers := range []int{1, 2, 3, 7, 16} {
				bufs := cloneBufs(base)
				kernel.ReduceTree(bufs, workers)
				if first == nil {
					first = bufs[0]
					continue
				}
				for j := range first {
					if bufs[0][j] != first[j] { //repro:bitwise reduction must be bitwise reproducible across worker counts
						t.Fatalf("n=%d m=%d workers=%d: bufs[0][%d] = %v, want %v",
							n, m, workers, j, bufs[0][j], first[j])
					}
				}
			}
		}
	}
}
