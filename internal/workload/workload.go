// Package workload generates the synthetic problem instances used by
// the experiment drivers and benchmarks. The paper evaluates on dense
// tensors with chosen shapes (no public datasets are involved), so
// deterministic synthetic generators reproduce its workloads exactly.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// Spec describes a dense MTTKRP workload.
type Spec struct {
	Dims  []int
	R     int
	Seed  int64
	Noise float64 // if > 0, a rank-R ground truth plus uniform noise
}

// Instance is a materialized workload.
type Instance struct {
	Spec    Spec
	X       *tensor.Dense
	Factors []*tensor.Matrix // MTTKRP input factors
	Truth   []*tensor.Matrix // ground-truth factors when Noise > 0, else nil
}

// Generate materializes the workload deterministically from its seed.
func Generate(s Spec) (*Instance, error) {
	if len(s.Dims) < 2 {
		return nil, fmt.Errorf("workload: need at least 2 modes, got %v", s.Dims)
	}
	if s.R < 1 {
		return nil, fmt.Errorf("workload: rank %d", s.R)
	}
	inst := &Instance{Spec: s}
	if s.Noise > 0 {
		inst.Truth = tensor.RandomFactors(s.Seed, s.Dims, s.R)
		inst.X = tensor.FromFactors(inst.Truth)
		tensor.AddNoise(inst.X, s.Seed+1, s.Noise)
	} else {
		inst.X = tensor.RandomDense(s.Seed, s.Dims...)
	}
	inst.Factors = tensor.RandomFactors(s.Seed+2, s.Dims, s.R)
	return inst, nil
}

// Cubical returns a Spec with N equal dimensions.
func Cubical(N, side, R int, seed int64) Spec {
	dims := make([]int, N)
	for i := range dims {
		dims[i] = side
	}
	return Spec{Dims: dims, R: R, Seed: seed}
}

// PowersOfTwo returns 2^lo, 2^(lo+1), ..., 2^hi — the sweep pattern of
// the paper's strong-scaling experiments.
func PowersOfTwo(lo, hi int) []int {
	if lo < 0 || hi < lo || hi > 62 {
		panic(fmt.Sprintf("workload: bad power range [%d, %d]", lo, hi))
	}
	out := make([]int, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<e)
	}
	return out
}

// ParseInts parses a comma-separated list of positive integers, the
// form the commands' -dims, -ranks and -grid flags take. It rejects a
// list with fewer than minLen entries and any entry that is not an
// integer >= 1; surrounding spaces are allowed.
func ParseInts(s string, minLen int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) < minLen {
		return nil, fmt.Errorf("need at least %d comma-separated values, got %q", minLen, s)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q: want an integer >= 1", p)
		}
		out[i] = v
	}
	return out, nil
}
