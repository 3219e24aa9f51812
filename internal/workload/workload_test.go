package workload

import (
	"slices"
	"testing"

	"repro/internal/tensor"
)

func TestGenerateRandom(t *testing.T) {
	inst, err := Generate(Spec{Dims: []int{4, 5}, R: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inst.X.Order() != 2 || inst.X.Dim(1) != 5 {
		t.Fatal("wrong tensor shape")
	}
	if len(inst.Factors) != 2 || inst.Factors[0].Cols() != 3 {
		t.Fatal("wrong factors")
	}
	if inst.Truth != nil {
		t.Fatal("no truth expected without noise")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Spec{Dims: []int{4, 4}, R: 2, Seed: 9})
	b, _ := Generate(Spec{Dims: []int{4, 4}, R: 2, Seed: 9})
	if !a.X.EqualApprox(b.X, 0) {
		t.Fatal("same seed must give same tensor")
	}
	c, _ := Generate(Spec{Dims: []int{4, 4}, R: 2, Seed: 10})
	if a.X.EqualApprox(c.X, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateNoisyLowRank(t *testing.T) {
	inst, err := Generate(Spec{Dims: []int{5, 5, 5}, R: 2, Seed: 3, Noise: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Truth == nil {
		t.Fatal("truth factors expected")
	}
	clean := tensor.FromFactors(inst.Truth)
	diff := inst.X.MaxAbsDiff(clean)
	if diff == 0 || diff > 0.01 {
		t.Fatalf("noise level off: %v", diff)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{Dims: []int{4}, R: 2}); err == nil {
		t.Fatal("1 mode should error")
	}
	if _, err := Generate(Spec{Dims: []int{4, 4}, R: 0}); err == nil {
		t.Fatal("R=0 should error")
	}
}

func TestCubical(t *testing.T) {
	s := Cubical(3, 8, 4, 7)
	if len(s.Dims) != 3 || s.Dims[2] != 8 || s.R != 4 {
		t.Fatalf("Cubical = %+v", s)
	}
}

func TestPowersOfTwo(t *testing.T) {
	ps := PowersOfTwo(0, 4)
	want := []int{1, 2, 4, 8, 16}
	if len(ps) != len(want) {
		t.Fatalf("got %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("got %v", ps)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PowersOfTwo(5, 3)
}

func TestParseInts(t *testing.T) {
	for _, c := range []struct {
		s      string
		minLen int
		want   []int
	}{
		{"64,64,64", 2, []int{64, 64, 64}},
		{" 3 , 4", 2, []int{3, 4}},
		{"8", 1, []int{8}},
		{"8", 2, nil},
		{"", 1, nil},
		{"4,,4", 1, nil},
		{"4,0", 1, nil},
		{"4,-2", 1, nil},
		{"4,x", 1, nil},
		{"99999999999999999999", 1, nil},
	} {
		got, err := ParseInts(c.s, c.minLen)
		if (err == nil) != (c.want != nil) || !slices.Equal(got, c.want) {
			t.Errorf("ParseInts(%q, %d) = %v, %v; want %v", c.s, c.minLen, got, err, c.want)
		}
	}
}

// FuzzParseInts: the shared flag parser never panics, and everything
// it accepts is a list of at least minLen integers, each >= 1.
func FuzzParseInts(f *testing.F) {
	for _, s := range []string{"64,64,64", "1", "", ",", "0", "-1", " 7 ,8", "1,2,x", "+5", "9223372036854775807", "1e3", "0x10"} {
		f.Add(s, 2)
		f.Add(s, 1)
	}
	f.Fuzz(func(t *testing.T, s string, minLen int) {
		got, err := ParseInts(s, minLen)
		if err != nil {
			return
		}
		if len(got) < minLen || len(got) == 0 {
			t.Fatalf("ParseInts(%q, %d) accepted %d values", s, minLen, len(got))
		}
		for _, v := range got {
			if v < 1 {
				t.Fatalf("ParseInts(%q, %d) accepted %d", s, minLen, v)
			}
		}
	})
}
