package fanout

import (
	"sync/atomic"
	"testing"
)

var grid = []struct{ n, workers int }{
	{0, 0}, {0, 1}, {0, 4},
	{1, -3}, {1, 0}, {1, 1}, {1, 8},
	{5, -1}, {5, 1}, {5, 2}, {5, 5}, {5, 7},
	{64, 3}, {64, 4}, {1000, 16},
}

// TestQueueRunsEachChunkOnce: every chunk runs exactly once, on a
// worker index below min(workers, chunks) (0 when that is <= 1).
func TestQueueRunsEachChunkOnce(t *testing.T) {
	for _, g := range grid {
		runs := make([]atomic.Int32, g.n)
		k := max(1, min(g.workers, g.n))
		var badW atomic.Int32
		Queue(g.n, g.workers, func(w, c int) {
			if w < 0 || w >= k {
				badW.Store(int32(w) + 1)
			}
			runs[c].Add(1)
		})
		if w := badW.Load(); w != 0 {
			t.Errorf("chunks=%d workers=%d: worker index %d outside [0, %d)", g.n, g.workers, w-1, k)
		}
		for c := range runs {
			if n := runs[c].Load(); n != 1 {
				t.Errorf("chunks=%d workers=%d: chunk %d ran %d times", g.n, g.workers, c, n)
			}
		}
	}
}

// TestSplitRanges: the ranges tile [0, total) exactly once, each
// worker gets one range, and the boundaries are w*total/k with
// k = min(workers, total).
func TestSplitRanges(t *testing.T) {
	for _, g := range grid {
		k := min(g.workers, g.n)
		cover := make([]atomic.Int32, g.n)
		calls := make([]atomic.Int32, max(1, k))
		var bad atomic.Int32
		Split(g.n, g.workers, func(w, lo, hi int) {
			calls[w].Add(1)
			wantLo, wantHi := 0, g.n
			if k > 1 {
				wantLo, wantHi = w*g.n/k, (w+1)*g.n/k
			}
			if lo != wantLo || hi != wantHi {
				bad.Add(1)
			}
			for i := lo; i < hi; i++ {
				cover[i].Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Errorf("total=%d workers=%d: %d ranges off the w*total/k boundaries", g.n, g.workers, bad.Load())
		}
		for w := range calls {
			if n := calls[w].Load(); n != 1 {
				t.Errorf("total=%d workers=%d: worker %d called %d times", g.n, g.workers, w, n)
			}
		}
		for i := range cover {
			if n := cover[i].Load(); n != 1 {
				t.Errorf("total=%d workers=%d: index %d covered %d times", g.n, g.workers, i, n)
			}
		}
	}
}

// TestJoinBeforeReturn: every piece is done when Split or Queue
// returns, and one worker runs the chunks inline, in order.
func TestJoinBeforeReturn(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var done atomic.Int64
		Queue(100, workers, func(_, _ int) { done.Add(1) })
		Split(100, workers, func(_, lo, hi int) { done.Add(int64(hi - lo)) })
		if n := done.Load(); n != 200 {
			t.Fatalf("workers=%d: %d units done at return, want 200", workers, n)
		}
	}
	var order []int
	Queue(5, 1, func(_, c int) { order = append(order, c) })
	for i, c := range order {
		if c != i {
			t.Fatalf("inline queue ran chunks out of order: %v", order)
		}
	}
}

var sink [16]int

// TestFanoutAllocs: at one worker a call allocates nothing; above,
// a call with a capturing fn closure allocates at most
// AllocBound(workers).
func TestFanoutAllocs(t *testing.T) {
	inline := testing.AllocsPerRun(50, func() {
		Split(64, 1, func(w, lo, hi int) { sink[w] += hi - lo })
		Queue(64, 1, func(w, c int) { sink[w] += c })
	})
	if inline != 0 { //repro:bitwise exact allocation count
		t.Errorf("one worker: %v allocs/op, want 0", inline)
	}
	for _, workers := range []int{2, 4, 8} {
		n := 64
		split := testing.AllocsPerRun(50, func() {
			Split(n, workers, func(w, lo, hi int) { sink[w] += hi - lo + n })
		})
		queue := testing.AllocsPerRun(50, func() {
			Queue(n, workers, func(w, c int) { sink[w] += c + n })
		})
		bound := float64(AllocBound(workers))
		if split > bound || queue > bound {
			t.Errorf("workers=%d: Split %v, Queue %v allocs/op, want <= %v", workers, split, queue, bound)
		}
		t.Logf("workers=%d: Split %v, Queue %v allocs/op (bound %v)", workers, split, queue, bound)
	}
}
