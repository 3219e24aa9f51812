package main

// Self-time resolution for the traced run. The flight recorder keeps
// begin/end pairs per (pid, tid) row; this file turns one op's events
// into per-layer self times:
//
//   - On the driver row, every span's self time is its duration minus
//     the durations of the spans nested directly inside it. With
//     bench.op the only root, those self times partition the op by
//     construction: they sum exactly to the bench.op span, and a nested
//     ttm inside ttm-chain is counted once, under ttm. What can fail is
//     the trace itself: checkOpSpan and checkSpanCover compare the spans
//     with the ops' independently timed wall time, and resolve rejects
//     spans on rows the workload has no business writing.
//   - Worker slab spans (slab, gram-slab, ttm-slab) are parallel
//     sub-steps of the span that forked them; their time stays with it.
//   - Rank rows (the simulated processors) run concurrently, so their
//     spans are summed over ranks and lie outside the partition; the
//     driver row carries their wall time in bench.parallel.
//   - Kernel instants carry flops; those landing inside a driver-row
//     kernel span give kernel.gflops.

import (
	"fmt"
	"time"

	"repro/internal/obs/flight"
)

// driverMetric maps a driver-row span name to the per-layer metric its
// self time is charged to. Wrappers whose self time belongs to no layer
// (the op itself, and the run/solve call around the program's spans)
// go to unattributed_ms. Names not listed go to other_spans_ms, so the
// partition holds even when the program grows new spans.
var driverMetric = map[string]string{
	"bench.op":           "unattributed_ms",
	"bench.run":          "unattributed_ms",
	"bench.plan":         "plan.plan_ms",
	"bench.prepare":      "plan.prepare_ms",
	"bench.sparse-build": "sparse.build_ms",
	"bench.sparse-run":   "sparse.kernel_ms",
	"sparse":             "sparse.kernel_ms",
	"bench.verify":       "bench.verify_ms",
	"bench.parallel":     "core.parallel_ms",
	"kernel":             "kernel.self_ms",
	"tree-root":          "dimtree.self_ms",
	"tree-partial":       "dimtree.self_ms",
	"solve":              "linalg.solve_ms",
	"gram":               "linalg.gram_ms",
	"fit":                "solver.fit_ms",
	"ttm-chain":          "ttm.chain_self_ms",
	"ttm":                "ttm.ttm_self_ms",
}

const otherSpans = "other_spans_ms"

// rankMetric maps rank-row span names to rank-summed metrics.
var rankMetric = map[string]string{
	"allgather":     "comm.allgather_ms",
	"reducescatter": "comm.reducescatter_ms",
	"allreduce":     "comm.allreduce_ms",
	"local":         "par.local_ms",
}

const otherRank = "par.other_rank_ms"

// partitionMetrics lists every metric a driver-row self time can land
// in; their sum is the traced op wall time.
func partitionMetrics() []string {
	seen := map[string]bool{otherSpans: true}
	out := []string{otherSpans}
	for _, m := range driverMetric {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// workerSpan names the parallel sub-step spans that are skipped.
var workerSpan = map[string]bool{"slab": true, "gram-slab": true, "ttm-slab": true}

// opLayers is one op's resolved trace, in nanoseconds.
type opLayers struct {
	opNs        int64
	self        map[string]int64 // per-layer metric -> ns
	kernelNs    int64            // inclusive time in driver-row kernel spans
	kernelFlops int64            // flops of kernel instants inside them
}

type frame struct {
	name        string
	start       int64
	childNs     int64
	kernelFlops int64
}

type rowKey struct{ pid, tid int32 }

// resolve computes one op's layers from its events (sorted by time, as
// Recorder.Events returns them). ranks is the workload's simulated rank
// count, 0 for shared memory. It fails on unbalanced spans, on
// driver-row spans outside bench.op, and on spans on an unexpected row:
// for shared memory, anything but a worker slab span off the driver
// row; for simulated ranks, a span on a row that is neither a rank's
// nor the driver's. Such a span would otherwise land in no table row,
// or in par.other_rank_ms, unnoticed.
func resolve(evs []flight.Event, driverPid, ranks int) (opLayers, error) {
	out := opLayers{self: map[string]int64{}}
	driver := rowKey{pid: int32(driverPid)}
	stacks := map[rowKey][]frame{}
	names := map[uint8]string{}
	nameOf := func(id uint8) string {
		s, ok := names[id]
		if !ok {
			s = flight.NameOf(id)
			names[id] = s
		}
		return s
	}
	for _, ev := range evs {
		row := rowKey{pid: ev.Pid, tid: ev.Tid}
		switch flight.Kind(ev.Kind) {
		case flight.KindBegin:
			name := nameOf(ev.Name)
			if ranks > 0 {
				if row != driver && (ev.Pid < 0 || int(ev.Pid) >= ranks) {
					return out, fmt.Errorf("span %q on row %d/%d, which is no rank's", name, row.pid, row.tid)
				}
			} else if row != driver && !workerSpan[name] {
				return out, fmt.Errorf("span %q on row %d/%d, off the driver row", name, row.pid, row.tid)
			}
			if workerSpan[name] {
				continue
			}
			if row == driver && len(stacks[row]) == 0 && name != "bench.op" {
				return out, fmt.Errorf("driver span %q outside bench.op", name)
			}
			stacks[row] = append(stacks[row], frame{name: name, start: ev.TS})
		case flight.KindEnd:
			name := nameOf(ev.Name)
			if workerSpan[name] {
				continue
			}
			st := stacks[row]
			if len(st) == 0 || st[len(st)-1].name != name {
				return out, fmt.Errorf("row %d/%d: end of %q does not close the innermost span", row.pid, row.tid, name)
			}
			f := st[len(st)-1]
			st = st[:len(st)-1]
			stacks[row] = st
			dur := ev.TS - f.start
			self := dur - f.childNs
			if len(st) > 0 {
				st[len(st)-1].childNs += dur
			}
			if row == driver {
				m, ok := driverMetric[name]
				if !ok {
					m = otherSpans
				}
				out.self[m] += self
				if name == "bench.op" {
					out.opNs += dur
				}
				if name == "kernel" {
					out.kernelNs += dur
					out.kernelFlops += f.kernelFlops
				}
				continue
			}
			m, ok := rankMetric[name]
			if !ok {
				m = otherRank
			}
			out.self[m] += self
		case flight.KindKernel:
			// Kernel instants are recorded on the anonymous row 0 by
			// whichever goroutine ran the GEMM; charge them to the span
			// the driver is in.
			if st := stacks[driver]; len(st) > 0 && st[len(st)-1].name == "kernel" {
				st[len(st)-1].kernelFlops += ev.A
			}
		}
	}
	for row, st := range stacks {
		if len(st) > 0 {
			return out, fmt.Errorf("row %d/%d: span %q never ended", row.pid, row.tid, st[len(st)-1].name)
		}
	}
	if out.opNs == 0 {
		return out, fmt.Errorf("no bench.op span")
	}
	return out, nil
}

// checkOpSpan compares one traced op's bench.op span with the wall time
// the loop measured around the same op. The span lies inside that
// interval, so it can be no longer.
func checkOpSpan(opNs int64, wall time.Duration) error {
	if span := time.Duration(opNs); span > wall {
		return fmt.Errorf("bench.op span %v is longer than the op's timed wall %v", span, wall)
	}
	return nil
}

// checkSpanCover compares the bench.op spans of all traced ops with
// their summed timed wall time. A span is shorter than its op only by
// the hand-off to and from the op's goroutine, allowed 1 ms per op
// plus 10% of the total. A larger gap means part of every op ran
// untraced, and the per-layer table would not cover it. The check is
// over the sum, not per op: on a shared host one hand-off now and then
// waits tens of ms for a descheduled CPU.
func checkSpanCover(spanNs, wallNs int64, ops int) error {
	gap := time.Duration(wallNs - spanNs)
	if gap > time.Duration(ops)*time.Millisecond+time.Duration(wallNs/10) {
		return fmt.Errorf("traced ops' timed wall %v exceeds their bench.op spans %v by %v",
			time.Duration(wallNs), time.Duration(spanNs), gap)
	}
	return nil
}
