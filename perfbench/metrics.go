package main

// perLayer lists the --trace 1 metrics, as BENCHMARK.json does, with
// the end-to-end metric each should move (on the workload named):
//
//   - ops_per_s, op_ms_p50, op_ms_tail: the untraced half's wall-time
//     throughput, median op and 11th-slowest op (the highest percentile
//     with ten samples beyond it), kept out of the gated set for their
//     spread on a shared host; see endToEnd. cpu_ms_per_op is the gated
//     figure every time metric below should move.
//   - plan.calibrate_s, workload.generate_s, seq.reference_s -> setup_s, every workload.
//   - plan.plan_ms, plan.prepare_ms, sparse.*, kernel.* -> cpu_ms_per_op on
//     mttkrp-oneshot-mix; near 0 or amortized on cpals-64c3-r16.
//   - sparse.fresh_call_goroutines -> heap_inuse_mb on mttkrp-oneshot-mix:
//     goroutines one fresh-Instance CSF call leaves parked (each pins its
//     workspace and tree), which is why that shape reuses its Instance.
//   - plan.pred_ratio_* -> none: measured Prepare+Run seconds and obs
//     words over the planner's prediction, per one-shot shape.
//   - dimtree.* -> cpu_ms_per_op on cpals-64c3-r16.
//   - linalg.*, ttm.* -> cpu_ms_per_op on hooi-64c3-r8.
//   - comm.*, par.* (summed over ranks, waits included) -> cpu_ms_per_op on
//     dist-64c3-r16-p8; simnet.*, comm_* -> exact words there.
//   - runtime.* -> heap_inuse_mb, cpu_ms_per_op and op_ms_tail, mostly on
//     dist and cpals; goroutines_per_op is goroutines left running per
//     op (a leak).
//   - unattributed_ms: traced op time no span covers; with the other
//     driver-row self times it sums to trace.op_ms.
//
// Metrics a workload does not exercise read 0.
var perLayer = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"plan.calibrate_s", "s"},
	{"workload.generate_s", "s"},
	{"seq.reference_s", "s"},
	{"plan.plan_ms", "ms"},
	{"plan.prepare_ms", "ms"},
	{"sparse.build_ms", "ms"},
	{"sparse.kernel_ms", "ms"},
	{"sparse.fresh_call_goroutines", "count"},
	{"kernel.self_ms", "ms"},
	{"kernel.gflops", "GFLOP/s"},
	{"plan.pred_ratio_s.16c3-r8-all", "ratio"},
	{"plan.pred_ratio_s.128c3-r16-m1-f64", "ratio"},
	{"plan.pred_ratio_s.128c3-r16-m1-f32", "ratio"},
	{"plan.pred_ratio_s.32c4-r8-m2", "ratio"},
	{"plan.pred_ratio_s.sp256c3-r16-m0", "ratio"},
	{"plan.pred_ratio_words.16c3-r8-all", "ratio"},
	{"plan.pred_ratio_words.128c3-r16-m1-f64", "ratio"},
	{"plan.pred_ratio_words.128c3-r16-m1-f32", "ratio"},
	{"plan.pred_ratio_words.32c4-r8-m2", "ratio"},
	{"plan.pred_ratio_words.sp256c3-r16-m0", "ratio"},
	{"dimtree.self_ms", "ms"},
	{"dimtree.flops", "flops"},
	{"linalg.solve_ms", "ms"},
	{"linalg.gram_ms", "ms"},
	{"solver.fit_ms", "ms"},
	{"ttm.chain_self_ms", "ms"},
	{"ttm.ttm_self_ms", "ms"},
	{"core.parallel_ms", "ms"},
	{"bench.verify_ms", "ms"},
	{"other_spans_ms", "ms"},
	{"unattributed_ms", "ms"},
	{"trace.op_ms", "ms"},
	{"comm.allgather_ms", "ms"},
	{"comm.reducescatter_ms", "ms"},
	{"comm.allreduce_ms", "ms"},
	{"par.local_ms", "ms"},
	{"par.other_rank_ms", "ms"},
	{"simnet.words_max", "words"},
	{"simnet.msgs_max", "count"},
	{"simnet.sends_total", "words"},
	{"comm_words_max", "words"},
	{"comm_ratio_bound", "ratio"},
	{"fit", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_ms_per_op", "ms"},
	{"runtime.goroutines_per_op", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.dropped", "count"},
	{"trace.events_per_op", "count"},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}
