package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/flight"
	"repro/internal/simnet"
)

// A rank that fails before sending leaves its peer blocked in Recv and
// simnet.Run waiting forever; the op deadline must turn that into a
// counted timeout instead of a stalled run.
func TestRunOpTimesOutOnSimnetHang(t *testing.T) {
	net := simnet.New(2)
	err := runOp(func() error {
		return net.Run(func(rank int) error {
			if rank == 0 {
				return errors.New("rank 0 fails before sending")
			}
			net.Recv(0, 1)
			return nil
		})
	}, 200*time.Millisecond)
	if !errors.Is(err, errTimeout) {
		t.Fatalf("runOp = %v, want a timeout", err)
	}
}

func TestRunOpReportsPanic(t *testing.T) {
	err := runOp(func() error { panic("boom") }, time.Second)
	if err == nil || errors.Is(err, errTimeout) {
		t.Fatalf("runOp = %v, want the panic as an error", err)
	}
}

func ev(kind flight.Kind, name string, pid int32, ts int64) flight.Event {
	return flight.Event{Kind: uint8(kind), Name: flight.RegisterName(name), Pid: pid, TS: ts}
}

// Nested spans: ttm inside ttm-chain inside bench.run must be counted
// once each, and the self times must sum to the op.
func TestResolvePartitionsNestedSpans(t *testing.T) {
	const anon = flight.AnonPid
	evs := []flight.Event{
		ev(flight.KindBegin, "bench.op", anon, 0),
		ev(flight.KindBegin, "bench.plan", anon, 10),
		ev(flight.KindEnd, "bench.plan", anon, 30),
		ev(flight.KindBegin, "bench.run", anon, 40),
		ev(flight.KindBegin, "ttm-chain", anon, 50),
		ev(flight.KindBegin, "ttm", anon, 60),
		ev(flight.KindBegin, "slab", anon, 70), // worker sub-step: stays with ttm
		ev(flight.KindEnd, "slab", anon, 80),
		ev(flight.KindEnd, "ttm", anon, 150),
		ev(flight.KindEnd, "ttm-chain", anon, 160),
		ev(flight.KindBegin, "kernel", anon, 170),
		{Kind: uint8(flight.KindKernel), Pid: anon, TS: 175, A: 1000},
		ev(flight.KindEnd, "kernel", anon, 270),
		ev(flight.KindBegin, "future-span", anon, 280),
		ev(flight.KindEnd, "future-span", anon, 285),
		ev(flight.KindEnd, "bench.run", anon, 290),
		ev(flight.KindEnd, "bench.op", anon, 300),
	}
	l, err := resolve(evs, flight.AnonPid, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"plan.plan_ms":      20,
		"ttm.ttm_self_ms":   90,
		"ttm.chain_self_ms": 20,
		"kernel.self_ms":    100,
		"other_spans_ms":    5,
		"unattributed_ms":   300 - 20 - 110 - 100 - 5,
	}
	for k, v := range want {
		if l.self[k] != v {
			t.Errorf("%s = %d ns, want %d", k, l.self[k], v)
		}
	}
	if l.opNs != 300 || l.kernelNs != 100 || l.kernelFlops != 1000 {
		t.Errorf("op %d ns, kernel %d ns / %d flops; want 300, 100, 1000", l.opNs, l.kernelNs, l.kernelFlops)
	}
}

// Rank rows run concurrently and are summed outside the partition.
func TestResolveRankRows(t *testing.T) {
	const driverPid = 2
	evs := []flight.Event{
		ev(flight.KindBegin, "bench.op", driverPid, 0),
		ev(flight.KindBegin, "bench.parallel", driverPid, 0),
		ev(flight.KindBegin, "allgather", 0, 1),
		ev(flight.KindBegin, "allgather", 1, 1),
		ev(flight.KindEnd, "allgather", 0, 50),
		ev(flight.KindEnd, "allgather", 1, 60),
		ev(flight.KindEnd, "bench.parallel", driverPid, 70),
		ev(flight.KindEnd, "bench.op", driverPid, 70),
	}
	l, err := resolve(evs, driverPid, driverPid)
	if err != nil {
		t.Fatal(err)
	}
	if l.self["comm.allgather_ms"] != 108 || l.self["core.parallel_ms"] != 70 || l.opNs != 70 {
		t.Errorf("got %v, op %d", l.self, l.opNs)
	}
}

func TestResolveRejectsBrokenTraces(t *testing.T) {
	const anon = flight.AnonPid
	for name, evs := range map[string][]flight.Event{
		"crossed": {
			ev(flight.KindBegin, "bench.op", anon, 0),
			ev(flight.KindBegin, "ttm", anon, 1),
			ev(flight.KindEnd, "bench.op", anon, 2),
			ev(flight.KindEnd, "ttm", anon, 3),
		},
		"unclosed": {ev(flight.KindBegin, "bench.op", anon, 0)},
		"outside op": {
			ev(flight.KindBegin, "kernel", anon, 0),
			ev(flight.KindEnd, "kernel", anon, 1),
		},
		// A non-slab span on a worker row would be summed nowhere.
		"stray worker-row span": {
			ev(flight.KindBegin, "bench.op", anon, 0),
			{Kind: uint8(flight.KindBegin), Name: flight.RegisterName("ttm"), Pid: anon, Tid: 1, TS: 1},
			{Kind: uint8(flight.KindEnd), Name: flight.RegisterName("ttm"), Pid: anon, Tid: 1, TS: 2},
			ev(flight.KindEnd, "bench.op", anon, 3),
		},
		"rank row on shared memory": {
			ev(flight.KindBegin, "bench.op", anon, 0),
			ev(flight.KindBegin, "allgather", 0, 1),
			ev(flight.KindEnd, "allgather", 0, 2),
			ev(flight.KindEnd, "bench.op", anon, 3),
		},
		"no op": {},
	} {
		if _, err := resolve(evs, anon, 0); err == nil {
			t.Errorf("%s: resolve accepted a broken trace", name)
		}
	}
	// With P = 2 ranks and the driver on row 2, row 3 belongs to nobody.
	stray := []flight.Event{
		ev(flight.KindBegin, "bench.op", 2, 0),
		ev(flight.KindBegin, "local", 3, 1),
		ev(flight.KindEnd, "local", 3, 2),
		ev(flight.KindEnd, "bench.op", 2, 3),
	}
	if _, err := resolve(stray, 2, 2); err == nil {
		t.Error("resolve accepted a span on a row past the ranks")
	}
}

// The bench.op span must lie inside the op's timed wall time and cover
// all of it but the goroutine hand-off.
func TestCheckOpSpan(t *testing.T) {
	ms := int64(time.Millisecond)
	for _, tc := range []struct {
		span int64
		wall time.Duration
		ok   bool
	}{
		{100 * ms, 101 * time.Millisecond, true},
		{100 * ms, 99 * time.Millisecond, false},  // span longer than the op
		{990 * ms, 1000 * time.Millisecond, true}, // hand-off
	} {
		if err := checkOpSpan(tc.span, tc.wall); (err == nil) != tc.ok {
			t.Errorf("span %d ns, wall %v: %v, want ok=%v", tc.span, tc.wall, err, tc.ok)
		}
	}
}

func TestCheckSpanCover(t *testing.T) {
	ms := int64(time.Millisecond)
	for _, tc := range []struct {
		span, wall int64
		ops        int
		ok         bool
	}{
		{100 * 27 * ms, 100 * 28 * ms, 100, true},
		{100 * 27 * ms, 100 * 27 * ms, 100, true},
		{99*27*ms + 57*ms, 99*28*ms + 83*ms, 100, true}, // one hand-off waited 26 ms
		{10 * 50 * ms, 10 * 100 * ms, 10, false},        // half of every op untraced
		{100 * 22 * ms, 100 * 27 * ms, 100, false},      // 5 ms of every 27 ms op untraced
	} {
		if err := checkSpanCover(tc.span, tc.wall, tc.ops); (err == nil) != tc.ok {
			t.Errorf("spans %d ns, wall %d ns, %d ops: %v, want ok=%v", tc.span, tc.wall, tc.ops, err, tc.ok)
		}
	}
}

func TestExactSends(t *testing.T) {
	dims := []int{64, 64, 64}
	for _, tc := range []struct {
		alg  core.ParAlgorithm
		grid []int
		want float64
	}{
		{core.ParStationary, []int{2, 2, 2}, 3 * 3 * 64 * 16 / 8}, // Eq. (14)
		{core.ParGeneral, []int{1, 2, 2, 2}, 3 * 3 * 64 * 16 / 8}, // Eq. (18), P0 = 1
		{core.ParViaMatmul, []int{8}, 7 * 64 * 16 / 8},
	} {
		got, err := exactSends(dims, 16, tc.alg, 0, tc.grid)
		if err != nil || got != tc.want {
			t.Errorf("%v on %v: %v, %v; want %v", tc.alg, tc.grid, got, err, tc.want)
		}
	}
}

// BENCHMARK.json and the metrics this program prints must agree.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, program has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
