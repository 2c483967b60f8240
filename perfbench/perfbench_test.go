package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	chl "repro"
)

func TestSummarizeCountsAndPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: summarize must sort
	}
	s := summarize(xs)
	want := Summary{N: 1000, P50: 500, P90: 900, P99: 990, Beyond99: 10}
	if s != want {
		t.Fatalf("summarize = %+v, want %+v", s, want)
	}
	if xs[0] != 1000 {
		t.Fatal("summarize reordered the caller's samples")
	}
	if got := summarize(nil); got.N != 0 {
		t.Fatalf("empty summary = %+v", got)
	}
	// Ties at the percentile are not "beyond" it.
	if s := summarize([]float64{1, 1, 1, 2}); s.P99 != 2 || s.Beyond99 != 0 || s.P50 != 1 {
		t.Fatalf("ties: %+v", s)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN, which report refuses")
	}
}

func TestWindowedTakesMediansOfWindows(t *testing.T) {
	// Three one-second windows; the middle one is disturbed.
	var lat, at []float64
	for w, base := range []float64{100, 5000, 110} {
		for i := 0; i < 100; i++ {
			lat = append(lat, base+float64(i))
			at = append(at, float64(w)+float64(i)/100)
		}
	}
	p50, p90, p99 := windowed(lat, at, 3, 3)
	if p50 != 159 || p90 != 199 || p99 != 208 {
		t.Fatalf("windowed = %v, %v, %v; want the third window's 159, 199, 208", p50, p90, p99)
	}
	// A sample due exactly at the end lands in the last window.
	if p50, _, _ := windowed([]float64{7}, []float64{3}, 3, 3); p50 != 7 {
		t.Fatalf("edge sample: %v", p50)
	}
}

func TestUniformPairsDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		u1, v1 := uniformPair(7, i, 1000)
		u2, v2 := uniformPair(7, i, 1000)
		if u1 != u2 || v1 != v2 {
			t.Fatalf("pair %d differs between calls", i)
		}
		if u1 < 0 || u1 >= 1000 || v1 < 0 || v1 >= 1000 {
			t.Fatalf("pair %d = (%d,%d) out of range", i, u1, v1)
		}
	}
	same := 0
	for i := 0; i < 100; i++ {
		u1, v1 := uniformPair(7, i, 1000)
		u2, v2 := uniformPair(8, i, 1000)
		if u1 == u2 && v1 == v2 {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 7 and 8 share %d of 100 pairs", same)
	}
}

func TestZipfOpsDeterministicAndSkewed(t *testing.T) {
	const n = 1000
	a, b := newClusterClients(3, n, 2), newClusterClients(3, n, 2)
	for k := 0; k < 20; k++ {
		for c := range a {
			x, y := a[c].nextOp(), b[c].nextOp()
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("client %d op %d differs for the same seed", c, k)
			}
		}
	}
	other := newClusterClients(4, n, 1)[0].nextOp()
	if reflect.DeepEqual(other, newClusterClients(3, n, 1)[0].nextOp()) {
		t.Fatal("seeds 3 and 4 drew the same first operation")
	}
	// The most popular vertex is drawn far more often than 1/n.
	counts := map[int]int{}
	zc := newClusterClients(5, n, 1)[0]
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[zc.zipf.next()]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < 20*draws/n {
		t.Fatalf("most popular vertex drawn %d of %d times: not skewed", top, draws)
	}
	kinds := map[int]int{}
	for i := 0; i < 1000; i++ {
		kinds[zc.nextOp().kind]++
	}
	if kinds[opBatch] < 700 || kinds[opBatch] > 900 {
		t.Fatalf("batch share %d/1000, want about %v", kinds[opBatch], batchShare)
	}
}

func TestPatchBatchesDeterministicAndValid(t *testing.T) {
	g := chl.GenerateRoadGrid(12, 12, 1)
	b1, s1, err := patchBatches(g, 9, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := patchBatches(g, 9, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("same seed gave different patch batches")
	}
	if len(b1) != 5 || len(s1) != 6 || s1[0] != g {
		t.Fatalf("got %d batches and %d states", len(b1), len(s1))
	}
	for k, batch := range b1 {
		if len(batch) != 12 {
			t.Fatalf("batch %d has %d ops", k, len(batch))
		}
		for _, op := range batch {
			if op.W != math.Trunc(op.W) {
				t.Fatalf("batch %d op %+v has a non-integer weight", k, op)
			}
		}
		next, err := chl.ApplyPatch(s1[k], batch)
		if err != nil {
			t.Fatalf("batch %d does not apply to state %d: %v", k, k, err)
		}
		if next.NumEdges() != s1[k+1].NumEdges() {
			t.Fatalf("state %d does not follow from batch %d", k+1, k)
		}
	}
}

func TestTicksReleaseTheScheduledRate(t *testing.T) {
	for _, rate := range []float64{1, 333, 1000, 2500, 7777} {
		total := 0
		for k := 0; k < 5000; k++ {
			total += ticksFor(rate, k)
			want := rate * tickPeriod.Seconds() * float64(k+1)
			if math.Abs(float64(total)-want) > 1 {
				t.Fatalf("rate %v: %d released after %d ticks, want %v±1", rate, total, k+1, want)
			}
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker, two requests per tick. Request 0 stalls the worker for
	// 20 ms; every request queued behind it must be charged the wait,
	// because latency runs from the request's due time, not from when
	// the worker got to it.
	const stall = 20 * time.Millisecond
	var sent atomic.Int64
	ol := openLoop{Rate: 1000, Duration: 10 * tickPeriod, Workers: 1, Do: func(i int) error {
		sent.Add(1)
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}}
	r := ol.run(0)
	if r.Offered != 20 || r.Completed != 20 || r.Dropped != 0 || int(sent.Load()) != 20 {
		t.Fatalf("offered %d completed %d dropped %d sent %d", r.Offered, r.Completed, r.Dropped, sent.Load())
	}
	if len(r.Latency) != 20 || len(r.At) != 20 || len(r.Lag) != 10 {
		t.Fatalf("%d latencies, %d due times, %d lags", len(r.Latency), len(r.At), len(r.Lag))
	}
	// Request 1 was due with request 0 and waited out the stall.
	if r.Latency[1] < micros(stall) {
		t.Fatalf("request 1 latency %v µs: the stall ahead of it was not counted", r.Latency[1])
	}
	// The last request was due 9 ticks after the first and still
	// queued behind the stall's backlog.
	if want := micros(stall - 9*tickPeriod); r.Latency[19] < want {
		t.Fatalf("last request latency %v µs < %v", r.Latency[19], want)
	}
	for i, a := range r.At {
		if want := float64(i/2) * tickPeriod.Seconds(); math.Abs(a-want) > 1e-9 {
			t.Fatalf("request %d due at %v s, want %v", i, a, want)
		}
	}
	if r.Backlog == 0 {
		t.Fatal("the stall must leave a backlog when the window closes")
	}
}

func TestMaxRateLadder(t *testing.T) {
	const limit = 1000.0
	step := func(rate, p99 float64, backlog int) ladderStep {
		return ladderStep{Rate: rate, Achieved: rate * 0.99, P99: p99, Backlog: backlog}
	}
	cases := []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all pass: the top rung", []ladderStep{step(1000, 300, 0), step(2000, 500, 0)}, 2000},
		{"p99 over the limit ends at the last pass", []ladderStep{step(1000, 400, 0), step(2000, 600, 0), step(3000, 1400, 0)}, 2000},
		{"backlog ends at the last pass", []ladderStep{step(1000, 400, 0), step(2000, 900, 1000)}, 1000},
		{"a failed request ends at the last pass", []ladderStep{step(1000, 400, 0), step(2000, math.Inf(1), 0)}, 1000},
		{"first rung fails", []ladderStep{step(1000, 2000, 0)}, 0},
		{"no rungs", nil, 0},
	}
	for _, c := range cases {
		if got := maxRate(c.steps, limit); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	if got := covered(0, 100, [][2]int64{{10, 30}, {20, 50}, {60, 70}, {90, 150}, {-5, 2}}); got != 40+10+10+2 {
		t.Fatalf("covered = %d, want 62", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered with no children = %d", got)
	}
	if got := covered(0, 100, [][2]int64{{20, 40}, {25, 30}}); got != 20 {
		t.Fatalf("nested children covered %d, want 20", got)
	}
	// root [0,100) with two overlapping children [10,40) and [30,60);
	// the first child has a grandchild [15,25).
	spans := []Span{
		{ID: 1, Name: "client", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Name: "router.shard_rpc", Start: 10_000, End: 40_000},
		{ID: 3, Parent: 1, Name: "router.shard_rpc", Start: 30_000, End: 60_000},
		{ID: 4, Parent: 2, Name: "shard.handler", Start: 15_000, End: 25_000},
	}
	self := selfTimes(spans)
	if got := self["client"]; !reflect.DeepEqual(got, []float64{50}) {
		t.Fatalf("client self = %v µs, want [50]", got)
	}
	if got := self["router.shard_rpc"]; !reflect.DeepEqual(got, []float64{20, 30}) {
		t.Fatalf("rpc self = %v µs, want [20 30]", got)
	}
	if got := self["shard.handler"]; !reflect.DeepEqual(got, []float64{10}) {
		t.Fatalf("shard self = %v µs, want [10]", got)
	}
}

func TestWindowRateSkipsFailuresAndPartWindows(t *testing.T) {
	runs := [][]closedOp{{
		{End: 0.1}, {End: 0.2}, {End: 0.6}, {End: 0.7}, {End: 0.8},
		{End: 0.9, Err: os.ErrClosed}, {End: 1.2},
	}}
	if got := windowRate(runs, 1.0, 0.5); got != 5 {
		t.Fatalf("windowRate = %v, want median(2,3)/0.5 = 5", got)
	}
}

func TestFailedOperationFailsTheRun(t *testing.T) {
	if ok, failed := (&result{attempted: 5}).verdict(); !ok || failed != 0 {
		t.Fatalf("a clean run: correct=%v failed=%d", ok, failed)
	}
	if ok, failed := (&result{attempted: 5, wrong: 2}).verdict(); ok || failed != 2 {
		t.Fatalf("wrong answers: correct=%v failed=%d", ok, failed)
	}
	// One request of a back-to-back phase errors: the phase records it
	// and the run fails, though every answer it got was right.
	sat := saturate(2, time.Hour, 0, 50, func(i int) error {
		if i == 17 {
			return os.ErrDeadlineExceeded
		}
		return nil
	})
	res := &result{e2e: map[string]float64{}, layer: newLayer()}
	distPhases{sat: sat}.record(res)
	if ok, failed := res.verdict(); ok || failed != 1 || res.attempted != 50 {
		t.Fatalf("a failed request: correct=%v failed=%d attempted=%d", ok, failed, res.attempted)
	}
}

func TestReportRefusesMissingExtraAndNaN(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := report(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("NaN was accepted")
	}
	out, err := report(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || len(out) != 2 {
		t.Fatalf("report = %v, %v", out, err)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// tables of this program in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs from the program's table:\n%v\n%v", layer, perLayer)
	}
}
