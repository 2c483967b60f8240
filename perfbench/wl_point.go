package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	chl "repro"
)

// The point workload: independent users issuing GET /dist for uniform
// pairs against one Server on the packed CAL×4 index: back to back for
// the end-to-end figures, and in a traced pass also in an open loop.

const (
	// pointRate is the nominal offered rate of the latency phase.
	pointRate = 1000.0
	// pointLimitUs is the p99 limit of the max-rate ladder.
	pointLimitUs = 1000.0
)

// pointLadder is the max-rate ladder's offered rates, req/s.
var pointLadder = []float64{500, 1000, 1500, 2000, 3000, 4000, 6000, 8000}

// singleServer is one Server on a frozen index, mounted on loopback.
type singleServer struct {
	g     *chl.Graph
	ix    *chl.Index
	fx    *chl.FlatIndex
	srv   *chl.Server
	ts    *httptest.Server
	build *chl.Metrics
	// freezeS is the time Freeze took.
	freezeS float64
}

func (s *singleServer) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// setupSingle generates the dataset, builds it with GLL, freezes it
// packed, starts a Server with the shipped cache and waits for its
// listener, with edge updates enabled when updates is set. It sets up
// reps times and keeps the last deployment.
func setupSingle(cfg config, c *http.Client, tracing *tracing, dataset string, scale float64, updates bool, reps int) (*setupTimes, *singleServer, error) {
	var st setupTimes
	var keep *singleServer
	for i := 0; i < reps; i++ {
		if keep != nil {
			keep.close()
		}
		keep = &singleServer{}
		if err := st.time(func() error { return keep.deploy(cfg, c, tracing, dataset, scale, updates) }); err != nil {
			keep.close()
			return nil, nil, err
		}
	}
	return &st, keep, nil
}

func (s *singleServer) deploy(cfg config, c *http.Client, tracing *tracing, dataset string, scale float64, updates bool) error {
	var err error
	if s.g, err = chl.GenerateDataset(dataset, scale, cfg.seed); err != nil {
		return err
	}
	if s.ix, err = chl.Build(s.g, chl.Options{Seed: cfg.seed}); err != nil {
		return err
	}
	s.build = s.ix.Metrics()
	tf := time.Now()
	if s.fx, err = s.ix.Freeze(); err != nil {
		return err
	}
	s.freezeS = time.Since(tf).Seconds()
	s.srv = chl.NewServerFromFlat(s.fx, cacheSize)
	if updates {
		if err := s.srv.EnableUpdates(s.g, ""); err != nil {
			return err
		}
	}
	s.ts, err = listen(c, tracing.wrap("serve.handler", s.srv.Handler()))
	return err
}

// answer is one /dist answer kept for the gate: request number i, the
// distance, and for the update workload the range of patch states
// [lo,hi] the read may have observed.
type answer struct {
	i      int
	d      float64
	lo, hi int
}

// answers collects answers from every request goroutine.
type answers struct {
	mu  sync.Mutex
	got []answer
}

func (a *answers) add(x answer) {
	a.mu.Lock()
	a.got = append(a.got, x)
	a.mu.Unlock()
}

// distPhases is the measurement of a /dist workload. Every pass has a
// phase in which each worker sends back to back; it gives the
// end-to-end figures. A traced pass first runs an open loop at the
// nominal rate, the way independent users arrive, whose figures are
// reported per layer only: an open loop's latency at a light load is
// mostly the time a halted vCPU takes to wake, which moved by 30%
// between runs of the same code on a shared VM.
type distPhases struct {
	open          openResult
	p50, p90, p99 float64 // µs of the open loop, medians over one-second windows
	sat           saturation
}

// openDur is the open-loop part of a traced pass; the back-to-back
// phase takes the rest.
func openDur(cfg config) time.Duration { return cfg.seconds * 4 / 10 }

func windowsOf(d time.Duration) int { return max(1, int(d/time.Second)) }

// measureDist runs the phases of a pass. A satLimit > 0 bounds the
// back-to-back phase by requests, not time; between runs after the
// open loop, when there is one.
func measureDist(cfg config, rate float64, satLimit int, do func(i int) error, between func()) distPhases {
	var m distPhases
	satDur := cfg.seconds
	if cfg.trace {
		od := openDur(cfg)
		satDur -= od
		m.open = openLoop{Rate: rate, Duration: od, Workers: cfg.workers, Do: do}.run(0)
		m.p50, m.p90, m.p99 = windowed(m.open.Latency, m.open.At, od.Seconds(), windowsOf(od))
		lag := summarize(m.open.Lag)
		cfg.log("open loop at %.0f req/s: %s µs; window medians p50 %.1f p90 %.1f p99 %.1f µs", rate, summarize(m.open.Latency), m.p50, m.p90, m.p99)
		cfg.log("generator lag %s µs", lag)
		if lag.P99 > m.p50/2 {
			cfg.log("INVALID: generator lag p99 %.0f µs is more than half the measured p50 %.0f µs", lag.P99, m.p50)
		}
		if between != nil {
			between()
		}
	}
	m.sat = saturate(cfg.workers, satDur, m.open.Offered, satLimit, do)
	cfg.log("back to back: window medians p50 %.1f p90 %.1f p99 %.1f µs; %.0f req/s at %.4f CPU ms each", m.sat.p50, m.sat.p90, m.sat.p99, m.sat.rate, m.sat.cpuPerOp)
	return m
}

// record puts the phases' figures into a result.
func (m distPhases) record(res *result) {
	res.attempted += m.open.Offered - m.open.Dropped + m.sat.attempted
	res.failed += m.open.Failed + m.sat.failed
	res.e2e["p50_ms"] = m.sat.p50 / 1e3
	res.e2e["cpu_ms_per_op"] = m.sat.cpuPerOp
	res.layer["e2e.p90_ms"] = m.sat.p90 / 1e3
	res.layer["e2e.p99_ms"] = m.sat.p99 / 1e3
	res.layer["e2e.ops_per_s"] = m.sat.rate
	res.layer["e2e.open_p50_ms"] = m.p50 / 1e3
	res.layer["e2e.open_p90_ms"] = m.p90 / 1e3
	res.layer["e2e.open_p99_ms"] = m.p99 / 1e3
	if len(m.open.Lag) > 0 {
		res.layer["loadgen.lag_p99_us"] = summarize(m.open.Lag).P99
		res.layer["loadgen.achieved_rps"] = float64(m.open.Completed) / m.open.Window.Seconds()
	}
}

// tracedPass repeats the open loop with tracing on and fills the
// span-derived metrics; the overhead compares the two open loops.
func tracedPass(cfg config, res *result, tracing *tracing, rate float64, first int, do func(i int) error, untracedP50 float64) {
	tr := newTracer()
	tracing.cur.Store(tr)
	od := openDur(cfg)
	traced := openLoop{Rate: rate, Duration: od, Workers: cfg.workers, Do: do}.run(first)
	tracing.cur.Store(nil)
	res.attempted += traced.Offered - traced.Dropped
	res.failed += traced.Failed
	tp50, _, _ := windowed(traced.Latency, traced.At, od.Seconds(), windowsOf(od))
	res.spans = tr.snapshot()
	self := selfTimes(res.spans)
	res.layer["trace.client_self_us"] = median(self["client"])
	res.layer["trace.handler_self_us"] = median(self["serve.handler"])
	res.layer["trace.attributed_share"] = tr.attributedShare()
	res.layer["trace.overhead_pct"] = 100 * (tp50 - untracedP50) / untracedP50
}

func runPoint(cfg config) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: newLayer()}
	c := newClient(cfg.workers)
	var tracing tracing
	setups, s, err := setupSingle(cfg, c, &tracing, "CAL", 4, false, setupReps)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setups.record(res)
	n := s.fx.NumVertices()
	res.fixtures = []fixture{{Name: "CAL x4 packed", Vertices: n, Edges: s.g.NumEdges(), Labels: s.fx.TotalLabels(), Bytes: s.fx.TotalMemory()}}
	cfg.log("setup %.3f s CPU, %.3f s wall (medians of %d)", median(setups.cpu), median(setups.wall), setupReps)

	var got answers
	do := func(i int) error {
		u, v := uniformPair(cfg.seed, i, n)
		d, err := getDist(c, tracing.cur.Load(), s.ts.URL, u, v)
		if err == nil {
			got.add(answer{i: i, d: d})
		}
		return err
	}
	m := measureDist(cfg, pointRate, 0, do, nil)
	m.record(res)

	if cfg.trace {
		layer := res.layer
		layer["graph.gen_s"] = timeMedian(1, func() { chl.GenerateDataset("CAL", 4, cfg.seed) })
		layer["order.road_s"] = timeMedian(setupReps, func() { chl.RankAuto(s.g, cfg.seed) })
		gllLayers(layer, s.build)
		layer["label.freeze_s"] = s.freezeS
		layer["label.packed_bytes"] = float64(s.fx.TotalMemory())
		tc := time.Now()
		cx, err := s.fx.Compress()
		if err != nil {
			return nil, err
		}
		layer["label.compress_s"] = time.Since(tc).Seconds()
		layer["label.compressed_bytes"] = float64(cx.TotalMemory())
		if err := servingProbes(layer, s.fx, s.srv, c, s.ts.URL, cfg.seed); err != nil {
			return nil, err
		}

		steps, next := runLadder(pointLadder, cfg.seconds/time.Duration(len(pointLadder)), pointLimitUs, m.sat.next, func(rate float64) openLoop {
			return openLoop{Rate: rate, Workers: cfg.workers, Do: do}
		})
		for _, st := range steps {
			cfg.log("ladder %6.0f req/s: achieved %.0f p99 %.0f µs backlog %d pass=%v", st.Rate, st.Achieved, st.P99, st.Backlog, st.passes(pointLimitUs))
			res.attempted += int(math.Round(st.Achieved*st.Window)) + st.Failed
			res.failed += st.Failed
		}
		layer["serve.max_rps"] = maxRate(steps, pointLimitUs)
		cfg.log("max_rps %.0f (p99 limit %.0f µs)", layer["serve.max_rps"], pointLimitUs)
		tracedPass(cfg, res, &tracing, pointRate, next, do, m.p50)
	}

	// The gate: every answer equals Index.Query on the in-memory index.
	for _, a := range got.got {
		u, v := uniformPair(cfg.seed, a.i, n)
		if want := s.ix.Query(u, v); !same(a.d, want) {
			if res.wrong < 5 {
				cfg.log("GATE /dist(%d,%d) = %v, Index.Query = %v", u, v, a.d, want)
			}
			res.wrong++
		}
	}
	cfg.log("gate: %d answers checked, %d wrong", len(got.got), res.wrong)
	return res, nil
}

// gllLayers copies a GLL build's counters into the gll.road layer.
func gllLayers(layer map[string]float64, m *chl.Metrics) {
	if m == nil {
		return
	}
	layer["gll.road.construct_s"] = m.ConstructTime.Seconds()
	layer["gll.road.clean_s"] = m.CleanTime.Seconds()
	layer["gll.road.labels_cleaned"] = float64(m.LabelsCleaned)
	layer["gll.road.dist_queries"] = float64(m.DistanceQueries)
}
