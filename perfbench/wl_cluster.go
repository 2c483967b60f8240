package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	chl "repro"
)

// The cluster workload: callers that wait for their reply — dispatch
// or ETA services — POSTing /batch and /matrix through a Router in
// front of two shard Servers that serve the compressed CAL×1 index cut
// with SaveShards.

const (
	// clusterScale is the road graph's scale. On CAL×4 the set-up took
	// three quarters of a run and the operations' CPU time swung with
	// the host's load by up to 45% between neighbouring runs; the CAL×1
	// index, about 1 MB compressed, stays close to the per-core caches.
	clusterScale  = 1
	clusterShards = 2
	batchPairs    = 256
	matrixSide    = 32
	// batchShare is the share of /batch among the operations; the rest
	// are /matrix (about 4:1).
	batchShare = 0.8
	// zipfS is the skew of vertex popularity.
	zipfS = 1.1
)

const (
	opBatch = iota
	opMatrix
)

// clusterDeploy is the router, its shards and their listeners.
type clusterDeploy struct {
	g        *chl.Graph
	ix       *chl.Index
	fx       *chl.FlatIndex // compressed
	owner    func(v int) int
	shards   []*chl.Server
	listens  []*httptest.Server
	router   *chl.Router
	rts      *httptest.Server
	dir      string
	build    *chl.Metrics
	compress float64 // s FreezeCompressed took
}

func (d *clusterDeploy) close() {
	for _, ts := range d.listens {
		ts.Close()
	}
	for _, s := range d.shards {
		s.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// setupCluster builds, compresses and slices the index, starts one
// Server per shard and the Router, and waits for the router's
// listener; it sets up smallSetupReps times and keeps the last
// deployment.
func setupCluster(cfg config, c *http.Client, tracing *tracing) (*setupTimes, *clusterDeploy, error) {
	var st setupTimes
	var keep *clusterDeploy
	for i := 0; i < smallSetupReps; i++ {
		if keep != nil {
			keep.close()
		}
		keep = &clusterDeploy{}
		if err := st.time(func() error { return keep.deploy(cfg, c, tracing, i) }); err != nil {
			keep.close()
			return nil, nil, err
		}
	}
	return &st, keep, nil
}

func (d *clusterDeploy) deploy(cfg config, c *http.Client, tracing *tracing, rep int) error {
	var err error
	if d.g, err = chl.GenerateDataset("CAL", clusterScale, cfg.seed); err != nil {
		return err
	}
	if d.ix, err = chl.Build(d.g, chl.Options{Seed: cfg.seed}); err != nil {
		return err
	}
	d.build = d.ix.Metrics()
	tc := time.Now()
	if d.fx, err = d.ix.FreezeCompressed(); err != nil {
		return err
	}
	d.compress = time.Since(tc).Seconds()
	d.dir = filepath.Join(cfg.out, fmt.Sprintf("cluster-%d-%d", os.Getpid(), rep))
	m, err := d.fx.SaveShards(d.dir, clusterShards, 64, uint64(cfg.seed))
	if err != nil {
		return err
	}
	part, err := m.Partition()
	if err != nil {
		return err
	}
	d.owner = part.Owner
	groups := make([][]string, m.Shards)
	for id := 0; id < m.Shards; id++ {
		s, err := chl.NewServer(filepath.Join(d.dir, m.Files[id]), cacheSize)
		if err != nil {
			return err
		}
		d.shards = append(d.shards, s)
		if err := s.SetShard(id, part); err != nil {
			return err
		}
		ts, err := listen(c, tracing.wrap("shard.handler", s.Handler()))
		if err != nil {
			return err
		}
		d.listens = append(d.listens, ts)
		groups[id] = []string{ts.URL}
	}
	base := &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if tr := tracing.cur.Load(); tr != nil {
			return tr.transport(base).RoundTrip(r)
		}
		return base.RoundTrip(r)
	})
	d.router, err = chl.NewRouter(chl.RouterConfig{
		Manifest:     m,
		ReplicaAddrs: groups,
		CacheSize:    cacheSize,
		Client:       &http.Client{Timeout: 5 * time.Second, Transport: rt},
	})
	if err != nil {
		return err
	}
	d.rts, err = listen(c, tracing.wrap("router.handler", d.router.Handler()))
	if err != nil {
		return err
	}
	d.listens = append(d.listens, d.rts)
	return nil
}

// clusterOp is one operation with its inputs and answers, kept for the
// gate. For /batch, pairs[i] = (us[i], vs[i]); for /matrix, us are the
// sources, vs the targets and got the rows in order.
type clusterOp struct {
	kind   int
	us, vs []int
	got    []float64
}

// clusterClient is one closed-loop caller with its own seeded stream.
type clusterClient struct {
	rng  *rand.Rand
	zipf *zipfVertices
	ops  []clusterOp
}

func newClusterClients(seed int64, n, clients int) []*clusterClient {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]*clusterClient, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		out[c] = &clusterClient{rng: rng, zipf: &zipfVertices{perm: perm, z: rand.NewZipf(rng, zipfS, 1, uint64(n-1))}}
	}
	return out
}

// nextOp draws the client's next operation.
func (cc *clusterClient) nextOp() clusterOp {
	if cc.rng.Float64() < batchShare {
		op := clusterOp{kind: opBatch, us: make([]int, batchPairs), vs: make([]int, batchPairs)}
		for i := range op.us {
			op.us[i], op.vs[i] = cc.zipf.next(), cc.zipf.next()
		}
		return op
	}
	op := clusterOp{kind: opMatrix, us: make([]int, matrixSide), vs: make([]int, matrixSide)}
	for i := range op.us {
		op.us[i] = cc.zipf.next()
		op.vs[i] = cc.zipf.next()
	}
	return op
}

func intList(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// send performs op against the router at base and fills op.got.
func (op *clusterOp) send(c *http.Client, tr *Tracer, base string) error {
	var body []byte
	path := "/batch"
	if op.kind == opBatch {
		body = append(body, '[')
		for i := range op.us {
			if i > 0 {
				body = append(body, ',')
			}
			body = intList(body, []int{op.us[i], op.vs[i]})
		}
		body = append(body, ']')
	} else {
		path = "/matrix"
		body = append(body, `{"sources":`...)
		body = intList(body, op.us)
		body = append(body, `,"targets":`...)
		body = intList(body, op.vs)
		body = append(body, '}')
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	defer tr.client(req).finish()
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s status %d: %s", path, resp.StatusCode, msg)
	}
	dec := json.NewDecoder(resp.Body)
	if op.kind == opBatch {
		var a struct {
			Dists []float64 `json:"dists"`
		}
		if err := dec.Decode(&a); err != nil {
			return err
		}
		if len(a.Dists) != len(op.us) {
			return fmt.Errorf("/batch returned %d answers for %d pairs", len(a.Dists), len(op.us))
		}
		op.got = a.Dists
		return nil
	}
	// The NDJSON stream: a header, one row per source in order, and an
	// {"error": ...} line if the stream was cut.
	var head struct {
		Rows int `json:"rows"`
	}
	if err := dec.Decode(&head); err != nil {
		return err
	}
	op.got = make([]float64, 0, len(op.us)*len(op.vs))
	for i := 0; i < len(op.us); i++ {
		var row struct {
			U     int       `json:"u"`
			Dists []float64 `json:"dists"`
			Error string    `json:"error"`
		}
		if err := dec.Decode(&row); err != nil {
			return fmt.Errorf("/matrix row %d: %w", i, err)
		}
		if row.Error != "" {
			return fmt.Errorf("/matrix row %d: %s", i, row.Error)
		}
		if row.U != op.us[i] || len(row.Dists) != len(op.vs) {
			return fmt.Errorf("/matrix row %d is for source %d with %d cells, want %d with %d", i, row.U, len(row.Dists), op.us[i], len(op.vs))
		}
		op.got = append(op.got, row.Dists...)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	return nil
}

// check compares every answer of op with Index.Query, through a memo
// of pairs already checked; -1 on the wire means unreachable.
func (op *clusterOp) check(ix *chl.Index, memo map[[2]int]float64) (wrong int) {
	want := func(u, v int) float64 {
		k := [2]int{u, v}
		d, ok := memo[k]
		if !ok {
			d = ix.Query(u, v)
			memo[k] = d
		}
		return d
	}
	for i, got := range op.got {
		var u, v int
		if op.kind == opBatch {
			u, v = op.us[i], op.vs[i]
		} else {
			u, v = op.us[i/len(op.vs)], op.vs[i%len(op.vs)]
		}
		if got == -1 {
			got = math.Inf(1)
		}
		if !same(got, want(u, v)) {
			wrong++
		}
	}
	return wrong
}

// clusterPass runs the closed loop for dur and returns every operation
// with its latency.
func clusterPass(c *http.Client, tr *Tracer, d *clusterDeploy, clients []*clusterClient, dur time.Duration) [][]closedOp {
	return closedLoop(len(clients), dur, func(ci, k int) (int, error) {
		cc := clients[ci]
		op := cc.nextOp()
		err := op.send(c, tr, d.rts.URL)
		cc.ops = append(cc.ops, op)
		return op.kind, err
	})
}

func runCluster(cfg config) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: newLayer()}
	c := newClient(cfg.workers)
	var tracing tracing
	setups, d, err := setupCluster(cfg, c, &tracing)
	if err != nil {
		return nil, err
	}
	defer d.close()
	setups.record(res)
	n := d.fx.NumVertices()
	res.fixtures = []fixture{{Name: "CAL x1 compressed, 2 shards", Vertices: n, Edges: d.g.NumEdges(), Labels: d.fx.TotalLabels(), Bytes: d.fx.TotalMemory()}}

	clients := newClusterClients(cfg.seed, n, cfg.workers)
	c0 := cpuTime()
	runs := clusterPass(c, nil, d, clients, cfg.seconds)
	cpu := cpuTime() - c0
	all, byKind := latencies(runs)
	sum := summarize(all)
	res.attempted, res.failed = countOps(runs)
	res.e2e["p50_ms"] = sum.P50 / 1e3
	res.e2e["cpu_ms_per_op"] = millis(cpu) / float64(max(1, res.attempted-res.failed))
	res.layer["e2e.p90_ms"] = sum.P90 / 1e3
	res.layer["e2e.p99_ms"] = sum.P99 / 1e3
	res.layer["e2e.ops_per_s"] = windowRate(runs, cfg.seconds.Seconds(), 0.5)
	batch, matrix := summarize(byKind[opBatch]), summarize(byKind[opMatrix])
	cfg.log("setup %.3f s CPU, %.3f s wall (medians of %d)", median(setups.cpu), median(setups.wall), smallSetupReps)
	cfg.log("all ops %s µs; %.1f ops/s at %.3f CPU ms each", sum, res.layer["e2e.ops_per_s"], res.e2e["cpu_ms_per_op"])
	cfg.log("/batch %s µs", batch)
	cfg.log("/matrix %s µs", matrix)
	routerStats := d.router.Stats()

	if cfg.trace {
		layer := res.layer
		layer["graph.gen_s"] = timeMedian(1, func() { chl.GenerateDataset("CAL", clusterScale, cfg.seed) })
		layer["order.road_s"] = timeMedian(setupReps, func() { chl.RankAuto(d.g, cfg.seed) })
		gllLayers(layer, d.build)
		layer["label.compress_s"] = d.compress
		layer["label.compressed_bytes"] = float64(d.fx.TotalMemory())
		tf := time.Now()
		packed, err := d.ix.Freeze()
		if err != nil {
			return nil, err
		}
		layer["label.freeze_s"] = time.Since(tf).Seconds()
		layer["label.packed_bytes"] = float64(packed.TotalMemory())
		layer["router.batch_p50_ms"] = batch.P50 / 1e3
		layer["router.batch_p99_ms"] = batch.P99 / 1e3
		layer["router.matrix_p50_ms"] = matrix.P50 / 1e3
		layer["router.matrix_p99_ms"] = matrix.P99 / 1e3
		layer["loadgen.achieved_rps"] = float64(len(all)) / cfg.seconds.Seconds()
		if cs := routerStats.Cache; cs != nil && cs.Hits+cs.Misses > 0 {
			layer["router.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		cross, pairs := 0, 0
		for _, cc := range clients {
			for _, op := range cc.ops {
				if op.kind != opBatch {
					continue
				}
				pairs += len(op.us)
				for i := range op.us {
					if d.owner(op.us[i]) != d.owner(op.vs[i]) {
						cross++
					}
				}
			}
		}
		layer["router.cross_share"] = float64(cross) / float64(max(pairs, 1))
		if err := clusterProbes(layer, cfg, d); err != nil {
			return nil, err
		}

		tr := newTracer()
		tracing.cur.Store(tr)
		tracedClients := newClusterClients(cfg.seed+1, n, cfg.workers)
		traced := clusterPass(c, tr, d, tracedClients, cfg.seconds)
		tracing.cur.Store(nil)
		clients = append(clients, tracedClients...)
		tall, _ := latencies(traced)
		res.spans = tr.snapshot()
		self := selfTimes(res.spans)
		layer["trace.client_self_us"] = median(self["client"])
		layer["trace.handler_self_us"] = median(self["router.handler"])
		layer["trace.shard_handler_us"] = median(self["shard.handler"])
		layer["router.shard_rpc_self_us"] = median(self["router.shard_rpc"])
		layer["trace.attributed_share"] = tr.attributedShare()
		layer["router.shard_rpcs_per_req"] = float64(tr.rpcs.Load()) / float64(len(tall))
		layer["router.shard_bytes_per_req"] = float64(tr.rpcBytes.Load()) / float64(len(tall))
		layer["trace.overhead_pct"] = 100 * (summarize(tall).P50 - sum.P50) / sum.P50
		a, f := countOps(traced)
		res.attempted += a
		res.failed += f
	}

	// The gate: every /batch entry and /matrix cell equals Index.Query.
	memo := map[[2]int]float64{}
	checked := 0
	for _, cc := range clients {
		for i := range cc.ops {
			res.wrong += cc.ops[i].check(d.ix, memo)
			checked += len(cc.ops[i].got)
		}
	}
	cfg.log("gate: %d answers checked (%d distinct pairs), %d wrong", checked, len(memo), res.wrong)
	return res, nil
}

// latencies flattens a closed loop's latencies, overall and per kind,
// counting a failed operation as infinitely slow.
func latencies(runs [][]closedOp) ([]float64, map[int][]float64) {
	var all []float64
	byKind := map[int][]float64{}
	for _, ops := range runs {
		for _, op := range ops {
			all = append(all, op.latency())
			byKind[op.Kind] = append(byKind[op.Kind], op.latency())
		}
	}
	return all, byKind
}

// clusterProbes times the compressed store and the router from
// outside, with direct calls.
func clusterProbes(layer map[string]float64, cfg config, d *clusterDeploy) error {
	n := d.fx.NumVertices()
	probe := newClusterClients(cfg.seed+2, n, 1)[0]
	s := d.fx.NewScratch()
	us, vs := make([]int, probeN), make([]int, probeN)
	for i := range us {
		us[i], vs[i] = probe.zipf.next(), probe.zipf.next()
	}
	t0 := time.Now()
	for i := range us {
		d.fx.QueryWith(s, us[i], vs[i])
	}
	layer["label.join_compressed_ns"] = float64(time.Since(t0).Nanoseconds()) / probeN

	eng := chl.NewBatchEngineFlat(d.fx)
	eng.SetCache(chl.NewCache(cacheSize))
	t0 = time.Now()
	for i := range us {
		eng.Query(us[i], vs[i])
	}
	layer["engine.query_ns"] = float64(time.Since(t0).Nanoseconds()) / probeN
	if cs := eng.Cache().Stats(); cs.Hits+cs.Misses > 0 {
		layer["engine.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}

	const rows = 2000
	targets := vs[:matrixSide]
	t0 = time.Now()
	for i := 0; i < rows; i++ {
		if err := d.fx.MatrixRows(us[i:i+1], targets, func(int, []float64) error { return nil }); err != nil {
			return err
		}
	}
	layer["label.matrix_row_us"] = micros(time.Since(t0)) / rows

	// Router.Query on uniform pairs, split by whether the pair spans
	// shards; uniform pairs almost never repeat, so the cache stays out.
	var same, cross []float64
	for i := 0; i < 4000; i++ {
		u, v := uniformPair(cfg.seed^0x20, i, n)
		t := time.Now()
		if _, err := d.router.Query(u, v); err != nil {
			return fmt.Errorf("router probe: %w", err)
		}
		if d.owner(u) == d.owner(v) {
			same = append(same, micros(time.Since(t)))
		} else {
			cross = append(cross, micros(time.Since(t)))
		}
	}
	layer["router.same_shard_us"] = median(same)
	layer["router.cross_shard_us"] = median(cross)

	var batchMs, matrixMs []float64
	pairs := make([]chl.QueryPair, batchPairs)
	for i := 0; i < 20; i++ {
		for j := range pairs {
			pairs[j] = chl.QueryPair{U: probe.zipf.next(), V: probe.zipf.next()}
		}
		t := time.Now()
		if _, err := d.router.Batch(pairs); err != nil {
			return fmt.Errorf("router batch probe: %w", err)
		}
		batchMs = append(batchMs, millis(time.Since(t)))
		src, dst := us[i*matrixSide:(i+1)*matrixSide], vs[i*matrixSide:(i+1)*matrixSide]
		t = time.Now()
		if err := d.router.Matrix(src, dst, func(int, []float64) error { return nil }); err != nil {
			return fmt.Errorf("router matrix probe: %w", err)
		}
		matrixMs = append(matrixMs, millis(time.Since(t)))
	}
	layer["router.batch_ms"] = median(batchMs)
	layer["router.matrix_ms"] = median(matrixMs)
	return nil
}
