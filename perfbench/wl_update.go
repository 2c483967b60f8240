package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	chl "repro"
	"repro/internal/sssp"
)

// The update workload: uniform GET /dist reads beside edge-update
// batches POSTed every readsPerUpdate reads and folded in with /compact
// every few batches, against one Server with updates enabled on the
// packed CAL×1 index. A traced pass first runs the reads in an open
// loop beside a writer on a fixed schedule.

const (
	updateRate     = 1000.0 // nominal read rate of the open loop, req/s
	updateOps      = 12     // edge ops per /update batch
	updateInterval = time.Second
	// readsPerUpdate keeps the back-to-back phase's mix that of the
	// open loop: one batch per updateRate × updateInterval reads.
	readsPerUpdate = 1000
	compactEvery   = 4 // batches per /compact
	// oracleSources is how many distinct read sources there are; the
	// Dijkstra oracle runs once per source and patch state, so this
	// bounds the cost of the gate.
	oracleSources = 128
)

// writer posts the patch batches in order.
type writer struct {
	c       *http.Client
	url     string
	batches [][]chl.EdgeOp
	// sent counts batches whose POST has started, acked those answered
	// 200: a read sent after acked=k and answered before sent=j may have
	// observed any patch state in [k, j].
	sent, acked atomic.Int64
	// patched is set while an update is outstanding (not yet compacted).
	patched atomic.Bool

	mu                  sync.Mutex // serializes posts: batch k+1 builds on batch k
	updateMs, compactMs []float64
	failed              int

	stop, done chan struct{}
}

// start posts the next batch every updateInterval until halt.
func (w *writer) start() {
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(updateInterval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.next()
			}
		}
	}()
}

// halt stops the schedule and waits for a post in progress.
func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

// next posts the next batch, and /compact after every compactEvery-th.
func (w *writer) next() {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := int(w.sent.Load())
	if k >= len(w.batches) {
		return
	}
	w.sent.Add(1)
	t0 := time.Now()
	if err := postOK(w.c, w.url+"/update", chl.FormatPatchLog(w.batches[k])); err != nil {
		w.failed++
		return
	}
	w.updateMs = append(w.updateMs, millis(time.Since(t0)))
	w.acked.Add(1)
	w.patched.Store(true)
	if (k+1)%compactEvery != 0 {
		return
	}
	t0 = time.Now()
	if err := postOK(w.c, w.url+"/compact", nil); err != nil {
		w.failed++
		return
	}
	w.compactMs = append(w.compactMs, millis(time.Since(t0)))
	w.patched.Store(false)
}

func postOK(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, msg)
	}
	return nil
}

func runUpdate(cfg config) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: newLayer()}
	c := newClient(cfg.workers)
	var tracing tracing
	setups, s, err := setupSingle(cfg, c, &tracing, "CAL", 1, true, smallSetupReps)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setups.record(res)
	n := s.fx.NumVertices()
	res.fixtures = []fixture{{Name: "CAL x1 packed", Vertices: n, Edges: s.g.NumEdges(), Labels: s.fx.TotalLabels(), Bytes: s.fx.TotalMemory()}}
	cfg.log("setup %.3f s CPU, %.3f s wall (medians of %d)", median(setups.cpu), median(setups.wall), smallSetupReps)

	// The back-to-back phase runs whole update-and-compact cycles, so
	// its CPU cost per read covers whole cycles whatever the read rate:
	// about one per 1.25 s of its time on two vCPUs.
	satDur := cfg.seconds
	if cfg.trace {
		satDur -= openDur(cfg)
	}
	cycles := max(1, int(satDur*4/5/time.Second))
	// Enough batches for the cycles and, in a traced run, two open loops
	// on the schedule (the traced pass runs a second).
	count := cycles*compactEvery + 2
	if cfg.trace {
		count += int(2 * openDur(cfg) / updateInterval)
	}
	batches, states, err := patchBatches(s.g, cfg.seed, count, updateOps)
	if err != nil {
		return nil, err
	}
	w := &writer{c: c, url: s.ts.URL, batches: batches}
	sources := rand.New(rand.NewSource(cfg.seed)).Perm(n)[:oracleSources]
	readPair := func(i int) (int, int) {
		h := mix64(uint64(cfg.seed)<<32 ^ uint64(i) ^ 0x5bd1e995)
		return sources[(h>>32)%oracleSources], int(uint32(h) % uint32(n))
	}
	var got answers
	var reads, patchedReads atomic.Int64
	var inline atomic.Bool // the back-to-back phase: every readsPerUpdate-th read posts the next batch first
	do := func(i int) error {
		if inline.Load() && i%readsPerUpdate == 0 {
			w.next()
		}
		u, v := readPair(i)
		lo := int(w.acked.Load())
		reads.Add(1)
		if w.patched.Load() {
			patchedReads.Add(1)
		}
		d, err := getDist(c, tracing.cur.Load(), s.ts.URL, u, v)
		if err == nil {
			got.add(answer{i: i, d: d, lo: lo, hi: int(w.sent.Load())})
		}
		return err
	}

	if cfg.trace {
		w.start()
	} else {
		inline.Store(true)
	}
	m := measureDist(cfg, updateRate, cycles*compactEvery*readsPerUpdate, do, func() {
		w.halt()
		inline.Store(true)
	})
	inline.Store(false)
	m.record(res)
	upd, cmp := summarize(w.updateMs), summarize(w.compactMs)
	cfg.log("/update %s ms; /compact %s ms; %d of %d reads while patched", upd, cmp, patchedReads.Load(), reads.Load())

	if cfg.trace {
		layer := res.layer
		layer["graph.gen_s"] = timeMedian(1, func() { chl.GenerateDataset("CAL", 1, cfg.seed) })
		layer["order.road_s"] = timeMedian(setupReps, func() { chl.RankAuto(s.g, cfg.seed) })
		gllLayers(layer, s.build)
		layer["label.freeze_s"] = s.freezeS
		layer["label.packed_bytes"] = float64(s.fx.TotalMemory())
		layer["delta.update_p50_ms"] = upd.P50
		layer["delta.compact_p50_ms"] = cmp.P50
		layer["delta.patched_read_share"] = float64(patchedReads.Load()) / float64(reads.Load())
		if err := updateProbes(layer, cfg, c, s, batches[0]); err != nil {
			return nil, err
		}
		w.start()
		tracedPass(cfg, res, &tracing, updateRate, m.sat.next, do, m.p50)
		w.halt()
	}

	res.attempted += len(w.updateMs) + len(w.compactMs) + w.failed
	res.failed += w.failed

	// The gate: every read equals Dijkstra on the patched graph of a
	// patch state it may have observed.
	oracle := map[[2]int][]float64{}
	for _, a := range got.got {
		u, v := readPair(a.i)
		ok := false
		for st := a.lo; st <= min(a.hi, len(states)-1) && !ok; st++ {
			k := [2]int{st, u}
			row, seen := oracle[k]
			if !seen {
				row = sssp.Dijkstra(states[st], u)
				oracle[k] = row
			}
			ok = same(a.d, row[v])
		}
		if !ok {
			if res.wrong < 5 {
				cfg.log("GATE /dist(%d,%d) = %v matches no patch state in [%d,%d]", u, v, a.d, a.lo, a.hi)
			}
			res.wrong++
		}
	}
	cfg.log("gate: %d reads checked against %d Dijkstra rows, %d wrong", len(got.got), len(oracle), res.wrong)
	return res, nil
}

// updateProbes times the single-server layers on a fresh server over
// the frozen index, then the delta layer on another: Server.Query on
// the same pairs before and after one Update, the Update itself and a
// Compact.
func updateProbes(layer map[string]float64, cfg config, c *http.Client, s *singleServer, batch []chl.EdgeOp) error {
	probe := chl.NewServerFromFlat(s.fx, cacheSize)
	defer probe.Close()
	ts, err := listen(c, probe.Handler())
	if err != nil {
		return err
	}
	defer ts.Close()
	if err := servingProbes(layer, s.fx, probe, c, ts.URL, cfg.seed); err != nil {
		return err
	}

	ds := chl.NewServerFromFlat(s.fx, cacheSize)
	defer ds.Close()
	if err := ds.EnableUpdates(s.g, ""); err != nil {
		return err
	}
	const queries = 2000
	n := s.fx.NumVertices()
	sweep := func() float64 {
		t0 := time.Now()
		for i := 0; i < queries; i++ {
			u, v := uniformPair(cfg.seed^0x30, i, n)
			ds.Query(u, v)
		}
		return micros(time.Since(t0)) / queries
	}
	layer["delta.frozen_query_us"] = sweep()
	t0 := time.Now()
	if _, err := ds.Update(batch); err != nil {
		return err
	}
	layer["delta.apply_ms"] = millis(time.Since(t0))
	layer["delta.corrected_query_us"] = sweep()
	t0 = time.Now()
	if _, err := ds.Compact(""); err != nil {
		return err
	}
	layer["delta.compact_ms"] = millis(time.Since(t0))
	return nil
}
