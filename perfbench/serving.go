package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	chl "repro"
)

// cacheSize is the answer cache that ships: the default of
// `chlquery -serve` and `chlrouter`.
const cacheSize = 1 << 16

// newClient returns an HTTP client that opens at most workers
// connections per listener.
func newClient(workers int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
}

// tracing holds the tracer of the pass in progress; nil while untraced.
// Handlers are mounted once, at set-up, and consult it per request.
type tracing struct{ cur atomic.Pointer[Tracer] }

func (t *tracing) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr := t.cur.Load(); tr != nil {
			tr.wrap(name, h).ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// listen mounts h on a loopback listener and waits until it answers.
func listen(c *http.Client, h http.Handler) (*httptest.Server, error) {
	ts := httptest.NewServer(h)
	resp, err := c.Get(ts.URL + "/healthz")
	if err != nil {
		ts.Close()
		return nil, err
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		ts.Close()
		return nil, fmt.Errorf("listener not ready: /healthz status %d", resp.StatusCode)
	}
	return ts, nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// getDist issues GET /dist as a traced client call when tr is set and
// returns the answer, +Inf for an unreachable pair.
func getDist(c *http.Client, tr *Tracer, base string, u, v int) (float64, error) {
	url := make([]byte, 0, len(base)+32)
	url = append(url, base...)
	url = append(url, "/dist?u="...)
	url = strconv.AppendInt(url, int64(u), 10)
	url = append(url, "&v="...)
	url = strconv.AppendInt(url, int64(v), 10)
	req, err := http.NewRequest(http.MethodGet, string(url), nil)
	if err != nil {
		return 0, err
	}
	defer tr.client(req).finish()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/dist status %d: %s", resp.StatusCode, body)
	}
	var a struct {
		Reachable bool    `json:"reachable"`
		Dist      float64 `json:"dist"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, err
	}
	if !a.Reachable {
		return math.Inf(1), nil
	}
	return a.Dist, nil
}

// same reports whether two distances are bit-identical answers.
func same(a, b float64) bool {
	return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1))
}

// probeN is how many calls each in-process layer probe makes.
const probeN = 200_000

// servingProbes times the single-server layers from outside, each on
// uniform pairs of its own: the packed join, the engine with the
// shipped cache, the handler in-process and the same request over
// loopback.
func servingProbes(layer map[string]float64, fx *chl.FlatIndex, srv *chl.Server, c *http.Client, url string, seed int64) error {
	n := fx.NumVertices()
	s := fx.NewScratch()
	t0 := time.Now()
	for i := 0; i < probeN; i++ {
		u, v := uniformPair(seed^0x10, i, n)
		fx.QueryWith(s, u, v)
	}
	layer["label.join_packed_ns"] = float64(time.Since(t0).Nanoseconds()) / probeN

	eng := chl.NewBatchEngineFlat(fx)
	eng.SetCache(chl.NewCache(cacheSize))
	t0 = time.Now()
	for i := 0; i < probeN; i++ {
		u, v := uniformPair(seed^0x11, i, n)
		eng.Query(u, v)
	}
	layer["engine.query_ns"] = float64(time.Since(t0).Nanoseconds()) / probeN
	if cs := eng.Cache().Stats(); cs.Hits+cs.Misses > 0 {
		layer["engine.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}

	// The handler in-process, into a recorder. Requests and recorders
	// are made before the clock and the allocation count start.
	const handlerN = 2000
	h := srv.Handler()
	reqs := make([]*http.Request, handlerN)
	recs := make([]*httptest.ResponseRecorder, handlerN)
	for i := range reqs {
		u, v := uniformPair(seed^0x12, i, n)
		reqs[i] = httptest.NewRequest(http.MethodGet, "/dist?u="+strconv.Itoa(u)+"&v="+strconv.Itoa(v), nil)
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	handler := micros(time.Since(t0)) / handlerN
	runtime.ReadMemStats(&after)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: /dist status %d", rec.Code)
		}
	}
	layer["serve.handler_us"] = handler
	layer["serve.handler_allocs"] = float64(after.Mallocs-before.Mallocs) / handlerN

	// The same request over loopback, one at a time.
	lat := make([]float64, 0, handlerN)
	for i := 0; i < handlerN; i++ {
		u, v := uniformPair(seed^0x13, i, n)
		t := time.Now()
		if _, err := getDist(c, nil, url, u, v); err != nil {
			return fmt.Errorf("loopback probe: %w", err)
		}
		lat = append(lat, micros(time.Since(t)))
	}
	layer["serve.loopback_us"] = median(lat)
	layer["serve.transport_us"] = median(lat) - handler
	return nil
}
