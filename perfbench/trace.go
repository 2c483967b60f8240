package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing records spans at boundaries the benchmark owns: the client
// call, wrappers around the handlers it mounts, and the RoundTripper it
// hands the router for shard calls. Spans stay in memory and are
// written when the run ends. All methods are no-ops on a nil *Tracer,
// which is what untraced runs pass around.

const (
	requestIDHeader  = "X-Request-ID"
	spanParentHeader = "X-Bench-Span"
)

// Span is one timed interval. Parent is 0 for a root span or a span
// that could not be attributed; Req is the request id of the client
// call the span belongs to, when known.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Tracer collects spans and the counts taken at the same boundaries.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span
	// open holds the router.handler spans in progress, by id, for
	// attributing shard calls: the router does not forward request ids,
	// so a shard call is attributed only when exactly one router
	// request is open.
	open                     map[uint64]string
	attributed, unattributed int

	rpcs, rpcBytes atomic.Int64
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now(), open: map[uint64]string{}} }

// active is a span that has started.
type active struct {
	t *Tracer
	s Span
}

func (t *Tracer) start(name string, parent uint64, req string) *active {
	if t == nil {
		return nil
	}
	return &active{t: t, s: Span{ID: t.ids.Add(1), Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.epoch))}}
}

func (a *active) finish() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// client starts the root span of one benchmark request and sets the
// request's id to the span's.
func (t *Tracer) client(req *http.Request) *active {
	sp := t.start("client", 0, "")
	if sp != nil {
		sp.s.Req = strconv.FormatUint(sp.s.ID, 10)
		sp.tag(req, sp.s.Req)
	}
	return sp
}

// tag marks an outgoing request as the child of span a.
func (a *active) tag(req *http.Request, reqID string) {
	if a == nil {
		return
	}
	req.Header.Set(requestIDHeader, reqID)
	req.Header.Set(spanParentHeader, strconv.FormatUint(a.s.ID, 10))
}

// wrap records a span named name around h, parented to the span the
// request was tagged with. Router handlers are registered as open
// while they run, for shard-call attribution.
func (t *Tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanParentHeader), 10, 64)
		req := r.Header.Get(requestIDHeader)
		sp := t.start(name, parent, req)
		if name == "router.handler" {
			t.mu.Lock()
			t.open[sp.s.ID] = req
			t.mu.Unlock()
			defer func() {
				t.mu.Lock()
				delete(t.open, sp.s.ID)
				t.mu.Unlock()
			}()
		}
		defer sp.finish()
		h.ServeHTTP(w, r)
	})
}

// transport returns a RoundTripper for the router's shard calls: each
// call is a router.shard_rpc span that ends when its response body is
// closed, and the shard handler's span is parented to it through a
// header.
func (t *Tracer) transport(base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		var parent uint64
		var req string
		t.mu.Lock()
		if len(t.open) == 1 {
			for id, rq := range t.open {
				parent, req = id, rq
			}
			t.attributed++
		} else {
			t.unattributed++
		}
		t.mu.Unlock()
		sp := t.start("router.shard_rpc", parent, req)
		out := r.Clone(r.Context())
		sp.tag(out, req)
		t.rpcs.Add(1)
		if r.ContentLength > 0 {
			t.rpcBytes.Add(r.ContentLength)
		}
		resp, err := base.RoundTrip(out)
		if err != nil {
			sp.finish()
			return nil, err
		}
		resp.Body = &countingBody{ReadCloser: resp.Body, t: t, sp: sp}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingBody counts response bytes and ends the rpc span on Close.
type countingBody struct {
	io.ReadCloser
	t    *Tracer
	sp   *active
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.rpcBytes.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.finish)
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// attributedShare is the share of shard calls attributed to a router
// request; 1 when there were none.
func (t *Tracer) attributedShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if all := t.attributed + t.unattributed; all > 0 {
		return float64(t.attributed) / float64(all)
	}
	return 1
}

// selfTimes returns, per span name, each span's self time in µs: its
// duration minus the part of it that its children cover. Children that
// overlap each other (parallel shard calls) are covered once.
func selfTimes(spans []Span) map[string][]float64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// covered is the length of [start,end) covered by the union of ivs.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv[0], start), min(iv[1], end)
		if lo < hi {
			c = append(c, [2]int64{lo, hi})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curLo, curHi int64
	for i, iv := range c {
		switch {
		case i == 0:
			curLo, curHi = iv[0], iv[1]
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if len(c) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeTrace writes the spans and the per-layer figures to path.
func writeTrace(path string, stamp map[string]any, spans []Span, layer map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"stamp": stamp, "per_layer": layer, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
