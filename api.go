package chl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The public HTTP API — /dist, /batch, /paths, /knn, /matrix, /update
// and /stats — is this one set of handlers, mounted by both Server.Handler
// and Router.Handler over a backend. Every handler runs the same steps:
// method check, whole-space check, parse, range check against the view's
// vertex count, call the view, encode a typed response. Every failure is
// a typed error that writeError turns into a status and a JSON body, so
// both tiers put the same bytes on the wire for the same request.

// backend is a tier that serves the public API: a Server or a Router.
// view returns what one request sees of it; the handler calls done on
// the view when the request is over.
type backend interface {
	view() view
}

// view is one request's view of a backend. A Server's view is the
// Snapshot it acquired for the request, so the range check, shard
// ownership (421) and the shard identity stamp all read the generation
// that answers: a reload that changes the vertex count between the check
// and the query cannot slip an out-of-range id into a kernel. A Router's
// view is the Router itself, whose vertex space the manifest fixes.
//
// Answers come back raw (Infinity for unreachable); the handlers do the
// wire encoding.
type view interface {
	NumVertices() int
	// sliceOnly refuses, with a *misdirectedError, a request that needs
	// the whole vertex space when the view serves one shard's slice; what
	// completes "shard N serves ...", and "" means the request does not.
	sliceOnly(what string) error
	dist(u, v int) (distResponse, error)
	batch(pairs []QueryPair) (batchResponse, error)
	shortestPath(u, v int) (dist float64, path []int, reachable bool, err error)
	knn(u, k int) ([]Neighbor, error)
	matrix(sources, targets []int, emit func(u int, dists []float64) error) error
	update(ops []EdgeOp) (updateResponse, error)
	stats() any
	done()
}

// maxBatchBytes bounds a /batch or /matrix request body (and the shard
// protocol's bodies); past this the decoder never runs, so a hostile
// client cannot make the server buffer gigabytes.
const maxBatchBytes = 64 << 20

// maxPatchBytes bounds a /update request body — patch logs are text,
// and a batch bigger than this is an operator error, not a workload.
const maxPatchBytes = 8 << 20

// mountAPI registers the public endpoints of b on mux. wrap decorates
// each handler by endpoint: per-endpoint metrics on both tiers, plus
// traffic shaping on the Router's query routes. An endpoint with a
// whole-space reason needs the whole vertex space, so a shard server
// refuses it before parsing (see view.sliceOnly).
func mountAPI(mux *http.ServeMux, b backend, wrap func(endpoint string, h http.HandlerFunc) http.HandlerFunc) {
	const (
		rich    = "only its owned label rows; route rich query workloads through the cluster's router"
		updates = "a frozen slice; route edge updates through the cluster's router"
	)
	for _, rt := range []struct {
		path, method, usage, whole string
		serve                      func(w http.ResponseWriter, r *http.Request, v view) error
	}{
		{"/dist", http.MethodGet, "use GET /dist?u=&v=", "", serveDist},
		{"/batch", http.MethodPost, "POST a JSON array of [u,v] pairs", "", serveBatch},
		{"/paths", http.MethodGet, "use GET /paths?u=&v=", rich, servePaths},
		{"/knn", http.MethodGet, "use GET /knn?u=&k=", rich, serveKNN},
		{"/matrix", http.MethodPost, "POST a JSON {\"sources\":[...],\"targets\":[...]} body", rich, serveMatrix},
		{"/update", http.MethodPost, "POST a text patch log (one \"add u v w\" / \"del u v\" / \"set u v w\" per line)", updates, serveUpdate},
		{"/stats", http.MethodGet, "use GET /stats", "", serveStats},
	} {
		mux.HandleFunc(rt.path, wrap(rt.path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != rt.method {
				httpError(w, http.StatusMethodNotAllowed, rt.usage)
				return
			}
			v := b.view()
			defer v.done()
			err := v.sliceOnly(rt.whole)
			if err == nil {
				err = rt.serve(w, r, v)
			}
			if err != nil {
				writeError(w, err)
			}
		}))
	}
}

// Response bodies. encoding/json writes fields in declaration order, and
// the public bodies' keys are in sorted order, so fields are declared
// sorted. Pointer fields are written only when set, so dist and hub
// appear on reachable answers only, 0 included; the embedded shardStamp
// is left off when zero, as on plain servers.
type (
	distResponse struct {
		shardStamp
		Dist      *float64 `json:"dist,omitempty"`
		Hub       *int     `json:"hub,omitempty"`
		Reachable bool     `json:"reachable"`
		U         int      `json:"u"`
		V         int      `json:"v"`
	}
	batchResponse struct {
		Dists []float64 `json:"dists"` // -1 for unreachable on the wire
		shardStamp
	}
	pathResponse struct {
		Dist      *float64 `json:"dist,omitempty"`
		Path      []int    `json:"path,omitempty"`
		Reachable bool     `json:"reachable"`
		U         int      `json:"u"`
		V         int      `json:"v"`
	}
	knnResponse struct {
		K         int        `json:"k"`
		Neighbors []Neighbor `json:"neighbors"`
		U         int        `json:"u"`
	}
	// updateResponse describes the generation an /update installed; a
	// Router has no snapshot of its own, so it reports only the patch.
	updateResponse struct {
		Applied    int         `json:"applied"`
		Generation uint64      `json:"generation,omitempty"`
		Ident      uint64      `json:"ident,omitempty"`
		Patch      *PatchStats `json:"patch,omitempty"`
	}
)

// shardStamp is the snapshot identity a shard server stamps on every
// router-facing answer (/dist, /batch, /shardquery, /shardscan): the
// generation and process epoch that make reloads and restarts visible,
// the content identity (Snapshot.Ident) that says whether the bytes
// changed, and the slice's directedness, which the router checks against
// its manifest. Plain servers leave it zero, and it is then left off
// the wire.
type shardStamp struct {
	Directed   bool   `json:"directed,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	Ident      uint64 `json:"ident,omitempty"`
}

// newDistResponse builds a /dist answer; dist and hub are written only
// for a reachable pair.
func newDistResponse(u, v int, dist float64, hub int, ok bool) distResponse {
	resp := distResponse{Reachable: ok, U: u, V: v}
	if ok {
		resp.Dist, resp.Hub = &dist, &hub
	}
	return resp
}

func serveDist(w http.ResponseWriter, r *http.Request, v view) error {
	a, b, err := queryInts(r, "u", "v", "u and v must be integer vertex ids")
	if err != nil {
		return err
	}
	if err := inRange(v.NumVertices(), a, b); err != nil {
		return err
	}
	resp, err := v.dist(a, b)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, &resp)
	return nil
}

func serveBatch(w http.ResponseWriter, r *http.Request, v view) error {
	pairs, err := decodeBatchBody(w, r, v.NumVertices())
	if err != nil {
		return err
	}
	resp, err := v.batch(pairs)
	if err != nil {
		return err
	}
	for i, d := range resp.Dists {
		if d == Infinity {
			resp.Dists[i] = -1 // JSON has no +Inf
		}
	}
	writeJSON(w, http.StatusOK, &resp)
	return nil
}

func servePaths(w http.ResponseWriter, r *http.Request, v view) error {
	a, b, err := queryInts(r, "u", "v", "u and v must be integer vertex ids")
	if err != nil {
		return err
	}
	if err := inRange(v.NumVertices(), a, b); err != nil {
		return err
	}
	d, path, ok, err := v.shortestPath(a, b)
	if err != nil {
		return err
	}
	resp := pathResponse{Reachable: ok, U: a, V: b}
	if ok {
		resp.Dist, resp.Path = &d, path
	}
	writeJSON(w, http.StatusOK, &resp)
	return nil
}

func serveKNN(w http.ResponseWriter, r *http.Request, v view) error {
	u, k, err := queryInts(r, "u", "k", "u and k must be integers")
	if err != nil {
		return err
	}
	n := v.NumVertices()
	if err := inRange(n, u); err != nil {
		return err
	}
	if k < 1 || k > n {
		return badRequestf("k must be in [1,%d]", n)
	}
	neighbors, err := v.knn(u, k)
	if err != nil {
		return err
	}
	if neighbors == nil {
		neighbors = []Neighbor{} // an isolated source answers [], not null
	}
	writeJSON(w, http.StatusOK, &knnResponse{K: k, Neighbors: neighbors, U: u})
	return nil
}

// serveMatrix streams the sources × targets distance matrix as NDJSON
// (see streamMatrix).
func serveMatrix(w http.ResponseWriter, r *http.Request, v view) error {
	req, err := decodeMatrixBody(w, r, v.NumVertices())
	if err != nil {
		return err
	}
	return streamMatrix(w, req, v.matrix)
}

// serveUpdate applies a text patch log (one "add u v w" / "del u v" /
// "set u v w" op per line, '#' comments) and describes the result.
func serveUpdate(w http.ResponseWriter, r *http.Request, v view) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPatchBytes))
	if err != nil {
		return badRequest(fmt.Errorf("reading patch log body: %w", err))
	}
	ops, err := ParsePatchLog(body)
	if err != nil {
		return badRequest(err)
	}
	if len(ops) == 0 {
		return badRequestf("empty update: the body held no ops")
	}
	resp, err := v.update(ops)
	if err != nil {
		return badRequest(err)
	}
	writeJSON(w, http.StatusOK, &resp)
	return nil
}

func serveStats(w http.ResponseWriter, _ *http.Request, v view) error {
	writeJSON(w, http.StatusOK, v.stats())
	return nil
}

// queryInts parses the integer query parameters a and b; usage is the
// 400 message when either is missing or malformed.
func queryInts(r *http.Request, a, b, usage string) (int, int, error) {
	q := r.URL.Query()
	x, err1 := strconv.Atoi(q.Get(a))
	y, err2 := strconv.Atoi(q.Get(b))
	if err1 != nil || err2 != nil {
		return 0, 0, badRequest(errors.New(usage))
	}
	return x, y, nil
}

// inRange returns a *VertexRangeError for the first id outside [0,n).
func inRange(n int, ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= n {
			return &VertexRangeError{ID: id, N: n}
		}
	}
	return nil
}

// decodeBody decodes a JSON request body of at most maxBatchBytes into
// v; shape describes the expected body in the 400 (or 413).
func decodeBody(w http.ResponseWriter, r *http.Request, v any, shape string) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes)).Decode(v); err != nil {
		return badRequest(fmt.Errorf("body must be %s: %w", shape, err))
	}
	return nil
}

// decodeBatchBody parses a /batch request body — a JSON array of [u,v]
// pairs — bounds-checking every id against n.
func decodeBatchBody(w http.ResponseWriter, r *http.Request, n int) ([]QueryPair, error) {
	// Decode into slices, not [2]int arrays: encoding/json silently
	// discards excess elements when filling a fixed-size array, and a
	// malformed pair must be a 400, not a quietly wrong answer.
	var raw [][]int
	if err := decodeBody(w, r, &raw, "a JSON array of [u,v] pairs"); err != nil {
		return nil, err
	}
	pairs := make([]QueryPair, len(raw))
	for i, p := range raw {
		if len(p) != 2 {
			return nil, badRequestf("pair %d has %d elements, want [u,v]", i, len(p))
		}
		if p[0] < 0 || p[1] < 0 || p[0] >= n || p[1] >= n {
			return nil, badRequestf("pair %d = [%d,%d] out of range [0,%d)", i, p[0], p[1], n)
		}
		pairs[i] = QueryPair{U: p[0], V: p[1]}
	}
	return pairs, nil
}

// matrixRequest is the /matrix body: distances from every source to
// every target, streamed row by row.
type matrixRequest struct {
	Sources []int `json:"sources"`
	Targets []int `json:"targets"`
}

// decodeMatrixBody parses and bounds-checks a /matrix request body for
// an n-vertex index.
func decodeMatrixBody(w http.ResponseWriter, r *http.Request, n int) (matrixRequest, error) {
	var req matrixRequest
	if err := decodeBody(w, r, &req, `a JSON object {"sources":[...],"targets":[...]}`); err != nil {
		return req, err
	}
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		return req, badRequestf("sources and targets must both be non-empty")
	}
	if err := inRange(n, req.Sources...); err != nil {
		return req, err
	}
	return req, inRange(n, req.Targets...)
}

// The /matrix NDJSON lines. Field order is wire order.
type (
	matrixHeader struct {
		Rows    int   `json:"rows"`
		Targets []int `json:"targets"`
	}
	matrixRow struct {
		Dists []float64 `json:"dists"`
		U     int       `json:"u"`
	}
)

// streamMatrix writes one /matrix response from rows, a MatrixRows-shaped
// producer: one header line {"rows":N,"targets":[...]}, then one line
// {"dists":[...],"u":u} per source (-1 marks unreachable pairs), each
// flushed as it is written, so neither end ever holds more than a row.
// The header goes out with the first row, so a producer that fails
// before emitting anything gets its error returned for the caller to
// answer with a status. A failure after rows have flushed can no longer
// change the status; it ends the stream with a terminal {"error": ...}
// line.
func streamMatrix(w http.ResponseWriter, req matrixRequest, rows func(sources, targets []int, emit func(u int, dists []float64) error) error) error {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	line := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	started := false
	wire := &matrixRow{Dists: make([]float64, len(req.Targets))}
	err := rows(req.Sources, req.Targets, func(u int, dists []float64) error {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := line(matrixHeader{Rows: len(req.Sources), Targets: req.Targets}); err != nil {
				return err
			}
		}
		for i, d := range dists {
			if d == Infinity {
				wire.Dists[i] = -1 // JSON has no +Inf
			} else {
				wire.Dists[i] = d
			}
		}
		wire.U = u
		return line(wire)
	})
	if err != nil && started {
		enc.Encode(errorBody{Error: err.Error()})
		return nil
	}
	return err
}

// Typed errors the mapper turns into statuses (see writeError).
type (
	// badRequestError marks a request the client got wrong: 400, unless
	// an error it wraps maps more precisely.
	badRequestError struct{ err error }

	// misdirectedError refuses what a shard server cannot answer alone —
	// a vertex it does not own, or a workload that needs the whole
	// vertex space: 421, naming the shard. The router never sends these;
	// a 421 means a client bypassed it or the manifests disagree.
	misdirectedError struct {
		shard int
		msg   string
	}

	// updatesDisabledError refuses an update or compaction on a tier
	// started without the base graph: 409.
	updatesDisabledError string
)

func (e badRequestError) Error() string      { return e.err.Error() }
func (e badRequestError) Unwrap() error      { return e.err }
func (e *misdirectedError) Error() string    { return e.msg }
func (e updatesDisabledError) Error() string { return string(e) }

func badRequest(err error) error { return badRequestError{err} }

func badRequestf(format string, args ...any) error {
	return badRequestError{fmt.Errorf(format, args...)}
}

// Error bodies. Every error is {"error": "..."}; a 421 adds the shard and
// a 502 the failed shards with each one's replicas' failure.
type (
	errorBody struct {
		Error string `json:"error"`
	}
	misdirectedBody struct {
		Error string `json:"error"`
		Shard int    `json:"shard"`
	}
	clusterErrorBody struct {
		Error        string        `json:"error"`
		FailedShards []failedShard `json:"failed_shards"`
	}
	failedShard struct {
		Addr    string `json:"addr"`
		Error   string `json:"error"`
		Replica int    `json:"replica"`
		Shard   int    `json:"shard"`
	}
)

// writeError is the one error mapper of the HTTP tier. The first match
// wins:
//
//	*VertexRangeError    400 "vertex ids must be in [0,n)"
//	*misdirectedError    421 with the shard
//	updatesDisabledError 409
//	*http.MaxBytesError  413
//	*ClusterError        502 with the failed shards
//	badRequestError      400
//	anything else        500
func writeError(w http.ResponseWriter, err error) {
	var (
		vr       *VertexRangeError
		mis      *misdirectedError
		disabled updatesDisabledError
		tooLarge *http.MaxBytesError
		ce       *ClusterError
		bad      badRequestError
	)
	switch {
	case errors.As(err, &vr):
		// One body for every tier's range check: clients must see one
		// error schema no matter which tier rejected them.
		httpError(w, http.StatusBadRequest, fmt.Sprintf("vertex ids must be in [0,%d)", vr.N))
	case errors.As(err, &mis):
		writeJSON(w, http.StatusMisdirectedRequest, misdirectedBody{Error: mis.msg, Shard: mis.shard})
	case errors.As(err, &disabled):
		httpError(w, http.StatusConflict, err.Error())
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err.Error())
	case errors.As(err, &ce):
		failed := make([]failedShard, len(ce.Failed))
		for i, f := range ce.Failed {
			failed[i] = failedShard{Addr: f.Addr, Error: f.Err.Error(), Replica: f.Replica, Shard: f.Shard}
		}
		writeJSON(w, http.StatusBadGateway, clusterErrorBody{Error: ce.Error(), FailedShards: failed})
	case errors.As(err, &bad):
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
