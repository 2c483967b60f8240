package chl_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// goldenCase is one public request and the exact response it must draw:
// status, Content-Type and body. want is the body without the newline
// every JSON line ends with.
type goldenCase struct {
	method, path, body string
	status             int
	ctype              string
	want               string
}

const (
	ctJSON   = "application/json"
	ctNDJSON = "application/x-ndjson"
)

// TestPublicBodiesGolden pins the public wire of both tiers byte for
// byte: every public endpoint, for every outcome it can draw (200, 400,
// 405, 409, 413 and, from a shard server, 421). The query cases run
// against a plain Server and against a Router over two shards and must
// draw the same bytes from both; they cover same-shard and cross-shard
// pairs, u == v (dist 0 is still written), unreachable pairs (-1 in
// /batch and /matrix) and an isolated /knn source ([] not null). The
// /update cases and the 421s are tier-specific. Router /update errors
// are left to TestUpdateEndpointGuards.
func TestPublicBodiesGolden(t *testing.T) {
	g := chl.GenerateRandom(24, 22, 9, 4)
	fx, _ := buildFlat(t, g)

	plain := chl.NewServerFromFlat(fx, 0)
	defer plain.Close()
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()
	tc := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 0})
	defer tc.close()
	routerTS := httptest.NewServer(tc.router.Handler())
	defer routerTS.Close()

	// Shard 0 owns 0, 1, 10, 17 and 20; shard 1 owns 2 and 8.
	queries := []goldenCase{
		{"GET", "/dist?u=0&v=10", "", 200, ctJSON, `{"dist":6,"hub":0,"reachable":true,"u":0,"v":10}`},
		{"GET", "/dist?u=0&v=8", "", 200, ctJSON, `{"dist":29,"hub":0,"reachable":true,"u":0,"v":8}`},
		{"GET", "/dist?u=0&v=0", "", 200, ctJSON, `{"dist":0,"hub":0,"reachable":true,"u":0,"v":0}`},
		{"GET", "/dist?u=1&v=3", "", 200, ctJSON, `{"reachable":false,"u":1,"v":3}`},
		{"GET", "/dist?u=x&v=1", "", 400, ctJSON, `{"error":"u and v must be integer vertex ids"}`},
		{"GET", "/dist?u=1&v=24", "", 400, ctJSON, `{"error":"vertex ids must be in [0,24)"}`},
		{"POST", "/dist?u=1&v=2", "", 405, ctJSON, `{"error":"use GET /dist?u=\u0026v="}`},
		{"POST", "/batch", `[[0,10],[1,3],[5,5],[0,8],[8,2]]`, 200, ctJSON, `{"dists":[6,-1,0,29,-1]}`},
		{"POST", "/batch", `[[1,3,4]]`, 400, ctJSON, `{"error":"pair 0 has 3 elements, want [u,v]"}`},
		{"POST", "/batch", `[[1,24]]`, 400, ctJSON, `{"error":"pair 0 = [1,24] out of range [0,24)"}`},
		{"POST", "/batch", `{"no":"pairs"}`, 400, ctJSON, `{"error":"body must be a JSON array of [u,v] pairs: json: cannot unmarshal object into Go value of type [][]int"}`},
		{"GET", "/batch", "", 405, ctJSON, `{"error":"POST a JSON array of [u,v] pairs"}`},
		{"GET", "/paths?u=0&v=10", "", 200, ctJSON, `{"dist":6,"path":[0,10],"reachable":true,"u":0,"v":10}`},
		{"GET", "/paths?u=17&v=20", "", 200, ctJSON, `{"dist":8,"path":[17,0,20],"reachable":true,"u":17,"v":20}`},
		{"GET", "/paths?u=0&v=8", "", 200, ctJSON, `{"dist":29,"path":[0,8],"reachable":true,"u":0,"v":8}`},
		{"GET", "/paths?u=1&v=3", "", 200, ctJSON, `{"reachable":false,"u":1,"v":3}`},
		{"GET", "/paths?u=1", "", 400, ctJSON, `{"error":"u and v must be integer vertex ids"}`},
		{"GET", "/paths?u=-1&v=3", "", 400, ctJSON, `{"error":"vertex ids must be in [0,24)"}`},
		{"POST", "/paths?u=1&v=3", "", 405, ctJSON, `{"error":"use GET /paths?u=\u0026v="}`},
		{"GET", "/knn?u=0&k=3", "", 200, ctJSON, `{"k":3,"neighbors":[{"v":17,"dist":1,"hub":0},{"v":10,"dist":6,"hub":0},{"v":20,"dist":7,"hub":0}],"u":0}`},
		{"GET", "/knn?u=1&k=2", "", 200, ctJSON, `{"k":2,"neighbors":[],"u":1}`},
		{"GET", "/knn?u=1&k=x", "", 400, ctJSON, `{"error":"u and k must be integers"}`},
		{"GET", "/knn?u=1&k=0", "", 400, ctJSON, `{"error":"k must be in [1,24]"}`},
		{"GET", "/knn?u=24&k=1", "", 400, ctJSON, `{"error":"vertex ids must be in [0,24)"}`},
		{"POST", "/knn?u=1&k=3", "", 405, ctJSON, `{"error":"use GET /knn?u=\u0026k="}`},
		{"POST", "/matrix", `{"sources":[10,1,8],"targets":[0,8,1]}`, 200, ctNDJSON,
			`{"rows":3,"targets":[0,8,1]}` + "\n" + `{"dists":[6,35,-1],"u":10}` + "\n" + `{"dists":[-1,-1,0],"u":1}` + "\n" + `{"dists":[29,0,-1],"u":8}`},
		{"POST", "/matrix", `not json`, 400, ctJSON, `{"error":"body must be a JSON object {\"sources\":[...],\"targets\":[...]}: invalid character 'o' in literal null (expecting 'u')"}`},
		{"POST", "/matrix", `{"sources":[],"targets":[1]}`, 400, ctJSON, `{"error":"sources and targets must both be non-empty"}`},
		{"POST", "/matrix", `{"sources":[1],"targets":[99]}`, 400, ctJSON, `{"error":"vertex ids must be in [0,24)"}`},
		{"GET", "/matrix", "", 405, ctJSON, `{"error":"POST a JSON {\"sources\":[...],\"targets\":[...]} body"}`},
		{"POST", "/stats", "", 405, ctJSON, `{"error":"use GET /stats"}`},
	}
	for _, base := range []string{plainTS.URL, routerTS.URL} {
		for _, c := range queries {
			checkGolden(t, base, c)
		}
	}

	// /update on a plain Server: 409 until EnableUpdates, then the
	// outcomes of a live patch log.
	checkGolden(t, plainTS.URL, goldenCase{"POST", "/update", "add 0 2 3", 409, ctJSON,
		`{"error":"chl: updates are not enabled on this server (EnableUpdates, or start with -graph)"}`})
	live := chl.NewServerFromFlat(fx, 0)
	defer live.Close()
	if err := live.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	liveTS := httptest.NewServer(live.Handler())
	defer liveTS.Close()
	for _, c := range []goldenCase{
		{"GET", "/update", "", 405, ctJSON, `{"error":"POST a text patch log (one \"add u v w\" / \"del u v\" / \"set u v w\" per line)"}`},
		{"POST", "/update", "not a patch", 400, ctJSON, `{"error":"delta: line 1: unknown op \"not\" (want add|del|set)"}`},
		{"POST", "/update", "# nothing\n", 400, ctJSON, `{"error":"empty update: the body held no ops"}`},
		{"POST", "/update", "add 0 99 2", 400, ctJSON, `{"error":"delta: op 0 (add 0 99 2): vertex out of range [0,24)"}`},
		{"POST", "/update", strings.Repeat("#", 8<<20+1), 413, ctJSON, `{"error":"reading patch log body: http: request body too large"}`},
		{"POST", "/update", "add 0 2 3", 200, ctJSON, `{"applied":1,"generation":2,"ident":8276595215906322,"patch":{"epoch":1,"ops":1,"patch_vertices":2,"removed_edges":0,"inserted_edges":1,"log_hash":74162951736407}}`},
	} {
		checkGolden(t, liveTS.URL, c)
	}

	// /update through a Router with a base graph: no snapshot identity.
	lc := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 0, tweak: func(cfg *chl.RouterConfig) {
		cfg.BaseGraph = g
	}})
	defer lc.close()
	liveRouterTS := httptest.NewServer(lc.router.Handler())
	defer liveRouterTS.Close()
	checkGolden(t, liveRouterTS.URL, goldenCase{"POST", "/update", "add 0 2 3", 200, ctJSON,
		`{"applied":1,"patch":{"epoch":1,"ops":1,"patch_vertices":2,"removed_edges":0,"inserted_edges":1,"log_hash":74162951736407}}`})

	// A shard server refuses what it cannot answer alone.
	const rich = `"shard 0 serves only its owned label rows; route rich query workloads through the cluster's router","shard":0}`
	for _, c := range []goldenCase{
		{"GET", "/dist?u=0&v=2", "", 421, ctJSON, `{"error":"vertex 2 is not owned by shard 0; route through the cluster's router","shard":0}`},
		{"POST", "/batch", `[[0,1],[2,0]]`, 421, ctJSON, `{"error":"vertex 2 is not owned by shard 0; route through the cluster's router","shard":0}`},
		{"GET", "/paths?u=0&v=1", "", 421, ctJSON, `{"error":` + rich},
		{"GET", "/knn?u=0&k=2", "", 421, ctJSON, `{"error":` + rich},
		{"POST", "/matrix", `{"sources":[0],"targets":[1]}`, 421, ctJSON, `{"error":` + rich},
		{"POST", "/update", "add 0 2 3", 421, ctJSON, `{"error":"shard 0 serves a frozen slice; route edge updates through the cluster's router","shard":0}`},
	} {
		checkGolden(t, tc.backends[0][0].URL, c)
	}
}

// checkGolden sends c to base and fails the test unless the response
// matches it exactly.
func checkGolden(t *testing.T, base string, c goldenCase) {
	t.Helper()
	req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", c.method, c.path, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != c.status || ct != c.ctype || string(got) != c.want+"\n" {
		t.Errorf("%s %s%s (%.40q):\n got %d %s %q\nwant %d %s %q", c.method, base, c.path, c.body,
			resp.StatusCode, ct, got, c.status, c.ctype, c.want+"\n")
	}
}

// TestRouterUpdateErrorsMatchServer: a Router refuses a bad /update
// with the same status and body as a plain Server — an oversized patch
// log is a 413 on both tiers, not a 400 on one of them.
func TestRouterUpdateErrorsMatchServer(t *testing.T) {
	g := chl.GenerateRandom(24, 22, 9, 4)
	fx, _ := buildFlat(t, g)
	s := chl.NewServerFromFlat(fx, 0)
	defer s.Close()
	if err := s.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	serverTS := httptest.NewServer(s.Handler())
	defer serverTS.Close()
	tc := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 0, tweak: func(cfg *chl.RouterConfig) {
		cfg.BaseGraph = g
	}})
	defer tc.close()
	routerTS := httptest.NewServer(tc.router.Handler())
	defer routerTS.Close()

	for _, c := range []goldenCase{
		{"GET", "/update", "", 405, ctJSON, `{"error":"POST a text patch log (one \"add u v w\" / \"del u v\" / \"set u v w\" per line)"}`},
		{"POST", "/update", "not a patch", 400, ctJSON, `{"error":"delta: line 1: unknown op \"not\" (want add|del|set)"}`},
		{"POST", "/update", "# nothing\n", 400, ctJSON, `{"error":"empty update: the body held no ops"}`},
		{"POST", "/update", "add 0 99 2", 400, ctJSON, `{"error":"delta: op 0 (add 0 99 2): vertex out of range [0,24)"}`},
		{"POST", "/update", strings.Repeat("#", 8<<20+1), 413, ctJSON, `{"error":"reading patch log body: http: request body too large"}`},
	} {
		checkGolden(t, serverTS.URL, c)
		checkGolden(t, routerTS.URL, c)
	}
}
