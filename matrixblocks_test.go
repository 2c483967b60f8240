package chl_test

// Tests for the router's blocked /matrix fan-out: a matrix larger than
// one block (chl.MatrixBlockCells) crosses to each target-owning shard
// once per block of sources, answers every cell bit for bit as the
// unsharded index does, and puts the same bytes on the wire as the
// single-process Server. The shard's side of the block protocol must
// refuse malformed blocks with a JSON 400.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	chl "repro"
)

// postMatrix POSTs one /matrix request and returns the status and the
// whole body.
func postMatrix(t *testing.T, base string, sources, targets []int) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"sources": sources, "targets": targets})
	resp, err := http.Post(base+"/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// countShardScans swaps every replica's handler for one that counts its
// shard's /shardscan hits.
func countShardScans(c *replicatedCluster) []*atomic.Int32 {
	counts := make([]*atomic.Int32, len(c.flaky))
	for sid, group := range c.flaky {
		n := new(atomic.Int32)
		counts[sid] = n
		for _, f := range group {
			inner := *f.inner.Load()
			var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if strings.HasSuffix(req.URL.Path, "/shardscan") {
					n.Add(1)
				}
				inner.ServeHTTP(w, req)
			})
			f.inner.Store(&h)
		}
	}
	return counts
}

// TestRouterMatrixBlocks runs a router /matrix of more cells than one
// block holds, duplicate sources included, on {packed, compressed} ×
// {undirected, directed}. Every cell must equal FlatIndex.MatrixRows bit
// for bit, the body must be byte-identical to the single-process
// Server's, and each shard must see exactly one /shardscan per block.
func TestRouterMatrixBlocks(t *testing.T) {
	fixtures := map[string]*chl.FlatIndex{}
	_, fixtures["undirected"] = buildFrozen(t, chl.GenerateRandom(240, 400, 9, 3))
	_, fixtures["directed"] = buildDirectedFrozen(t, chl.GenerateRandomDirected(220, 1100, 9, 8))
	for dirName, base := range fixtures {
		for _, format := range []string{"packed", "compressed"} {
			fx := base
			if format == "compressed" {
				fx = compress(t, fx)
			}
			t.Run(dirName+"/"+format, func(t *testing.T) {
				n := fx.NumVertices()
				var sources, targets []int
				for i := 0; i < 256; i++ {
					targets = append(targets, (i*7+1)%n)
				}
				blockRows := chl.MatrixBlockCells / len(targets)
				for i := 0; i < 2*blockRows+blockRows/3; i++ {
					sources = append(sources, (i*13)%n) // wraps: duplicates across blocks
				}
				sources[1] = sources[0] // and back to back within one
				blocks := (len(sources) + blockRows - 1) / blockRows
				if blocks < 3 {
					t.Fatalf("fixture spans %d blocks, want at least 3", blocks)
				}

				c := startReplicatedCluster(t, fx, 2, 1, 1<<12, nil)
				defer c.close()
				scans := countShardScans(c)
				rts := httptest.NewServer(c.router.Handler())
				defer rts.Close()
				flat := chl.NewServerFromFlat(fx, 0)
				defer flat.Close()
				fts := httptest.NewServer(flat.Handler())
				defer fts.Close()

				status, got := postMatrix(t, rts.URL, sources, targets)
				if status != http.StatusOK {
					t.Fatalf("router /matrix: status %d: %s", status, got)
				}
				fstatus, want := postMatrix(t, fts.URL, sources, targets)
				if fstatus != http.StatusOK {
					t.Fatalf("server /matrix: status %d: %s", fstatus, want)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("router /matrix body (%d bytes) differs from the server's (%d bytes)", len(got), len(want))
				}
				for sid, hits := range scans {
					if h := int(hits.Load()); h != blocks {
						t.Errorf("shard %d served %d /shardscan requests for %d blocks, want one per block", sid, h, blocks)
					}
				}

				sc := bufio.NewScanner(bytes.NewReader(got))
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				if !sc.Scan() {
					t.Fatal("router /matrix: empty stream")
				}
				i := 0
				err := fx.MatrixRows(sources, targets, func(u int, dists []float64) error {
					if !sc.Scan() {
						return fmt.Errorf("stream ended before row %d", i)
					}
					var row struct {
						U     int       `json:"u"`
						Dists []float64 `json:"dists"`
					}
					if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
						return err
					}
					if row.U != u || len(row.Dists) != len(dists) {
						return fmt.Errorf("row %d is u=%d with %d cells, want u=%d with %d", i, row.U, len(row.Dists), u, len(dists))
					}
					for j, d := range dists {
						if d == chl.Infinity {
							d = -1
						}
						if math.Float64bits(row.Dists[j]) != math.Float64bits(d) {
							return fmt.Errorf("cell (%d,%d) = %v, MatrixRows says %v", u, targets[j], row.Dists[j], d)
						}
					}
					i++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if sc.Scan() {
					t.Fatalf("trailing line after the last row: %q", sc.Text())
				}
			})
		}
	}
}

// TestShardScanRejectsBadBlocks sends malformed matrix blocks straight
// to a shard: each must draw a JSON 400, while the edge cases around
// the cell budget are served.
func TestShardScanRejectsBadBlocks(t *testing.T) {
	g := chl.GenerateRandom(240, 400, 9, 3)
	_, fx := buildFrozen(t, g)
	c := startReplicatedCluster(t, fx, 2, 1, 0, nil)
	defer c.close()
	byOwner := verticesByOwner(c.part, fx.NumVertices())
	shard0, shard1 := c.backends[0][0].URL, c.backends[1][0].URL

	// A real source run, fetched from its owner the way the router does.
	src := byOwner[1][0]
	resp, err := http.Post(shard1+"/shardquery", "application/json",
		strings.NewReader(fmt.Sprintf(`{"vertices":[%d]}`, src)))
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		Rows map[string]string `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&q)
	resp.Body.Close()
	run := q.Rows[fmt.Sprint(src)]
	if err != nil || run == "" {
		t.Fatalf("/shardquery for %d: %v, rows %v", src, err, q.Rows)
	}

	owned := func(k int) []int { // k targets owned by shard 0, repeating
		ts := make([]int, k)
		for i := range ts {
			ts[i] = byOwner[0][i%len(byOwner[0])]
		}
		return ts
	}
	half := chl.MatrixBlockCells / 2
	for _, tc := range []struct {
		name string
		body map[string]any
		want int
	}{
		{"two runs within the budget", map[string]any{"runs": []string{run, run}, "targets": owned(half)}, http.StatusOK},
		{"one run past the budget", map[string]any{"runs": []string{run}, "targets": owned(chl.MatrixBlockCells + 1)}, http.StatusOK},
		{"two runs past the budget", map[string]any{"runs": []string{run, run}, "targets": owned(half + 1)}, http.StatusBadRequest},
		{"undecodable run", map[string]any{"runs": []string{run, "not base64!"}, "targets": owned(3)}, http.StatusBadRequest},
		{"misaligned run", map[string]any{"runs": []string{"AAAA"}, "targets": owned(3)}, http.StatusBadRequest},
		{"runs with k", map[string]any{"runs": []string{run}, "targets": owned(3), "k": 2}, http.StatusBadRequest},
		{"runs without targets", map[string]any{"runs": []string{run}}, http.StatusBadRequest},
		{"single run with targets", map[string]any{"run": run, "targets": owned(3)}, http.StatusBadRequest},
	} {
		body, _ := json.Marshal(tc.body)
		resp, err := http.Post(shard0+"/shardscan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb struct {
			Error string      `json:"error"`
			Rows  [][]float64 `json:"rows"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, eb.Error, tc.want)
			continue
		}
		if derr != nil {
			t.Errorf("%s: undecodable JSON body: %v", tc.name, derr)
			continue
		}
		if tc.want != http.StatusOK && eb.Error == "" {
			t.Errorf("%s: status %d without an {\"error\": ...} body", tc.name, resp.StatusCode)
		}
		if tc.want == http.StatusOK && len(eb.Rows) != len(tc.body["runs"].([]string)) {
			t.Errorf("%s: %d row fragments for %d runs", tc.name, len(eb.Rows), len(tc.body["runs"].([]string)))
		}
	}
}
