package chl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/delta"
)

// seedGraph is a random graph with fractional weights over two
// components of n/2 vertices each, so some pairs are unreachable and
// every seed sum rounds.
func seedGraph(n, m int, directed bool, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewGraphBuilder(n, directed)
	seen := map[[2]int]bool{}
	for len(seen) < m {
		half := rng.Intn(2) * (n / 2)
		u, v := half+rng.Intn(n/2), half+rng.Intn(n/2)
		if !directed && u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v, 0.25+rng.Float64()*6.5)
	}
	return b.MustFinish()
}

// seedOps deletes and reweights a few existing edges and inserts a few
// absent ones, inside both components.
func seedOps(g *Graph) []EdgeOp {
	n := g.NumVertices()
	var ops []EdgeOp
	for u := 0; u < n && len(ops) < 6; u += 7 {
		heads, _ := g.Neighbors(u)
		if len(heads) == 0 {
			continue
		}
		v := int(heads[0])
		if len(ops)%2 == 0 {
			ops = append(ops, EdgeOp{Kind: EdgeOpDel, U: u, V: v})
		} else {
			ops = append(ops, EdgeOp{Kind: EdgeOpSet, U: u, V: v, W: 0.75})
		}
	}
	for u := 3; u < n && len(ops) < 9; u += 11 {
		v := (u + 5) % n
		if _, has := g.HasEdge(u, v); !has && u != v {
			ops = append(ops, EdgeOp{Kind: EdgeOpAdd, U: u, V: v, W: 1.5})
		}
	}
	return ops
}

// TestPatchSeedsMatchPairwiseQuery: the engine's seed vectors, built
// from one seed-table scan per endpoint, are bit-identical to pairwise
// FlatIndex.Query for every pair and every patch vertex — packed and
// compressed, directed and undirected, patch endpoints and unreachable
// pairs included.
func TestPatchSeedsMatchPairwiseQuery(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := seedGraph(80, 200, directed, 3)
		ix, err := Build(g, Options{Algorithm: AlgoPLaNT})
		if err != nil {
			t.Fatal(err)
		}
		fx, err := ix.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		cfx, err := fx.Compress()
		if err != nil {
			t.Fatal(err)
		}
		ops := seedOps(g)
		red, err := delta.Reduce(g, ops)
		if err != nil {
			t.Fatal(err)
		}
		ov, err := delta.NewOverlay(red, ops, 1, fx.Query)
		if err != nil {
			t.Fatal(err)
		}
		verts := ov.Verts()
		for _, store := range []*FlatIndex{fx, cfx} {
			e := NewBatchEngineFlat(store)
			e.SetOverlay(ov)
			n := store.NumVertices()
			unreachable := 0
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					b := e.patchSeeds(u, v)
					for i, p := range verts {
						if want := store.Query(u, p); math.Float64bits(b.du[i]) != math.Float64bits(want) {
							t.Fatalf("directed=%v compressed=%v: du(%d, p=%d) = %v, Query = %v", directed, store.Compressed(), u, p, b.du[i], want)
						}
						want := store.Query(p, v)
						if math.Float64bits(b.dv[i]) != math.Float64bits(want) {
							t.Fatalf("directed=%v compressed=%v: dv(p=%d, %d) = %v, Query = %v", directed, store.Compressed(), p, v, b.dv[i], want)
						}
						if want == Infinity {
							unreachable++
						}
					}
					e.seeds.bufs.Put(b)
				}
			}
			if unreachable == 0 {
				t.Fatal("no unreachable seed was checked")
			}
		}
	}
}
