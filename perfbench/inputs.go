package main

import (
	"fmt"
	"math/rand"

	chl "repro"
)

// Every input the program receives is derived here from the run's seed:
// the same seed gives the same graphs, pairs, endpoints and patches.

// mix64 is the splitmix64 finalizer, used to derive independent
// per-request values from (seed, index) without shared RNG state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniformPair is the i-th pair of a seeded uniform stream over [0,n)².
// Pairs never repeat by construction of the stream, only by chance, so
// an answer cache sees about (requests/n²) hits.
func uniformPair(seed int64, i, n int) (u, v int) {
	h := mix64(uint64(seed)<<32 ^ uint64(i))
	return int((h >> 32) % uint64(n)), int(uint32(h) % uint32(n))
}

// zipfVertices draws vertices with Zipf-skewed popularity: rank k is
// drawn with probability ∝ 1/(1+k)^s, and ranks map to vertices
// through a seeded permutation, so the popular vertices are scattered
// over the graph rather than being the low ids.
type zipfVertices struct {
	perm []int
	z    *rand.Zipf
}

func (zv *zipfVertices) next() int { return zv.perm[zv.z.Uint64()] }

// patchBatches derives count batches of ops edge updates each, valid in
// sequence against base: every batch reweights, deletes and inserts
// edges of the graph as the earlier batches left it, with integer
// weights so patched distances stay exact in float arithmetic. It
// returns the batches and the graph after each prefix (states[0] is
// base, states[k] the graph after batch k).
func patchBatches(base *chl.Graph, seed int64, count, ops int) ([][]chl.EdgeOp, []*chl.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	n := base.NumVertices()
	states := []*chl.Graph{base}
	batches := make([][]chl.EdgeOp, 0, count)
	for len(batches) < count {
		g := states[len(states)-1]
		touched := map[[2]int]bool{}
		var batch []chl.EdgeOp
		for tries := 0; len(batch) < ops && tries < 100*ops; tries++ {
			u := rng.Intn(n)
			kind := len(batch) % 3
			if kind == 2 { // insert an absent edge
				v := rng.Intn(n)
				if u == v || touched[key(u, v)] {
					continue
				}
				if _, has := g.HasEdge(u, v); has {
					continue
				}
				touched[key(u, v)] = true
				batch = append(batch, chl.EdgeOp{Kind: chl.EdgeOpAdd, U: u, V: v, W: float64(1 + rng.Intn(50))})
				continue
			}
			heads, _ := g.Neighbors(u)
			if len(heads) < 2 { // keep every vertex attached by at least one edge
				continue
			}
			v := int(heads[rng.Intn(len(heads))])
			if u == v || touched[key(u, v)] {
				continue
			}
			touched[key(u, v)] = true
			if kind == 0 {
				batch = append(batch, chl.EdgeOp{Kind: chl.EdgeOpSet, U: u, V: v, W: float64(1 + rng.Intn(50))})
			} else {
				batch = append(batch, chl.EdgeOp{Kind: chl.EdgeOpDel, U: u, V: v})
			}
		}
		if len(batch) < ops {
			return nil, nil, fmt.Errorf("patch batch %d: found only %d of %d valid ops", len(batches), len(batch), ops)
		}
		next, err := chl.ApplyPatch(g, batch)
		if err != nil {
			return nil, nil, fmt.Errorf("patch batch %d: %w", len(batches), err)
		}
		batches = append(batches, batch)
		states = append(states, next)
	}
	return batches, states, nil
}

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
