package delta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// bracketOracle is Correct as it stood before arg-min certification:
// safety-test every seed, run the correction Dijkstra over the safe
// seeds (upper bound C) and, when any seed is compromised, over all of
// them (lower bound L), and accept only when the two meet. It shares
// nothing with Correct but the safety test and the distance tables.
func bracketOracle(o *Overlay, d0 float64, du, dv []float64) (dist float64, frozen, exact bool) {
	k := len(o.verts)
	d0Bad := o.compromised(d0, du, func(y int) float64 { return dv[y] })
	var duBad, dvBad []bool
	for j := 0; j < k; j++ {
		if o.compromised(du[j], du, func(y int) float64 { return o.dpq[y][j] }) {
			if duBad == nil {
				duBad = make([]bool, k)
			}
			duBad[j] = true
		}
		if o.compromised(dv[j], o.dpq[j], func(y int) float64 { return dv[y] }) {
			if dvBad == nil {
				dvBad = make([]bool, k)
			}
			dvBad[j] = true
		}
	}
	upper := oracleDijkstra(o, d0, du, dv, d0Bad, duBad, dvBad)
	lower := upper
	if d0Bad || duBad != nil || dvBad != nil {
		lower = oracleDijkstra(o, d0, du, dv, false, nil, nil)
	}
	if lower != upper {
		return 0, false, false
	}
	return upper, upper < graph.Infinity && !d0Bad && upper == d0, true
}

// oracleDijkstra is the dense correction Dijkstra over {0:u, 1..k:
// patch verts, k+1: v}; skip flags drop frozen seed arcs.
func oracleDijkstra(o *Overlay, d0 float64, du, dv []float64, skipD0 bool, skipU, skipV []bool) float64 {
	const inf = graph.Infinity
	k := len(o.verts)
	t := k + 1
	d := make([]float64, k+2)
	done := make([]bool, k+2)
	for i := range d {
		d[i] = inf
	}
	d[0] = 0
	for {
		at, best := -1, inf
		for i, dd := range d {
			if !done[i] && dd < best {
				at, best = i, dd
			}
		}
		if at < 0 || at == t {
			break
		}
		done[at] = true
		relax := func(to int, w float64) {
			if w < inf && best+w < d[to] {
				d[to] = best + w
			}
		}
		if at == 0 {
			for j := 0; j < k; j++ {
				if skipU == nil || !skipU[j] {
					relax(j+1, du[j])
				}
			}
			if !skipD0 {
				relax(t, d0)
			}
			continue
		}
		i := at - 1
		for j := 0; j < k; j++ {
			relax(j+1, o.dpp[i][j])
		}
		if skipV == nil || !skipV[i] {
			relax(t, dv[i])
		}
	}
	return d[t]
}

// fractionalGraph is a random graph with non-integer weights, so seed
// and correction sums round.
func fractionalGraph(n, m int, directed bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, directed)
	seen := map[[2]int]bool{}
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if !directed && u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v, 0.1+rng.Float64()*7.3)
	}
	return b.MustFinish()
}

// TestCorrectMatchesBracketOracle: over randomized overlays — integer
// weights with their many shortest-path ties, fractional weights,
// directed and undirected, sparse enough to leave pairs unreachable —
// arg-min certification returns the bracket's (dist, frozen, exact)
// triple bit for bit on every pair. The counters make sure the
// fixtures reach the cases that matter: compromised frozen distances,
// fallbacks (only Correct's bracket branch returns one) and unreachable
// pairs.
func TestCorrectMatchesBracketOracle(t *testing.T) {
	type fixture struct {
		name string
		g    *graph.Graph
	}
	var fixtures []fixture
	for seed := int64(1); seed <= 3; seed++ {
		fixtures = append(fixtures,
			fixture{"er", graph.ErdosRenyi(50, 110, 4, seed)},
			fixture{"er-sparse", graph.ErdosRenyi(50, 45, 6, seed)},
			fixture{"directed", graph.RandomDirected(45, 160, 4, seed)},
			fixture{"grid", graph.RoadGrid(7, 7, seed)},
			fixture{"fractional", fractionalGraph(45, 100, false, seed)},
			fixture{"fractional-directed", fractionalGraph(40, 130, true, seed)},
		)
	}
	var pairs, compromised, fallback, unreachable int
	for fi, f := range fixtures {
		ops := randomOps(f.g, int64(fi)*31+7, 3, 3, 3)
		red, err := Reduce(f.g, ops)
		if err != nil {
			t.Fatal(err)
		}
		frozen := newOracle(f.g)
		ov, err := NewOverlay(red, ops, 1, frozen.dist)
		if err != nil {
			t.Fatal(err)
		}
		verts := ov.Verts()
		n := f.g.NumVertices()
		for u := 0; u < n; u++ {
			du := make([]float64, len(verts))
			for i, p := range verts {
				du[i] = frozen.dist(u, p)
			}
			for v := 0; v < n; v++ {
				dv := make([]float64, len(verts))
				for i, p := range verts {
					dv[i] = frozen.dist(p, v)
				}
				d0 := frozen.dist(u, v)
				gd, gf, ge := ov.Correct(d0, du, dv)
				wd, wf, we := bracketOracle(ov, d0, du, dv)
				if math.Float64bits(gd) != math.Float64bits(wd) || gf != wf || ge != we {
					t.Fatalf("%s #%d (%d,%d): Correct = (%v, %v, %v), bracket = (%v, %v, %v)",
						f.name, fi, u, v, gd, gf, ge, wd, wf, we)
				}
				pairs++
				if !we {
					fallback++
				}
				if wd >= graph.Infinity && we {
					unreachable++
				}
				if ov.d0Compromised(d0, du, dv) {
					compromised++
				}
			}
		}
	}
	t.Logf("%d pairs: %d with a compromised frozen distance, %d fall back, %d unreachable", pairs, compromised, fallback, unreachable)
	if compromised == 0 || fallback == 0 || unreachable == 0 {
		t.Fatal("the fixtures must produce compromised seeds, fallbacks and unreachable pairs")
	}
}
