package main

import (
	"fmt"
	"time"

	chl "repro"
)

// setupReps is how many times a workload whose set-up builds the
// CAL×4 index sets up; setup_s is the median. The update workload's
// CAL×1 deployment, under a second, repeats smallSetupReps times, and
// the build workload's graph generation, about 40 ms, genReps times.
const (
	setupReps      = 3
	smallSetupReps = 7
	genReps        = 15
)

// The build workload's graphs: buildPairs pairs of a road graph and a
// scale-free graph of 4,096 vertices each, 16,384 vertices of each kind
// in all. Several small graphs rather than one large one: their labels,
// a few MB per graph, stay close to the per-core caches, where those of
// one 16,384-vertex graph sit in the shared last-level cache and made
// a round's time depend on the other guests' use of it; and the work of
// a round varies less from seed to seed than one small graph's does.
// A round of all the constructions takes about 4 s on two vCPUs.
const (
	buildPairs = 4
	roadScale  = 1    // CAL×1: 4,096 vertices, about 8,900 edges
	sfScale    = 0.25 // POK×0.25: 4,096 vertices, about 24,600 edges
)

// buildSpec is one of the build workload's four constructions: the
// paper's Table 3 split of a road graph (GLL against PLaNT) and a
// scale-free graph (GLL against Hybrid on a simulated 2-node cluster).
type buildSpec struct {
	name string // per-layer metric suffix, e.g. "road_gll"
	road bool
	opt  chl.Options
}

var buildSpecs = []buildSpec{
	{"road_gll", true, chl.Options{Algorithm: chl.AlgoGLL}},
	{"road_plant", true, chl.Options{Algorithm: chl.AlgoPLaNT}},
	{"sf_gll", false, chl.Options{Algorithm: chl.AlgoGLL}},
	{"sf_hybrid", false, chl.Options{Algorithm: chl.AlgoHybrid, Nodes: 2, WorkersPerNode: 1}},
}

// graphPair is one road and one scale-free graph of the build workload.
type graphPair struct{ road, sf *chl.Graph }

// pairSeed is the generator seed of pair k for the run's seed.
func pairSeed(seed int64, k int) int64 {
	return int64(mix64(uint64(seed)<<8|uint64(k)) >> 1)
}

// buildRound is one pass of buildSpecs over every graph pair.
type buildRound struct {
	seconds []float64    // per spec, summed over the pairs
	total   float64      // wall s
	cpu     float64      // CPU s
	idx     []*chl.Index // the first pair's, per spec
	labels  []int64      // GLL's labels per graph, road then sf per pair
	bytes   []int64
}

func runBuild(cfg config) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: newLayer()}
	var pairs []graphPair
	var setups setupTimes
	for i := 0; i < genReps; i++ {
		pairs = make([]graphPair, buildPairs) // the last set-up's graphs are garbage
		err := setups.time(func() (err error) {
			for k := range pairs {
				ps := pairSeed(cfg.seed, k)
				if pairs[k].road, err = chl.GenerateDataset("CAL", roadScale, ps); err != nil {
					return err
				}
				if pairs[k].sf, err = chl.GenerateDataset("POK", sfScale, ps); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// rounds builds every spec on every pair in turn until the measured
	// time is used (at least once), checking the labels of each pair.
	rounds := func(tr *Tracer) []buildRound {
		var out []buildRound
		deadline := time.Now().Add(cfg.seconds)
		for len(out) == 0 || time.Now().Before(deadline) {
			rd := buildRound{seconds: make([]float64, len(buildSpecs))}
			c0 := cpuTime()
			for k, gp := range pairs {
				idx := make([]*chl.Index, len(buildSpecs))
				for j, sp := range buildSpecs {
					g := gp.sf
					if sp.road {
						g = gp.road
					}
					opt := sp.opt
					opt.Seed = cfg.seed
					span := tr.start("build."+sp.name, 0, "")
					t0 := time.Now()
					ix, err := chl.Build(g, opt)
					d := time.Since(t0).Seconds()
					span.finish()
					res.attempted++
					if err != nil {
						res.failed++
						cfg.log("%s on pair %d failed: %v", sp.name, k, err)
					}
					rd.seconds[j] += d
					rd.total += d
					idx[j] = ix
				}
				// The gate: canonical labelings are unique, so the two
				// constructions of each graph must agree vertex by vertex.
				for _, p := range [][2]int{{0, 1}, {2, 3}} {
					a, b := idx[p[0]], idx[p[1]]
					if a == nil || b == nil {
						continue
					}
					if bad := labelMismatches(a, b); bad > 0 {
						res.wrong++
						cfg.log("GATE pair %d: %s and %s labels differ at %d vertices", k, buildSpecs[p[0]].name, buildSpecs[p[1]].name, bad)
					}
				}
				for _, ix := range []*chl.Index{idx[0], idx[2]} {
					var st chl.Stats
					if ix != nil {
						st = ix.Stats()
					}
					rd.labels, rd.bytes = append(rd.labels, st.TotalLabels), append(rd.bytes, st.Bytes)
				}
				if k == 0 {
					rd.idx = idx
				}
			}
			rd.cpu = (cpuTime() - c0).Seconds()
			if len(out) > 0 {
				out[len(out)-1].idx = nil // keep one round's indexes alive
			}
			out = append(out, rd)
		}
		return out
	}

	plain := rounds(nil)
	totals := make([]float64, len(plain))
	var wallSum, cpuSum float64
	for i, rd := range plain {
		totals[i] = rd.total
		wallSum += rd.total
		cpuSum += rd.cpu
	}
	builds := float64(len(plain) * len(pairs) * len(buildSpecs))
	sum := summarize(totals)
	setups.record(res)
	res.e2e["p50_ms"] = sum.P50 * 1e3
	res.e2e["cpu_ms_per_op"] = cpuSum * 1e3 / builds
	res.layer["e2e.p90_ms"] = sum.P90 * 1e3
	res.layer["e2e.p99_ms"] = sum.P99 * 1e3
	res.layer["e2e.ops_per_s"] = builds / wallSum
	cfg.log("setup %.3f s CPU, %.3f s wall (medians of %d); rounds %s s; %.3f CPU s per build", median(setups.cpu), median(setups.wall), genReps, sum, cpuSum/builds)
	for j, sp := range buildSpecs {
		var xs []float64
		for _, rd := range plain {
			xs = append(xs, rd.seconds[j])
		}
		res.layer["build."+sp.name+"_s"] = median(xs)
		cfg.log("%-10s %.3fs over %d graphs (median of %d)", sp.name, median(xs), len(pairs), len(xs))
	}

	last := plain[len(plain)-1]
	for k, gp := range pairs {
		for m, g := range []*chl.Graph{gp.road, gp.sf} {
			name := fmt.Sprintf("CAL x%g #%d", float64(roadScale), k)
			if m == 1 {
				name = fmt.Sprintf("POK x%g #%d", sfScale, k)
			}
			res.fixtures = append(res.fixtures, fixture{Name: name, Vertices: g.NumVertices(), Edges: g.NumEdges(), Labels: last.labels[2*k+m], Bytes: last.bytes[2*k+m]})
		}
	}
	if !cfg.trace {
		return res, nil
	}

	// Traced pass: the same rounds with a span around every build, then
	// the construction layers' own counters, on the first pair, and the
	// seqPLL reference.
	plain[len(plain)-1].idx = nil
	tr := newTracer()
	traced := rounds(tr)
	var tracedTotals []float64
	for _, rd := range traced {
		tracedTotals = append(tracedTotals, rd.total)
	}
	res.spans = tr.snapshot()
	road, sf := pairs[0].road, pairs[0].sf
	res.layer["trace.overhead_pct"] = 100 * (median(tracedTotals) - median(totals)) / median(totals)
	res.layer["trace.attributed_share"] = 1
	res.layer["graph.gen_s"] = median(setups.wall)
	res.layer["order.road_s"] = timeMedian(setupReps, func() { chl.RankAuto(road, cfg.seed) })
	res.layer["order.sf_s"] = timeMedian(setupReps, func() { chl.RankAuto(sf, cfg.seed) })

	idx := traced[len(traced)-1].idx
	gllLayers(res.layer, metricsOf(idx[0]))
	if m := metricsOf(idx[1]); m != nil {
		res.layer["plant.road.explored"] = float64(m.VerticesExplored)
		res.layer["plant.road.psi"] = m.Psi()
		res.layer["plant.road.construct_s"] = m.ConstructTime.Seconds()
	}
	if m := metricsOf(idx[2]); m != nil {
		res.layer["gll.sf.construct_s"] = m.ConstructTime.Seconds()
		res.layer["gll.sf.clean_s"] = m.CleanTime.Seconds()
	}
	if m := metricsOf(idx[3]); m != nil {
		res.layer["dist.sf.plant_trees"] = float64(m.PlantTrees)
		res.layer["dist.sf.switched_at_tree"] = float64(m.SwitchedAtTree)
		res.layer["dist.sf.bytes_sent"] = float64(m.BytesSent)
		res.layer["dist.sf.syncs"] = float64(m.Synchronizations)
		res.layer["dist.sf.dist_queries"] = float64(m.DistanceQueries)
	}

	// The seqPLL reference and GLL, each built once on the first road
	// graph, ranking included.
	var secs [2]float64
	for a, algo := range []chl.Algorithm{chl.AlgoSeqPLL, chl.AlgoGLL} {
		t0 := time.Now()
		if _, err := chl.Build(road, chl.Options{Algorithm: algo, Seed: cfg.seed}); err != nil {
			return nil, fmt.Errorf("%s reference: %w", algo, err)
		}
		secs[a] = time.Since(t0).Seconds()
	}
	res.layer["pll.seq_road_s"] = secs[0]
	res.layer["gll.speedup_vs_seq"] = secs[0] / secs[1]
	return res, nil
}

func metricsOf(ix *chl.Index) *chl.Metrics {
	if ix == nil {
		return nil
	}
	return ix.Metrics()
}

// labelMismatches counts the vertices whose label sets differ.
func labelMismatches(a, b *chl.Index) int {
	bad := 0
	for u := 0; u < a.NumVertices(); u++ {
		la, lb := a.Labels(u), b.Labels(u)
		if len(la) != len(lb) {
			bad++
			continue
		}
		for i := range la {
			if la[i] != lb[i] {
				bad++
				break
			}
		}
	}
	return bad
}

// timeMedian runs f reps times and returns the median wall time in s.
func timeMedian(reps int, f func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs)
}
