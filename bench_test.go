package chl_test

// One benchmark per table and figure of the paper's evaluation (§7), plus
// micro-benchmarks for the primitives. Each experiment benchmark runs the
// corresponding internal/exp driver at a reduced scale and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature; cmd/experiments produces
// the full-size text report.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	chl "repro"
	"repro/internal/exp"
	"repro/internal/query"
)

// benchCfg keeps one benchmark iteration to roughly a second.
func benchCfg() exp.Config {
	return exp.Config{Scale: 0.15, Seed: 1, Workers: 2, QueryBatch: 20_000, LatencyQueries: 1_000}.Defaults()
}

// BenchmarkTable3SharedMemory reproduces Table 3: GLL vs LCC vs SparaPLL vs
// seqPLL construction time and average label size.
func BenchmarkTable3SharedMemory(b *testing.B) {
	cfg := benchCfg()
	var rows []exp.Table3Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table3(cfg)
	}
	var chlALS, spALS float64
	for _, r := range rows {
		chlALS += r.CHLALS
		spALS += r.SparaALS
	}
	b.ReportMetric(chlALS/float64(len(rows)), "CHL-ALS")
	b.ReportMetric(spALS/float64(len(rows)), "SparaPLL-ALS")
	b.ReportMetric(100*(1-chlALS/spALS), "label-reduction-%")
}

// BenchmarkTable4QueryModes reproduces Table 4: QLSN/QFDL/QDOL throughput,
// latency and memory at q=16.
func BenchmarkTable4QueryModes(b *testing.B) {
	cfg := benchCfg()
	var rows []exp.Table4Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table4(cfg)
	}
	var qdol, qfdl float64
	var count int
	for _, r := range rows {
		if !r.Skipped[query.QDOL] && !r.Skipped[query.QFDL] {
			qdol += r.Throughput[query.QDOL]
			qfdl += r.Throughput[query.QFDL]
			count++
		}
	}
	if count > 0 {
		b.ReportMetric(qdol/qfdl, "QDOL/QFDL-throughput")
	}
}

// BenchmarkFigure2LabelsPerSPT reproduces Figure 2's decay series.
func BenchmarkFigure2LabelsPerSPT(b *testing.B) {
	cfg := benchCfg()
	var series []exp.FigureSeries
	for i := 0; i < b.N; i++ {
		series = exp.Figure2(cfg)
	}
	first := series[0].Points
	b.ReportMetric(first[0].Value/maxf(first[len(first)-1].Value, 1), "first/last-bucket")
}

// BenchmarkFigure3Psi reproduces Figure 3's Ψ-per-tree series.
func BenchmarkFigure3Psi(b *testing.B) {
	cfg := benchCfg()
	var series []exp.FigureSeries
	for i := 0; i < b.N; i++ {
		series = exp.Figure3(cfg)
	}
	var peak float64
	for _, s := range series {
		for _, p := range s.Points {
			if p.Value > peak {
				peak = p.Value
			}
		}
	}
	b.ReportMetric(peak, "max-psi")
}

// BenchmarkFigure4RestrictedPruning reproduces Figure 4: labels vs pruning
// hub budget.
func BenchmarkFigure4RestrictedPruning(b *testing.B) {
	cfg := benchCfg()
	var series []exp.Figure4Series
	for i := 0; i < b.N; i++ {
		series = exp.Figure4(cfg)
	}
	s := series[0]
	b.ReportMetric(float64(s.Points[0].Labels)/float64(s.CHL), "rankonly/CHL-labels")
}

// BenchmarkFigure5AlphaSweep reproduces Figure 5: GLL time vs α.
func BenchmarkFigure5AlphaSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		exp.Figure5(cfg)
	}
}

// BenchmarkFigure6PsiSweep reproduces Figure 6: Hybrid time vs Ψth at q=16.
func BenchmarkFigure6PsiSweep(b *testing.B) {
	cfg := benchCfg()
	var pts []exp.Figure6Point
	for i := 0; i < b.N; i++ {
		pts = exp.Figure6(cfg)
	}
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkFigure7Breakdown reproduces Figure 7: LCC vs GLL phase split.
func BenchmarkFigure7Breakdown(b *testing.B) {
	cfg := benchCfg()
	var rows []exp.Figure7Row
	for i := 0; i < b.N; i++ {
		rows = exp.Figure7(cfg)
	}
	var ratio float64
	for _, r := range rows {
		ratio += float64(r.LCCCleanEntries) / maxf(float64(r.GLLCleanEntries), 1)
	}
	b.ReportMetric(ratio/float64(len(rows)), "LCC/GLL-clean-entries")
}

// BenchmarkFigure8StrongScaling reproduces Figure 8 on a reduced q grid.
func BenchmarkFigure8StrongScaling(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.3
	var pts []exp.Figure8Point
	for i := 0; i < b.N; i++ {
		pts = exp.Figure8(cfg)
	}
	// Report PLaNT's modeled speedup on the first dataset.
	var t1, tq float64
	maxQ := 0
	for _, p := range pts {
		if p.Dataset == "CAL" && p.Algorithm == "PLaNT" && !p.OOM {
			if p.Nodes == 1 {
				t1 = p.Modeled
			}
			if p.Nodes > maxQ {
				maxQ, tq = p.Nodes, p.Modeled
			}
		}
	}
	if tq > 0 {
		b.ReportMetric(t1/tq, "PLaNT-speedup")
	}
}

// BenchmarkFigure9ALSGrowth reproduces Figure 9: ALS vs q.
func BenchmarkFigure9ALSGrowth(b *testing.B) {
	cfg := benchCfg()
	var pts []exp.Figure9Point
	for i := 0; i < b.N; i++ {
		pts = exp.Figure9(cfg)
	}
	// DparaPLL ALS inflation at the largest q relative to canonical.
	var dp, hy float64
	maxQ := 0
	for _, p := range pts {
		if p.Nodes > maxQ {
			maxQ = p.Nodes
		}
	}
	for _, p := range pts {
		if p.Nodes == maxQ && !p.OOM {
			if p.Algorithm == "DparaPLL" {
				dp += p.ALS
			} else {
				hy += p.ALS
			}
		}
	}
	if hy > 0 {
		b.ReportMetric(dp/hy, "DparaPLL/CHL-ALS")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the primitives.

func benchGraph(b *testing.B) *chl.Graph {
	b.Helper()
	return chl.GenerateScaleFree(2048, 4, 1)
}

func BenchmarkBuildSeqPLL(b *testing.B) {
	g := benchGraph(b)
	ord := chl.RankByDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL, Order: ord}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildGLL(b *testing.B) {
	g := benchGraph(b)
	ord := chl.RankByDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Order: ord, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPLaNT(b *testing.B) {
	g := benchGraph(b)
	ord := chl.RankByDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoPLaNT, Order: ord, Workers: 2, CommonHubs: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHybridQ8(b *testing.B) {
	g := benchGraph(b)
	ord := chl.RankByDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoHybrid, Order: ord, Nodes: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// The query benchmarks run at serving scale (a 32k-vertex scale-free
// graph) rather than on the small construction benchmark graph: an index
// that fits L2 whole hides exactly the layout effects the flat store is
// for. The index is built once and shared.
var serveBench struct {
	once   sync.Once
	ix     *chl.Index
	fx     *chl.FlatIndex
	cfx    *chl.FlatIndex // compressed sibling of fx, same labels
	us, vs []int
}

func benchServeIndex(b *testing.B) (*chl.Index, *chl.FlatIndex, []int, []int) {
	b.Helper()
	serveBench.once.Do(func() {
		g := chl.GenerateScaleFree(32768, 4, 1)
		ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL})
		if err != nil {
			panic(err)
		}
		fx, err := ix.Freeze()
		if err != nil {
			panic(err)
		}
		cfx, err := fx.Compress()
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(2))
		us := make([]int, 4096)
		vs := make([]int, 4096)
		for i := range us {
			us[i], vs[i] = rng.Intn(32768), rng.Intn(32768)
		}
		serveBench.ix, serveBench.fx, serveBench.cfx = ix, fx, cfx
		serveBench.us, serveBench.vs = us, vs
	})
	return serveBench.ix, serveBench.fx, serveBench.us, serveBench.vs
}

// benchServeCompressed returns the compressed sibling of the shared
// serving fixture.
func benchServeCompressed(b *testing.B) (*chl.FlatIndex, []int, []int) {
	b.Helper()
	_, _, us, vs := benchServeIndex(b)
	return serveBench.cfx, us, vs
}

func BenchmarkQuery(b *testing.B) {
	ix, _, us, vs := benchServeIndex(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ix.Query(us[i%4096], vs[i%4096])
	}
	_ = sink
}

// BenchmarkFlatQuery is BenchmarkQuery on the frozen packed store through
// the serving path: same pairs, 8-byte packed entries instead of 16-byte
// slice elements behind two pointer chases, and a per-worker scratch
// buffer that replaces the mispredicting merge-join with a hash-join.
func BenchmarkFlatQuery(b *testing.B) {
	_, fx, us, vs := benchServeIndex(b)
	scratch := fx.NewScratch()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fx.QueryWith(scratch, us[i%4096], vs[i%4096])
	}
	_ = sink
}

// BenchmarkFlatQueryMerge is the allocation- and scratch-free flat query
// (the path big-graph serving uses).
func BenchmarkFlatQueryMerge(b *testing.B) {
	_, fx, us, vs := benchServeIndex(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fx.Query(us[i%4096], vs[i%4096])
	}
	_ = sink
}

// BenchmarkFlatQueryParallel is the hash-join flat query across all
// available cores. Each RunParallel goroutine allocates its own
// QueryScratch inside the closure — the scratch carries a generation
// counter and a versioned bitmap, so sharing one across goroutines
// would race and silently corrupt answers.
func BenchmarkFlatQueryParallel(b *testing.B) {
	_, fx, us, vs := benchServeIndex(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		scratch := fx.NewScratch() // per goroutine, never shared
		var sink float64
		i := 0
		for pb.Next() {
			sink += fx.QueryWith(scratch, us[i%4096], vs[i%4096])
			i++
		}
		_ = sink
	})
}

// BenchmarkCompressedQuery is BenchmarkFlatQueryMerge on the compressed
// (CHFX v4) sibling of the same index: block-skipping merge-join over
// delta+varint label blocks instead of fixed-width packed entries.
func BenchmarkCompressedQuery(b *testing.B) {
	cfx, us, vs := benchServeCompressed(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cfx.Query(us[i%4096], vs[i%4096])
	}
	_ = sink
}

// BenchmarkCompressedQueryParallel runs the compressed kernel across all
// cores. The compressed path is scratch-free (block buffers live on the
// stack), so there is no per-goroutine state to allocate.
func BenchmarkCompressedQueryParallel(b *testing.B) {
	cfx, us, vs := benchServeCompressed(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink float64
		i := 0
		for pb.Next() {
			sink += cfx.Query(us[i%4096], vs[i%4096])
			i++
		}
		_ = sink
	})
}

// TestParallelQueryScratchRace drives the same pattern as the parallel
// benchmarks under plain `go test`, so the CI -race job proves the
// per-goroutine-scratch discipline (and the scratch-free compressed
// kernel) actually is data-race-free rather than trusting the comment.
func TestParallelQueryScratchRace(t *testing.T) {
	g := chl.GenerateScaleFree(400, 3, 2)
	ix, fx := buildFrozen(t, g)
	cfx, err := fx.Compress()
	if err != nil {
		t.Fatal(err)
	}
	n := fx.NumVertices()
	const workers, perWorker = 8, 400
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			scratch := fx.NewScratch() // own scratch per goroutine
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				want := ix.Query(u, v)
				if got := fx.QueryWith(scratch, u, v); got != want {
					errc <- fmt.Errorf("flat QueryWith(%d,%d) = %v, want %v", u, v, got, want)
					return
				}
				if got := cfx.Query(u, v); got != want {
					errc <- fmt.Errorf("compressed Query(%d,%d) = %v, want %v", u, v, got, want)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBatchParallel measures the parallel batch serving engine
// against the same batch answered one query at a time on one goroutine.
func BenchmarkBatchParallel(b *testing.B) {
	_, fx, _, _ := benchServeIndex(b)
	eng := chl.NewBatchEngineFlat(fx)
	n := fx.NumVertices()
	rng := rand.New(rand.NewSource(3))
	pairs := make([]chl.QueryPair, 65536)
	for i := range pairs {
		pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
	}
	dst := make([]float64, len(pairs))
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.BatchInto(dst, pairs)
		}
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mq/s")
	})
	b.Run("sequential", func(b *testing.B) {
		fx := eng.Index()
		for i := 0; i < b.N; i++ {
			for j, p := range pairs {
				dst[j] = fx.Query(p.U, p.V)
			}
		}
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mq/s")
	})
}

// BenchmarkPatchedQuery times one read under a live edge patch — the
// seed-table scans, the overlay's correction Dijkstra and the occasional
// exact fallback — on a CAL×1 road graph after 1 and after 4 twelve-op
// update batches (the update mix's patch sizes), with the answer cache
// off so every iteration is a corrected read. "server" is the engine
// tier through Server.Query; "router" the same reads through a Router
// over two shards, which adds the endpoints' row fetches over loopback
// HTTP.
func BenchmarkPatchedQuery(b *testing.B) {
	g, err := chl.GenerateDataset("CAL", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := chl.Build(g, chl.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	batches := benchPatchBatches(b, g, 4, 12)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(4))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	for _, nb := range []int{1, 4} {
		b.Run(fmt.Sprintf("server/batches=%d", nb), func(b *testing.B) {
			s := chl.NewServerFromFlat(fx, 0)
			defer s.Close()
			if err := s.EnableUpdates(g, ""); err != nil {
				b.Fatal(err)
			}
			for _, batch := range batches[:nb] {
				if _, err := s.Update(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sink += s.Query(p[0], p[1])
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("router/batches=%d", nb), func(b *testing.B) {
			c := newTestCluster(b, fx, clusterSpec{shards: 2, tweak: func(cfg *chl.RouterConfig) {
				cfg.BaseGraph = g
			}})
			defer c.close()
			for _, batch := range batches[:nb] {
				if _, err := c.router.Update(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := c.router.Query(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPatchBatches derives count valid batches of size ops from g, each
// applied before the next is drawn: reweights and deletions of existing
// edges (never a vertex's last one) and insertions of absent edges, in
// turn, with small integer weights.
func benchPatchBatches(b *testing.B, g *chl.Graph, count, ops int) [][]chl.EdgeOp {
	rng := rand.New(rand.NewSource(7))
	n := g.NumVertices()
	var out [][]chl.EdgeOp
	for len(out) < count {
		touched := map[[2]int]bool{}
		var batch []chl.EdgeOp
		for len(batch) < ops {
			u := rng.Intn(n)
			var v int
			if len(batch)%3 == 2 {
				v = rng.Intn(n)
				if _, has := g.HasEdge(u, v); has {
					continue
				}
			} else {
				heads, _ := g.Neighbors(u)
				if len(heads) < 2 {
					continue
				}
				v = int(heads[rng.Intn(len(heads))])
			}
			k := [2]int{min(u, v), max(u, v)}
			if u == v || touched[k] {
				continue
			}
			touched[k] = true
			switch len(batch) % 3 {
			case 0:
				batch = append(batch, chl.EdgeOp{Kind: chl.EdgeOpSet, U: u, V: v, W: float64(1 + rng.Intn(50))})
			case 1:
				batch = append(batch, chl.EdgeOp{Kind: chl.EdgeOpDel, U: u, V: v})
			default:
				batch = append(batch, chl.EdgeOp{Kind: chl.EdgeOpAdd, U: u, V: v, W: float64(1 + rng.Intn(50))})
			}
		}
		next, err := chl.ApplyPatch(g, batch)
		if err != nil {
			b.Fatal(err)
		}
		out, g = append(out, batch), next
	}
	return out
}

func BenchmarkSaveLoad(b *testing.B) {
	g := benchGraph(b)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.SaveFile(b.TempDir() + "/ix.chl"); err != nil {
			b.Fatal(err)
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
