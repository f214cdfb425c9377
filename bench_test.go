// Benchmarks regenerating every table and figure of the paper (see the
// DESIGN.md experiment index) plus ablation benches for the design
// choices §III-A calls out, and micro-benchmarks of the hot paths.
//
// Experiment benches run on the tiny preset so `go test -bench=.` stays
// tractable; the full-size runs live in cmd/turbo-bench. Each bench logs
// the artifact it regenerates, so `-bench=. -benchtime=1x -v` doubles as
// a miniature reproduction report.
package turbo_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"turbo/internal/baselines"
	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/datagen"
	"turbo/internal/eval"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/server"
	"turbo/internal/tensor"
)

var (
	benchOnce sync.Once
	benchA    *eval.Assembled
)

func benchAssembled() *eval.Assembled {
	benchOnce.Do(func() {
		benchA = eval.Assemble(datagen.Tiny(), eval.AssembleOptions{})
	})
	return benchA
}

func benchHyper() eval.Hyper {
	return eval.Hyper{Hidden: []int{12, 6}, AttHidden: 6, MLPHidden: 6, Epochs: 40, LR: 1e-2}
}

// --- Tables ------------------------------------------------------------------

// BenchmarkTable2DatasetStats regenerates Table II (dataset statistics).
func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := eval.Assemble(datagen.Tiny(), eval.AssembleOptions{})
		st := a.Graph.Stats()
		if i == 0 {
			b.Logf("Table II: #node=%d #positive=%d #edge=%d", st.Nodes, a.Data.Positives(), st.Edges)
		}
	}
}

// BenchmarkTable3MethodComparison regenerates Table III (all methods).
func BenchmarkTable3MethodComparison(b *testing.B) {
	a := benchAssembled()
	h := benchHyper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := eval.Table3(a, h, []uint64{1})
		if i == 0 {
			b.Logf("\n%s", tbl)
		}
	}
}

// BenchmarkTable4LargeDataset regenerates Table IV (G-SAGE vs HAG on D2).
func BenchmarkTable4LargeDataset(b *testing.B) {
	a2 := eval.Assemble(datagen.D2(400), eval.AssembleOptions{})
	h := benchHyper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := eval.Table4(a2, h, []uint64{1})
		if i == 0 {
			b.Logf("\n%s", tbl)
		}
	}
}

// BenchmarkTable5OperatorAblation regenerates Table V (SAO/CFO ablation).
func BenchmarkTable5OperatorAblation(b *testing.B) {
	a := benchAssembled()
	h := benchHyper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := eval.Table5(a, h, []uint64{1})
		if i == 0 {
			b.Logf("\n%s", tbl)
		}
	}
}

// --- Figures -----------------------------------------------------------------

// BenchmarkFigure4TimeBurst regenerates the Fig. 4a/4b series.
func BenchmarkFigure4TimeBurst(b *testing.B) {
	a := benchAssembled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normal, fraud := a.BurstConcentration(36 * time.Hour)
		if i == 0 {
			b.Logf("Fig 4a/b: logs within ±36h of application — normal %.1f%%, fraud %.1f%%",
				100*normal, 100*fraud)
		}
	}
}

// BenchmarkFigure4TemporalAggregation regenerates Fig. 4c.
func BenchmarkFigure4TemporalAggregation(b *testing.B) {
	a := benchAssembled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normal, fraud := a.TemporalAggregation(14, 5000)
		if i == 0 {
			b.Logf("Fig 4c: <3d pair share (IPv4) — normal %.1f%%, fraud %.1f%%",
				100*normal[behavior.IPv4].ShortIntervalShare(3),
				100*fraud[behavior.IPv4].ShortIntervalShare(3))
		}
	}
}

// BenchmarkFigure4Homophily regenerates Fig. 4d–g.
func BenchmarkFigure4Homophily(b *testing.B) {
	a := benchAssembled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := a.Homophily(3, 50, -1)
		if i == 0 {
			b.Logf("Fig 4d: fraud-neighbor ratio by hop — normal %v, fraud %v", s.Normal, s.Fraud)
		}
	}
}

// BenchmarkFigure4StructuralDifference regenerates Fig. 4h/4i.
func BenchmarkFigure4StructuralDifference(b *testing.B) {
	a := benchAssembled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dw := a.StructuralDifference(3, 50, true)
		if i == 0 {
			b.Logf("Fig 4i: weighted degree by hop — normal %v, fraud %v", dw.Normal, dw.Fraud)
		}
	}
}

// BenchmarkFigure7EdgeTypeAblation regenerates Fig. 7 (per-type AUC drop).
func BenchmarkFigure7EdgeTypeAblation(b *testing.B) {
	a := benchAssembled()
	h := benchHyper()
	h.Epochs = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.Figure7(a, h, 1)
		if i == 0 {
			b.Logf("\n%s", eval.RenderFigure7(res))
		}
	}
}

// BenchmarkFigure8ResponseTime regenerates Fig. 8a (module latencies).
func BenchmarkFigure8ResponseTime(b *testing.B) {
	a := benchAssembled()
	model, _ := eval.TrainHAG(a, eval.HAGFull, benchHyper(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.RunResponseTimeStudy(a, model, 50, 1)
		if i == 0 {
			var total time.Duration
			for _, d := range series.Total {
				total += d
			}
			b.Logf("Fig 8a: mean end-to-end audit latency %v over %d requests",
				total/time.Duration(len(series.Total)), len(series.Total))
		}
	}
}

// BenchmarkFigure8Scalability regenerates Fig. 8b (size sweep).
func BenchmarkFigure8Scalability(b *testing.B) {
	h := benchHyper()
	h.Epochs = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := eval.RunScalability(datagen.Tiny(), []int{1, 2}, h, 1)
		if i == 0 {
			b.Logf("\n%s", eval.RenderScalability(points))
		}
	}
}

// BenchmarkSection5CacheOptimization regenerates the §V latency study.
func BenchmarkSection5CacheOptimization(b *testing.B) {
	h := benchHyper()
	h.Epochs = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study := eval.RunLatencyStudy(datagen.Tiny(), eval.LatencyOptions{
			Requests: 40, DBLatency: 2 * time.Millisecond, Hyper: h,
		})
		if i == 0 {
			b.Logf("§V: cold mean %v vs warm mean %v",
				study.Cold["total"].Mean, study.Warm["total"].Mean)
		}
	}
}

// BenchmarkFigure9Influence regenerates the Fig. 9 influence heat map.
func BenchmarkFigure9Influence(b *testing.B) {
	a := benchAssembled()
	h := benchHyper()
	h.Epochs = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := eval.RunCaseStudy(a, h, 1, 4)
		if i == 0 {
			intra, back := cs.MeanIntraFraudInfluence()
			b.Logf("Fig 9: intra-fraud influence %.4f vs background %.4f", intra, back)
		}
	}
}

// BenchmarkOnlineABTest regenerates the §VI-E online A/B simulation.
func BenchmarkOnlineABTest(b *testing.B) {
	h := benchHyper()
	for i := 0; i < b.N; i++ {
		res := eval.RunABTest(datagen.Tiny(), h, 1)
		if i == 0 {
			b.Logf("\n%s", res)
		}
	}
}

// --- Ablation benches for DESIGN.md §5 design choices -------------------------

// ablationAUC assembles with the given BN config and returns HAG test AUC.
func ablationAUC(b *testing.B, bnCfg bn.Config, raw bool) float64 {
	b.Helper()
	a := eval.Assemble(datagen.Tiny(), eval.AssembleOptions{BN: bnCfg})
	h := benchHyper()
	var batch *gnn.Batch
	if raw {
		batch = a.FullBatchRaw()
	} else {
		batch = a.FullBatch()
	}
	m := eval.NewHAG(eval.HAGFull, hagConfig(h, batch.X.Cols, a.Graph.NumEdgeTypes()))
	gnn.Train(m, batch, a.TrainIdx, a.Labels, gnn.TrainConfig{
		Epochs: h.Epochs, LR: h.LR, BalanceClasses: true, Seed: 1,
	})
	return a.EvaluateScores(gnn.Scores(m, batch), 0.5).AUC
}

func hagConfig(h eval.Hyper, in, types int) hag.Config {
	return hag.Config{
		InDim:        in,
		NumEdgeTypes: types,
		Hidden:       h.Hidden,
		AttHidden:    h.AttHidden,
		MLPHidden:    h.MLPHidden,
		Seed:         1,
	}
}

// BenchmarkAblationInverseWeights compares inverse weight assignment
// against uniform co-occurrence weights.
func BenchmarkAblationInverseWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inv := ablationAUC(b, bn.Config{}, false)
		uni := ablationAUC(b, bn.Config{UniformWeights: true}, false)
		if i == 0 {
			b.Logf("inverse weights AUC %.4f vs uniform %.4f", inv, uni)
		}
	}
}

// BenchmarkAblationHierarchicalWindows compares the full window
// hierarchy against a single 1-day window.
func BenchmarkAblationHierarchicalWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hier := ablationAUC(b, bn.Config{}, false)
		single := ablationAUC(b, bn.Config{Windows: []time.Duration{24 * time.Hour}}, false)
		if i == 0 {
			b.Logf("hierarchical windows AUC %.4f vs single 1d window %.4f", hier, single)
		}
	}
}

// BenchmarkAblationNormalization compares §III-A symmetric edge-weight
// normalization against raw weights.
func BenchmarkAblationNormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		norm := ablationAUC(b, bn.Config{}, false)
		raw := ablationAUC(b, bn.Config{}, true)
		if i == 0 {
			b.Logf("normalized AUC %.4f vs raw weights %.4f", norm, raw)
		}
	}
}

// --- Micro-benchmarks of hot paths --------------------------------------------

// BenchmarkBNConstruction measures Algorithm 1 over the tiny world.
func BenchmarkBNConstruction(b *testing.B) {
	world := datagen.Generate(datagen.Tiny())
	store := world.Store()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.New(behavior.NumTypes)
		builder, err := bn.NewBuilder(bn.Config{}, store, g, world.Start)
		if err != nil {
			b.Fatal(err)
		}
		builder.BuildRange(world.Start, world.End)
	}
}

// BenchmarkSubgraphSampling measures 2-hop computation-subgraph
// extraction (the BN server's per-request graph work).
func BenchmarkSubgraphSampling(b *testing.B) {
	a := benchAssembled()
	rng := tensor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := a.Nodes[rng.Intn(len(a.Nodes))]
		a.Graph.Sample(u, graph.SampleOptions{Hops: 2, MaxNeighbors: 32})
	}
}

// buildBenchGraph constructs a live BN over the tiny world and returns
// it with the node list.
func buildBenchGraph(b *testing.B) (*graph.Graph, []graph.NodeID) {
	b.Helper()
	world := datagen.Generate(datagen.Tiny())
	g := graph.New(behavior.NumTypes)
	builder, err := bn.NewBuilder(bn.Config{}, world.Store(), g, world.Start)
	if err != nil {
		b.Fatal(err)
	}
	builder.BuildRange(world.Start, world.End)
	nodes := make([]graph.NodeID, len(world.Users))
	for i := range world.Users {
		nodes[i] = graph.NodeID(world.Users[i].ID)
	}
	return g, nodes
}

// BenchmarkGraphSnapshotSample measures subgraph sampling from an
// immutable snapshot, which takes no lock, under parallel readers. The
// snapshot is the BN's only read path: the BN server serves every
// prediction from the one its last Advance published.
func BenchmarkGraphSnapshotSample(b *testing.B) {
	g, nodes := buildBenchGraph(b)
	snap := g.Snapshot()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := tensor.NewRNG(seed.Add(1))
		for pb.Next() {
			u := nodes[rng.Intn(len(nodes))]
			snap.Sample(u, graph.SampleOptions{Hops: 2, MaxNeighbors: 32})
		}
	})
}

// BenchmarkConcurrentIngestPredict measures the Fig. 2 contention
// scenario: one writer goroutine keeps mutating the BN (edge upserts
// plus periodic Advance ticks that republish the snapshot) while
// GOMAXPROCS reader goroutines serve Sample requests from the current
// snapshot. Reader throughput should scale with goroutines because the
// prediction path takes no graph mutex; compare ns/op against
// BenchmarkGraphSnapshotSample/snapshot to see the residual cost.
func BenchmarkConcurrentIngestPredict(b *testing.B) {
	world := datagen.Generate(datagen.Tiny())
	bnServer, err := server.NewBNServer(bn.Config{}, world.Start)
	if err != nil {
		b.Fatal(err)
	}
	bnServer.IngestBatch(world.Logs)
	for i := range world.Users {
		bnServer.RegisterTransaction(world.Users[i].ID)
	}
	bnServer.Advance(world.End)

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() { // window-job writer: upserts + epoch republication
		defer close(writerDone)
		g := bnServer.Graph()
		// Re-accumulate weight onto the existing edge set (what repeated
		// window jobs do), keeping topology — and thus sampling cost —
		// constant so the benchmark isolates lock contention.
		es := g.Edges()
		if len(es) == 0 {
			return
		}
		never := world.End.Add(10000 * time.Hour)
		tick := world.End
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := es[i%len(es)]
			_ = g.AddEdgeWeight(e.Type, e.U, e.V, 1e-9, never)
			if i%4096 == 4095 {
				tick = tick.Add(time.Hour)
				bnServer.Advance(tick)
			}
		}
	}()

	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := tensor.NewRNG(100 + seed.Add(1))
		for pb.Next() {
			bnServer.Sample(world.Users[rng.Intn(len(world.Users))].ID)
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone
}

// BenchmarkHAGInference measures one HAG forward pass on a sampled
// computation subgraph (the prediction server's per-request model work).
func BenchmarkHAGInference(b *testing.B) {
	a := benchAssembled()
	h := benchHyper()
	model, _ := eval.TrainHAG(a, eval.HAGFull, h, 1)
	sg := a.Graph.Sample(a.Nodes[0], graph.SampleOptions{Hops: 2, MaxNeighbors: 32})
	x := tensor.New(sg.NumNodes(), a.X.Cols)
	for i, n := range sg.Nodes {
		copy(x.Row(i), a.X.Row(int(n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gnn.Score(model, gnn.NewBatch(sg, x))
	}
}

// BenchmarkHAGTrainEpoch measures one full-graph training epoch.
func BenchmarkHAGTrainEpoch(b *testing.B) {
	a := benchAssembled()
	h := benchHyper()
	batch := a.FullBatch()
	m := eval.NewHAG(eval.HAGFull, hagConfig(h, batch.X.Cols, a.Graph.NumEdgeTypes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gnn.Train(m, batch, a.TrainIdx, a.Labels, gnn.TrainConfig{Epochs: 1, LR: h.LR, Seed: 1})
	}
}

// BenchmarkFeatureVector measures one cold feature-vector computation.
func BenchmarkFeatureVector(b *testing.B) {
	a := benchAssembled()
	u := a.Data.Users[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Feat.Vector(u.ID, u.AppTime.Add(24*time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBDTFit measures the boosted-tree baseline fit.
func BenchmarkGBDTFit(b *testing.B) {
	a := benchAssembled()
	x := a.FeatureRows(a.TrainIdx)
	y := a.LabelsAt(a.TrainIdx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf := &baselines.GBDT{Trees: 30, Balance: true, Seed: 1}
		clf.Fit(x, y)
	}
}

// BenchmarkMatMul measures the dense kernel under the GNN's typical
// shape (N×F by F×H).
func BenchmarkMatMul(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.RandNormal(2000, 26, 1, rng)
	w := tensor.RandNormal(26, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatMul(w)
	}
}

// BenchmarkScoreEveryoneNaive re-scores every user of the BN the way the
// serving path would if asked one user at a time: extract that user's
// uncapped 2-hop computation subgraph, gather its features, compile a
// batch, run one forward. This is the pre-sweep full-graph re-score
// baseline that BenchmarkFullGraphSweep replaces; the gnn full-graph
// tests pin the two paths to per-node agreement within 1e-12.
func BenchmarkScoreEveryoneNaive(b *testing.B) {
	a := benchAssembled()
	m := eval.NewHAG(eval.HAGFull, hagConfig(benchHyper(), a.X.Cols, a.Graph.NumEdgeTypes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range a.Nodes {
			sg := graph.SampleView(a.Graph, u, graph.SampleOptions{Hops: 2})
			x := tensor.New(sg.NumNodes(), a.X.Cols)
			for j, n := range sg.Nodes {
				copy(x.Row(j), a.X.Row(int(n)))
			}
			batch := gnn.NewBatch(sg, x)
			gnn.Score(m, batch)
			batch.Release()
		}
	}
	b.ReportMetric(float64(len(a.Nodes)), "nodes/sweep")
}

// BenchmarkFullGraphSweep re-scores every user through one full-graph
// forward (gnn.Scores): the snapshot is exported once, and each layer
// runs for all nodes, split into row ranges across the cores, before the
// next. Compare ns/op against BenchmarkScoreEveryoneNaive — the forward
// shares each layer's work across all nodes instead of recomputing
// overlapping neighborhoods per user.
func BenchmarkFullGraphSweep(b *testing.B) {
	a := benchAssembled()
	m := eval.NewHAG(eval.HAGFull, hagConfig(benchHyper(), a.X.Cols, a.Graph.NumEdgeTypes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := a.FullBatch()
		gnn.Scores(m, batch)
		batch.Release()
	}
	b.ReportMetric(float64(len(a.Nodes)), "nodes/sweep")
}
