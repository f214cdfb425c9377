package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"turbo/internal/autodiff"
	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/datagen"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/tensor"
)

// servingWorld is a BN server and feature service loaded with the world
// the repo's benchmark serves (benchmark/world.go's W1k: datagen.Tiny
// with 1,000 users over 60 days, 4–8 sessions), where a 2-hop sample is
// ≈170 nodes and ≈8k directed typed edges over 10 edge types. Tests only
// read it; each builds its own PredictionServer.
type servingWorld struct {
	bn    *BNServer
	feats *feature.Service
	users []behavior.UserID
	dim   int
	at    time.Time
}

var (
	servingOnce sync.Once
	serving     *servingWorld
)

func loadServingWorld(tb testing.TB) *servingWorld {
	tb.Helper()
	servingOnce.Do(func() {
		cfg := datagen.Tiny()
		cfg.Users = 1000
		cfg.Duration = 60 * 24 * time.Hour
		cfg.SessionsNormalMin, cfg.SessionsNormalMax = 4, 8
		cfg.SessionsFraudMin, cfg.SessionsFraudMax = 4, 8
		cfg.Seed = 1
		data := datagen.Generate(cfg)
		bnServer, err := NewBNServer(bn.Config{}, data.Start)
		if err != nil {
			tb.Fatal(err)
		}
		bnServer.IngestBatch(data.Logs)
		feats := feature.NewService(feature.Config{}, bnServer.Store())
		w := &servingWorld{bn: bnServer, feats: feats, at: data.End.Add(3 * time.Hour)}
		for i := range data.Users {
			u := &data.Users[i]
			if err := feats.PutProfile(u.ID, u.Features()); err != nil {
				tb.Fatal(err)
			}
			bnServer.RegisterTransaction(u.ID)
			w.users = append(w.users, u.ID)
			w.dim = len(u.Features()) + feature.NumStatFeatures()
		}
		bnServer.Advance(data.End.Add(2 * time.Hour))
		serving = w
	})
	if serving == nil {
		tb.Fatal("serving world failed to load")
	}
	return serving
}

// servingModel is HAG-full at the widths the benchmark trains
// (eval.DefaultHyper); parity and cost do not depend on the weights.
func (w *servingWorld) servingModel() *hag.HAG {
	return hag.New(hag.Config{InDim: w.dim, NumEdgeTypes: behavior.NumTypes, Hidden: []int{32, 16}, AttHidden: 16, MLPHidden: 16, Seed: 1})
}

// features fetches the rows of sg's nodes the way the fan-out does.
func (w *servingWorld) features(tb testing.TB, sg *graph.Subgraph) *tensor.Matrix {
	tb.Helper()
	x := tensor.New(sg.NumNodes(), w.dim)
	for i, n := range sg.Nodes {
		v, err := w.feats.VectorCtx(context.Background(), behavior.UserID(n), w.at)
		if err != nil {
			tb.Fatal(err)
		}
		copy(x.Row(i), v)
	}
	return x
}

// sevenVariants builds every model variant at the given depth.
func sevenVariants(dim, types int, hidden []int) []gnn.Model {
	gc := gnn.Config{InDim: dim, Hidden: hidden, MLPHidden: 4, Seed: 3}
	hc := hag.Config{InDim: dim, NumEdgeTypes: types, Hidden: hidden, AttHidden: 5, MLPHidden: 4, Seed: 3}
	sao, cfo, both := hc, hc, hc
	sao.DisableSAOGate = true
	cfo.DisableCFO = true
	both.DisableSAOGate, both.DisableCFO = true, true
	return []gnn.Model{
		gnn.NewGCN(gc), gnn.NewGraphSAGE(gc), gnn.NewGAT(gc),
		hag.New(hc), hag.New(sao), hag.New(cfo), hag.New(both),
	}
}

// targetLogit64 is node 0's logit on the path gnn.Score takes.
func targetLogit64(m gnn.Model, b *gnn.Batch) float64 {
	f := gnn.AcquireFwd()
	defer gnn.ReleaseFwd(f)
	if ti, ok := m.(gnn.TargetInferer); ok {
		return ti.InferTarget(f, b, 0)
	}
	return m.(gnn.Inferer).Infer(f, b).Data[0]
}

// targetLogit32 is node 0's logit on the path gnn.Score32 takes.
func targetLogit32(m gnn.Model, b *gnn.Batch) float32 {
	f := gnn.AcquireFwd32()
	defer gnn.ReleaseFwd32(f)
	if ti, ok := m.(gnn.TargetInferer32); ok {
		return ti.InferTarget32(f, b, 0)
	}
	return m.(gnn.Inferer32).Infer32(f, b).Data[0]
}

// targetRowTol bounds a float32 target-row forward against the full
// Infer32, relative to the logit above 1: the two run the same row
// through different tile shapes.
const targetRowTol = 1e-5

// checkCone asserts the differential contract on one (model, target):
// the float64 target logit is bitwise the same from the tape, from Infer
// and from the target driver, on the full sample and on the sample cut
// for the model's depth; the float32 one is bitwise the same on both
// samples (for the variants with a float32 target driver) and within
// targetRowTol of Infer32.
func checkCone(t *testing.T, m gnn.Model, full, cut *graph.Subgraph, x *tensor.Matrix) {
	t.Helper()
	bFull, bCut := gnn.NewBatch(full, x), gnn.NewBatch(cut, x)
	want := m.Forward(autodiff.NewTape(), bFull, nil).Value.Data[0]
	f := gnn.AcquireFwd()
	inferRow := m.(gnn.Inferer).Infer(f, bFull).Data[0]
	inferCutRow := m.(gnn.Inferer).Infer(f, bCut).Data[0]
	gnn.ReleaseFwd(f)
	for name, got := range map[string]float64{
		"Infer row 0":             inferRow,
		"Infer row 0, cut sample": inferCutRow,
		"target driver":           targetLogit64(m, bFull),
		"target driver, cut":      targetLogit64(m, bCut),
		"tape, cut sample":        m.Forward(autodiff.NewTape(), bCut, nil).Value.Data[0],
	} {
		if got != want {
			t.Fatalf("%s: %s logit %v, tape %v (Δ %g): float64 paths must agree bitwise", m.Name(), name, got, want, got-want)
		}
	}
	l32Full, l32Cut := targetLogit32(m, bFull), targetLogit32(m, bCut)
	f32 := gnn.AcquireFwd32()
	all := m.(gnn.Inferer32).Infer32(f32, bFull).Data[0]
	gnn.ReleaseFwd32(f32)
	tol := targetRowTol * math.Max(1, math.Abs(float64(all)))
	if _, cone := m.(gnn.TargetInferer32); cone && l32Full != l32Cut {
		t.Fatalf("%s: float32 target logit %v on the full sample, %v on the cut one", m.Name(), l32Full, l32Cut)
	}
	// GAT has no target driver: its all-rows forward runs one vectorized
	// exp over every edge, and an edge's lane depends on how many edges
	// precede it.
	for name, got := range map[string]float32{"full": l32Full, "cut": l32Cut} {
		if d := math.Abs(float64(got) - float64(all)); d > tol {
			t.Fatalf("%s: float32 target logit on the %s sample %v vs Infer32 row 0 %v (|Δ| %g > %g)", m.Name(), name, got, all, d, tol)
		}
	}
}

// heteroGraph is a random graph over several edge types, dense enough
// that a cap of three neighbors per type truncates most rows.
func heteroGraph(seed uint64, nodes, edges, types int) *graph.Graph {
	rng := tensor.NewRNG(seed)
	g := graph.New(types)
	exp := t0.Add(1000 * time.Hour)
	for i := 0; i < edges; i++ {
		u, v := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
		if u != v {
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(types)), u, v, rng.Float64()+0.05, exp)
		}
	}
	return g
}

// reentrant reports whether some node the sampler labeled hop 2 is an
// in-neighbor of the target: the case a cut by Subgraph.Hops gets wrong.
func reentrant(sg *graph.Subgraph) bool {
	for _, es := range sg.TypedEdges {
		for _, e := range es {
			if e.Dst == 0 && sg.Hops[e.Src] >= 2 {
				return true
			}
		}
	}
	return false
}

// TestConeParity is the differential test of the computation cone: all
// seven model variants, random heterogeneous graphs and the serving-
// shaped world, each target scored on the full sample and on the sample
// cut for the model.
func TestConeParity(t *testing.T) {
	const types, dim = 4, 6
	sample := graph.SampleOptions{Hops: 2, MaxNeighbors: 3}

	t.Run("random graphs", func(t *testing.T) {
		models := sevenVariants(dim, types, []int{8, 6})
		sawReentrant := false
		for seed := uint64(1); seed <= 4; seed++ {
			snap := heteroGraph(seed, 30, 260, types).Snapshot()
			rng := tensor.NewRNG(seed + 100)
			for _, u := range snap.Nodes()[:12] {
				full := snap.Sample(u, sample)
				cutOpts := sample
				cutOpts.Layers = 2
				cut := snap.Sample(u, cutOpts)
				if cut.NumEdges() >= full.NumEdges() && full.NumNodes() > 8 {
					t.Fatalf("seed %d node %d: cut kept %d of %d edges", seed, u, cut.NumEdges(), full.NumEdges())
				}
				sawReentrant = sawReentrant || reentrant(full)
				x := tensor.RandNormal(full.NumNodes(), dim, 1, rng)
				for _, m := range models {
					checkCone(t, m, full, cut, x)
				}
			}
		}
		if !sawReentrant {
			t.Fatal("no target had an over-cap neighbor re-enter at hop 2; the graphs no longer exercise the trap")
		}
	})

	// The trap, built by hand: target 0 has four type-0 neighbors under a
	// cap of three, and node 4 re-enters at hop 2 through node 1.
	t.Run("over-cap neighbor re-enters at hop 2", func(t *testing.T) {
		g := graph.New(types)
		exp := t0.Add(1000 * time.Hour)
		for v, w := range map[graph.NodeID]float64{1: 4, 2: 3, 3: 2, 4: 1} {
			_ = g.AddEdgeWeight(0, 0, v, w, exp)
		}
		_ = g.AddEdgeWeight(1, 1, 4, 1, exp)
		_ = g.AddEdgeWeight(2, 2, 5, 1, exp)
		_ = g.AddEdgeWeight(0, 5, 4, 1, exp)
		snap := g.Snapshot()
		full := snap.Sample(0, sample)
		if !reentrant(full) {
			t.Fatal("node 4 did not re-enter at hop 2")
		}
		cutOpts := sample
		cutOpts.Layers = 2
		x := tensor.RandNormal(full.NumNodes(), dim, 1, tensor.NewRNG(9))
		for _, m := range sevenVariants(dim, types, []int{8, 6}) {
			checkCone(t, m, full, snap.Sample(0, cutOpts), x)
		}
	})

	// A 3-layer model reads every row of a 2-hop sample's layer 1, so
	// its cut drops nothing; the cone forward still skips layers 2 and 3
	// of the far rows.
	t.Run("3 layers over a 2-hop sample", func(t *testing.T) {
		snap := heteroGraph(7, 30, 260, types).Snapshot()
		models := sevenVariants(dim, types, []int{8, 6, 5})
		rng := tensor.NewRNG(77)
		for _, u := range snap.Nodes()[:8] {
			full := snap.Sample(u, sample)
			cutOpts := sample
			cutOpts.Layers = 3
			cut := snap.Sample(u, cutOpts)
			if cut.NumEdges() != full.NumEdges() {
				t.Fatalf("node %d: 3-layer cut kept %d of %d edges, want all", u, cut.NumEdges(), full.NumEdges())
			}
			x := tensor.RandNormal(full.NumNodes(), dim, 1, rng)
			for _, m := range models {
				if gnn.Depth(m) != 3 {
					t.Fatalf("%s reports depth %d, want 3", m.Name(), gnn.Depth(m))
				}
				checkCone(t, m, full, cut, x)
			}
		}
	})

	// A sample cut for two layers must not be scored by a 3-layer model:
	// the scoring entry points refuse, and the audit degrades down the
	// ladder instead of serving a score read from dead rows.
	t.Run("depth-2 sample under a 3-layer model", func(t *testing.T) {
		snap := heteroGraph(7, 30, 260, types).Snapshot()
		cutOpts := sample
		cutOpts.Layers = 2
		cut := snap.Sample(snap.Nodes()[0], cutOpts)
		x := tensor.RandNormal(cut.NumNodes(), dim, 1, tensor.NewRNG(5))
		for _, m := range sevenVariants(dim, types, []int{8, 6, 5}) {
			b := gnn.NewBatch(cut, x)
			if _, err := gnn.ScoreCtx(context.Background(), m, b); !errors.Is(err, gnn.ErrShallowSample) {
				t.Fatalf("%s: ScoreCtx on a shallow sample returned %v, want ErrShallowSample", m.Name(), err)
			}
			if _, ok := gnn.Score32(m, b); ok {
				t.Fatalf("%s: Score32 scored a shallow sample", m.Name())
			}
		}

		bnServer, pred := newFanoutStack(t, 6)
		deep := gnn.NewGraphSAGE(gnn.Config{InDim: 2 + feature.NumStatFeatures(), Hidden: []int{4, 4, 4}, MLPHidden: 2, Seed: 1})
		pred.SwapModel(deep, nil)
		pred.Fallback = constFallback(0.9)
		at := t0.Add(3 * time.Hour)
		if p, err := pred.Predict(1, at); err != nil || p.ServedBy != TierFull {
			t.Fatalf("3-layer model on its own cut: %+v, %v; want the full tier", p, err)
		}
		bnServer.SetViewWrapper(func(v graph.GraphView) graph.GraphView { return shallowView{v} })
		p, err := pred.Predict(1, at)
		if err != nil || p.ServedBy != TierFallback || !p.Degraded || p.Probability != 0.9 {
			t.Fatalf("shallow sample was served as %+v, %v; want the fallback tier", p, err)
		}
	})

	// The serving shape: HAG-full over the benchmark's world. Logs how
	// much of the sample the cone is.
	t.Run("serving-shaped world", func(t *testing.T) {
		w := loadServingWorld(t)
		model := w.servingModel()
		var nodes, fullEdges, liveEdges, coneRows float64
		const audits, types = 40.0, float64(behavior.NumTypes)
		for i := 0; i < audits; i++ {
			u := w.users[i*len(w.users)/audits]
			full, cut := w.bn.sample(u, 0), w.bn.sample(u, gnn.Depth(model))
			x := w.features(t, full)
			checkCone(t, model, full, cut, x)
			nodes += float64(full.NumNodes())
			fullEdges += float64(full.NumEdges())
			liveEdges += float64(cut.NumEdges())
			coneRows += float64(hiddenConeRows(gnn.NewBatch(cut, x), gnn.Depth(model)))
		}
		share := liveEdges / fullEdges
		t.Logf("per audit: %.1f nodes, %.0f induced edges, %.0f live (%.1f%%); hidden layers compute %.1f of %.0f (row, type) pairs",
			nodes/audits, fullEdges/audits, liveEdges/audits, 100*share, coneRows/audits, nodes/audits*types)
		if share > 0.35 || coneRows/audits > 0.1*nodes/audits*types {
			t.Fatalf("cone is not small on the serving shape: live share %.2f, %.1f rows per audit", share, coneRows/audits)
		}
	})
}

// hiddenConeRows counts the rows the hidden layers of a layers-deep
// per-type model compute for node 0 of b: Σ over edge types of the rows
// within layers−1 in-hops on that type's aggregation, per hidden layer.
func hiddenConeRows(b *gnn.Batch, layers int) int {
	n := 0
	for r := 0; r < b.NumEdgeTypes(); r++ {
		c := gnn.NewCone(b.TypedMeanCSR(r), 0, layers-1)
		for l := 0; l < layers-1; l++ {
			n += len(c.Rows(layers - 1 - l))
		}
	}
	return n
}

// shallowView cuts every sample for two layers, whatever the caller
// asked for.
type shallowView struct{ graph.GraphView }

func (v shallowView) Sample(target graph.NodeID, opts graph.SampleOptions) *graph.Subgraph {
	opts.Layers = 2
	return v.GraphView.Sample(target, opts)
}

// TestAuditPoolsSteadyState audits 1,000 distinct users of the serving-
// shaped world. Sample sizes, and with them every matrix's row count,
// differ from user to user, so a pool per exact shape never hits; the
// capacity-class pools must serve users they have not seen from what
// earlier audits returned.
func TestAuditPoolsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	w := loadServingWorld(t)
	pred := NewPredictionServer(w.bn, w.feats, w.servingModel(), nil, 0.5)
	if _, ok := pred.ConfigureF32(func(gnn.Model) (float64, bool) { return 0, true }); !ok {
		t.Fatal("float32 scoring did not enable")
	}
	audit := func(users []behavior.UserID) error {
		for _, u := range users {
			if p, err := pred.Predict(u, w.at); err != nil || p.ServedBy != TierFull {
				return fmt.Errorf("user %d: %+v, %v", u, p, err)
			}
		}
		return nil
	}
	if err := audit(w.users[:400]); err != nil {
		t.Fatal(err)
	}
	// A collection empties idle sync.Pools, which is not what is under
	// test: hold it off, refill what the last one took, then count. The
	// refill runs on every P at once. A pool keeps a returned buffer in
	// the returning P's private slot, out of the other Ps' reach, so a
	// lone goroutine the scheduler moves to a P whose pools it never
	// filled would miss on every class it borrows, as a server's
	// concurrent audits never do.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	refill, procs := w.users[400:700], runtime.GOMAXPROCS(0)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = audit(refill[p*len(refill)/procs : (p+1)*len(refill)/procs])
		}(p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	before := tensor.BackingAllocs()
	if err := audit(w.users[700:]); err != nil {
		t.Fatal(err)
	}
	// An audit borrows some 60 buffers. The few that are allowed to be
	// new are a larger sample than any before it reaching a capacity
	// class for the first time.
	if grew := tensor.BackingAllocs() - before; grew > 30 {
		t.Fatalf("300 audits of users not seen before allocated %d new pooled buffers in the steady state", grew)
	}
}

// TestConeSampleAllocs pins what a cone sample allocates on the serving-
// shaped world: its result (the Subgraph, Nodes, Hops, TypedEdges and
// one edge list per type with a live edge) and the BN server's two
// sampling closures. The walk's own state, per-row tables included, is
// pooled. Measured: 16 allocations for a 163-node sample with live edges
// on all ten types.
func TestConeSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	w := loadServingWorld(t)
	for _, i := range []int{0, 7, 100, 500} {
		u := w.users[i]
		sg := w.bn.sample(u, 2)
		want := 6.0
		for _, es := range sg.TypedEdges {
			if len(es) > 0 {
				want++
			}
		}
		if got := testing.AllocsPerRun(100, func() { w.bn.sample(u, 2) }); got > want {
			t.Errorf("user %d (%d nodes): a cone sample made %v allocations, want at most %v", u, sg.NumNodes(), got, want)
		}
	}
}

// BenchmarkAuditHotPath measures the full serving path on the serving-
// shaped world (≈170 nodes / ≈8k induced edges / 10 edge types per
// audit), end to end and stage by stage, drawing the sample in full
// (layers=0) and cut for the model (layers=2). It reports the share of
// the induced edges the cut keeps and the (row, type) pairs the hidden
// layers compute.
func BenchmarkAuditHotPath(b *testing.B) {
	w := loadServingWorld(b)
	model := w.servingModel()
	pred := NewPredictionServer(w.bn, w.feats, model, nil, 0.5)
	pred.ConfigureF32(func(gnn.Model) (float64, bool) { return 0, true })
	ctx := context.Background()
	user := func(i int) behavior.UserID { return w.users[i%len(w.users)] }

	b.Run("audit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pred.PredictCtx(ctx, user(i), w.at); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, layers := range []int{0, gnn.Depth(model)} {
		// A fixed set of inputs per depth, so compile and score time the
		// same samples the sample stage draws.
		const inputs = 64
		sgs := make([]*graph.Subgraph, inputs)
		xs := make([]*tensor.Matrix, inputs)
		var edges, induced, rows float64
		for i := range sgs {
			sgs[i] = w.bn.sample(user(i*7), layers)
			xs[i] = w.features(b, sgs[i])
			edges += float64(sgs[i].NumEdges())
			induced += float64(w.bn.sample(user(i*7), 0).NumEdges())
			rows += float64(hiddenConeRows(gnn.NewBatch(sgs[i], xs[i]), gnn.Depth(model)))
		}
		compile := func(i int) *gnn.Batch {
			batch := gnn.NewBatch(sgs[i%inputs], xs[i%inputs])
			for r := 0; r < batch.NumEdgeTypes(); r++ {
				batch.CSR32For(batch.TypedMeanCSR(r))
			}
			batch.X32()
			return batch
		}
		b.Run(fmt.Sprintf("layers=%d/sample", layers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.bn.sample(user(i*7), layers)
			}
			b.ReportMetric(edges/induced, "live-edge-share")
			b.ReportMetric(edges/inputs, "edges/audit")
		})
		b.Run(fmt.Sprintf("layers=%d/features", layers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, err := pred.gatherFeatures(ctx, w.feats, nil, sgs[i%inputs], user(i%inputs*7), w.at)
				if err != nil {
					b.Fatal(err)
				}
				tensor.PutMatrix(x)
			}
		})
		b.Run(fmt.Sprintf("layers=%d/compile", layers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compile(i).Release()
			}
		})
		b.Run(fmt.Sprintf("layers=%d/score", layers), func(b *testing.B) {
			batches := make([]*gnn.Batch, inputs)
			for i := range batches {
				batches[i] = compile(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := gnn.Score32(model, batches[i%inputs]); !ok {
					b.Fatal("float32 path refused the batch")
				}
			}
			b.ReportMetric(rows/inputs, "rows/audit")
		})
	}
}

// BenchmarkSnapshotPublish measures Graph.Snapshot() on the serving-
// shaped world: what each Advance tick pays to publish the epoch audits
// sample from, cap order included.
func BenchmarkSnapshotPublish(b *testing.B) {
	w := loadServingWorld(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.bn.g.Snapshot()
	}
}
