package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"turbo/internal/autodiff"
	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/datagen"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/nn"
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

// options are the sample options the world's BN server draws with.
func (w *servingWorld) options() graph.SampleOptions {
	return graph.SampleOptions{Hops: w.bn.SampleHops, MaxNeighbors: w.bn.MaxNeighbors, Filter: w.bn.TxnFilter()}
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

// fittedNormalizer z-scores each feature column by its mean and
// deviation over every user's row at w.at and clamps to ±10σ into a
// fresh slice: eval.Normalizer.Apply, which turbo-server and the
// benchmark pass to SetModel. The feature table calls it once per row
// and serving model, not once per audit. (eval imports this package, so
// the test cannot call it.)
func (w *servingWorld) fittedNormalizer(tb testing.TB) func([]float64) []float64 {
	tb.Helper()
	mean, std := make([]float64, w.dim), make([]float64, w.dim)
	rows := make([][]float64, len(w.users))
	for i, u := range w.users {
		v, err := w.feats.VectorCtx(context.Background(), u, w.at)
		if err != nil {
			tb.Fatal(err)
		}
		rows[i] = append([]float64(nil), v...)
		for j, x := range v {
			mean[j] += x / float64(len(w.users))
		}
	}
	for _, v := range rows {
		for j, x := range v {
			std[j] += (x - mean[j]) * (x - mean[j]) / float64(len(rows))
		}
	}
	for j := range std {
		if std[j] = math.Sqrt(std[j]); std[j] == 0 {
			std[j] = 1
		}
	}
	return func(vec []float64) []float64 {
		out := make([]float64, len(vec))
		for j, v := range vec {
			out[j] = tensor.Clamp((v-mean[j])/std[j], -10, 10)
		}
		return out
	}
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
	f := gnn.AcquireFwd[float64]()
	defer gnn.ReleaseFwd(f)
	return m.InferTarget(f, b, 0)
}

// targetLogit32 is node 0's logit on the path gnn.Score32 takes.
func targetLogit32(m gnn.Model, b *gnn.Batch) float32 {
	f := gnn.AcquireFwd[float32]()
	defer gnn.ReleaseFwd(f)
	return m.InferTarget32(f, b, 0)
}

// targetRowTol bounds a float32 target-row forward against the full
// Infer32, relative to the logit above 1: the two run the same row
// through different tile shapes.
const targetRowTol = 1e-5

// checkCone asserts the differential contract on one (model, target):
// the float64 target logit is bitwise the same from the tape, from Infer
// and from the target driver, on the full sample, on the sample cut for
// the model's depth and on direct, the batch the audit path compiles
// straight from the snapshot (SampleCone, its rows filled from x); the
// float32 one is bitwise the same on all three and within targetRowTol
// of Infer32. checkCone releases direct.
func checkCone(t *testing.T, m gnn.Model, full, cut *graph.Subgraph, direct *gnn.Batch, x *tensor.Matrix) {
	t.Helper()
	defer direct.Release()
	bFull, bCut := gnn.NewBatch(full, x), gnn.NewBatch(cut, x)
	want := m.Forward(autodiff.NewTape(), bFull, nil).Value.Data[0]
	f := gnn.AcquireFwd[float64]()
	inferRow := m.Infer(f, bFull).Data[0]
	inferCutRow := m.Infer(f, bCut).Data[0]
	gnn.ReleaseFwd(f)
	for name, got := range map[string]float64{
		"Infer row 0":             inferRow,
		"Infer row 0, cut sample": inferCutRow,
		"target driver":           targetLogit64(m, bFull),
		"target driver, cut":      targetLogit64(m, bCut),
		"tape, cut sample":        m.Forward(autodiff.NewTape(), bCut, nil).Value.Data[0],
		"target driver, direct":   targetLogit64(m, direct),
	} {
		if got != want {
			t.Fatalf("%s: %s logit %v, tape %v (Δ %g): float64 paths must agree bitwise", m.Name(), name, got, want, got-want)
		}
	}
	l32Full, l32Cut := targetLogit32(m, bFull), targetLogit32(m, bCut)
	f32 := gnn.AcquireFwd[float32]()
	all := m.Infer32(f32, bFull).Data[0]
	gnn.ReleaseFwd(f32)
	tol := targetRowTol * math.Max(1, math.Abs(float64(all)))
	if l32Full != l32Cut {
		t.Fatalf("%s: float32 target logit %v on the full sample, %v on the cut one", m.Name(), l32Full, l32Cut)
	}
	if l32 := targetLogit32(m, direct); l32 != l32Cut {
		t.Fatalf("%s: float32 target logit %v on the direct batch, %v on NewBatch over the cut sample", m.Name(), l32, l32Cut)
	}
	for name, got := range map[string]float32{"full": l32Full, "cut": l32Cut} {
		if d := math.Abs(float64(got) - float64(all)); d > tol {
			t.Fatalf("%s: float32 target logit on the %s sample %v vs Infer32 row 0 %v (|Δ| %g > %g)", m.Name(), name, got, all, d, tol)
		}
	}
}

// direct compiles target's cone for m straight from snap, as the audit
// path does, and fills its rows from x, whose rows follow the nodes of
// Snapshot.Sample under the same options.
func direct(t *testing.T, snap *graph.Snapshot, target graph.NodeID, opts graph.SampleOptions, m gnn.Model, x *tensor.Matrix) *gnn.Batch {
	t.Helper()
	b, nodes, _ := gnn.SampleCone(snap, target, opts, m)
	if nodes[0] != target || len(nodes) != x.Rows {
		t.Fatalf("SampleCone drew %d nodes from %d, the sample %d", len(nodes), nodes[0], x.Rows)
	}
	for i := range nodes {
		b.SetRow(i, x.Row(i))
	}
	return b
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

// trapGraph is the re-entry trap built by hand: target 0 has four type-0
// neighbors under a cap of three, and node 4 re-enters at hop 2 through
// node 1.
func trapGraph(types int) *graph.Graph {
	g := graph.New(types)
	exp := t0.Add(1000 * time.Hour)
	for v, w := range map[graph.NodeID]float64{1: 4, 2: 3, 3: 2, 4: 1} {
		_ = g.AddEdgeWeight(0, 0, v, w, exp)
	}
	_ = g.AddEdgeWeight(1, 1, 4, 1, exp)
	_ = g.AddEdgeWeight(2, 2, 5, 1, exp)
	_ = g.AddEdgeWeight(0, 5, 4, 1, exp)
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
					checkCone(t, m, full, cut, direct(t, snap, u, sample, m, x), x)
				}
			}
		}
		if !sawReentrant {
			t.Fatal("no target had an over-cap neighbor re-enter at hop 2; the graphs no longer exercise the trap")
		}
	})

	t.Run("over-cap neighbor re-enters at hop 2", func(t *testing.T) {
		snap := trapGraph(types).Snapshot()
		full := snap.Sample(0, sample)
		if !reentrant(full) {
			t.Fatal("node 4 did not re-enter at hop 2")
		}
		cutOpts := sample
		cutOpts.Layers = 2
		x := tensor.RandNormal(full.NumNodes(), dim, 1, tensor.NewRNG(9))
		for _, m := range sevenVariants(dim, types, []int{8, 6}) {
			checkCone(t, m, full, snap.Sample(0, cutOpts), direct(t, snap, 0, sample, m, x), x)
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
				checkCone(t, m, full, cut, direct(t, snap, u, sample, m, x), x)
			}
		}
	})

	// A sample cut for two layers must not be scored by a 3-layer model:
	// the scoring entry points refuse rather than read dead rows. An
	// audit cuts its sample for the model that scores it, so a 3-layer
	// model is served on the full tier.
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

		_, pred := newFanoutStack(t, 6)
		deep := gnn.NewGraphSAGE(gnn.Config{InDim: 2 + feature.NumStatFeatures(), Hidden: []int{4, 4, 4}, MLPHidden: 2, Seed: 1})
		pred.SwapModel(deep, nil)
		if p, err := pred.Predict(1, t0.Add(3*time.Hour)); err != nil || p.ServedBy != TierFull {
			t.Fatalf("3-layer model on its own cut: %+v, %v; want the full tier", p, err)
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
			checkCone(t, model, full, cut, direct(t, w.bn.Snapshot(), graph.NodeID(u), w.options(), model, x), x)
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

// aggProbe is a model that reads every aggregation the seven variants
// use, one stack each, so one SampleCone writes them all. It is compiled,
// never scored.
type aggProbe struct{ gnn.Specs }

func (*aggProbe) Name() string                { return "aggregation probe" }
func (*aggProbe) Parameters() []*nn.Parameter { return nil }
func (*aggProbe) Forward(*autodiff.Tape, *gnn.Batch, *tensor.RNG) *autodiff.Node {
	panic("aggProbe is never scored")
}

// newAggProbe returns a layers-deep probe over types edge types, with
// the aggregations it reads.
func newAggProbe(types, layers int) (*aggProbe, []gnn.Agg) {
	aggs := []gnn.Agg{gnn.MergedRW, gnn.MergedMean, gnn.MergedWeightedMean}
	for r := 0; r < types; r++ {
		aggs = append(aggs, gnn.TypedMean(r))
	}
	p := &aggProbe{}
	for _, a := range aggs {
		p.F64.Stacks = append(p.F64.Stacks, gnn.Stack[float64]{Agg: a, Widths: make([]int, layers+1)})
	}
	return p, aggs
}

// checkConeCSR asserts that the batch SampleCone writes for target holds
// bitwise the matrices NewBatch compiles over Snapshot.Sample cut to the
// same cone, and float32 mirrors that are float32 of them; and that it
// reports the sample's nodes and edge count.
func checkConeCSR(t *testing.T, snap *graph.Snapshot, target graph.NodeID, opts graph.SampleOptions, layers int) {
	t.Helper()
	probe, aggs := newAggProbe(snap.NumEdgeTypes(), layers)
	cutOpts := opts
	cutOpts.Layers = layers
	sg := snap.Sample(target, cutOpts)
	ref := gnn.NewBatch(sg, nil)
	b, nodes, edges := gnn.SampleCone(snap, target, opts, probe)
	defer b.Release()
	if !slices.Equal(nodes, sg.Nodes) || edges != sg.NumEdges() || b.NumNodes != sg.NumNodes() || b.Depth != layers {
		t.Fatalf("node %d: SampleCone drew %d nodes, %d edges, depth %d; the sample has %d nodes, %d edges",
			target, len(nodes), edges, b.Depth, sg.NumNodes(), sg.NumEdges())
	}
	for _, a := range aggs {
		want, got := ref.CSR(a), b.CSR(a)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) ||
			!slices.EqualFunc(got.Weights, want.Weights, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("node %d, aggregation %d: SampleCone's matrix differs from NewBatch's\n got %v %v %v\nwant %v %v %v",
				target, a, got.RowPtr, got.ColIdx, got.Weights, want.RowPtr, want.ColIdx, want.Weights)
		}
		q := b.CSR32For(got)
		if unsafe.SliceData(q.RowPtr) != unsafe.SliceData(got.RowPtr) || len(q.RowPtr) != len(got.RowPtr) ||
			unsafe.SliceData(q.ColIdx) != unsafe.SliceData(got.ColIdx) || len(q.ColIdx) != len(got.ColIdx) {
			t.Fatalf("node %d, aggregation %d: the mirror does not share the matrix's RowPtr and ColIdx", target, a)
		}
		for k, w := range got.Weights {
			if q.ColIdx[k] != got.ColIdx[k] || math.Float32bits(q.Weights[k]) != math.Float32bits(float32(w)) {
				t.Fatalf("node %d, aggregation %d, entry %d: mirror (%d, %v), want (%d, %v)", target, a, k, q.ColIdx[k], q.Weights[k], got.ColIdx[k], float32(w))
			}
		}
	}
}

// TestConeCSRMatchesNewBatch pins the one CSR writer: the matrices the
// snapshot walk writes for the audit path are the ones NewBatch builds
// over the sample, bitwise, for every aggregation the seven variants
// read: over the serving-shaped world, and over random heterogeneous
// graphs with over-cap rows and hop-2 re-entry, under a Filter that
// rejects nodes, with a masked type, and cut for three layers.
func TestConeCSRMatchesNewBatch(t *testing.T) {
	t.Run("serving-shaped world", func(t *testing.T) {
		w := loadServingWorld(t)
		for i := 0; i < 40; i++ {
			checkConeCSR(t, w.bn.Snapshot(), graph.NodeID(w.users[i*len(w.users)/40]), w.options(), 2)
		}
	})
	const types = 4
	base := graph.SampleOptions{Hops: 2, MaxNeighbors: 3}
	t.Run("over-cap neighbor re-enters at hop 2", func(t *testing.T) {
		snap := trapGraph(types).Snapshot()
		if !reentrant(snap.Sample(0, base)) {
			t.Fatal("node 4 did not re-enter at hop 2")
		}
		checkConeCSR(t, snap, 0, base, 2)
	})
	filtered, masked := base, base
	filtered.Filter = func(n graph.NodeID) bool { return n%5 != 2 }
	masked.Mask = graph.MaskEdgeType(1)
	for _, c := range []struct {
		name   string
		opts   graph.SampleOptions
		layers int
	}{{"random graphs", base, 2}, {"filter rejections", filtered, 2}, {"masked type", masked, 2}, {"three layers", base, 3}} {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				snap := heteroGraph(seed, 30, 260, types).Snapshot()
				for _, u := range snap.Nodes()[:12] {
					checkConeCSR(t, snap, u, c.opts, c.layers)
				}
			}
		})
	}
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
	// An audit's batch and forward scratch stay warm across audits and
	// borrow from the pools only to grow. The few buffers allowed to be
	// new are a larger sample than any before it reaching a capacity
	// class for the first time, or a P whose warm batch a migrated
	// goroutine left on another.
	if grew := tensor.BackingAllocs() - before; grew > 15 {
		t.Fatalf("300 audits of users not seen before allocated %d new pooled buffers in the steady state", grew)
	}
	// What is left allocates per audit is bookkeeping: the trace, the
	// sample's filter, the gather's retry closures. Measured: 15.
	if a := testing.AllocsPerRun(50, func() { _ = audit(w.users[700:701]) }); a > 20 {
		t.Fatalf("a full-path audit made %v allocations, want at most 20", a)
	}
}

// TestConeSampleAllocs pins what a cone sample allocates on the serving-
// shaped world. The audit's, drawn straight into a batch off the
// snapshot, allocates only the BN server's eligibility filter and its
// method value: the batch, its matrices and the walk's state are
// pooled. A Subgraph cone sample (BNServer.sample, what Sample draws
// cut) allocates its result as well: the Subgraph, Nodes, Hops,
// TypedEdges and one edge list per type with a live edge.
// Measured: 2, and 16 for a 163-node sample with live edges on all ten
// types.
func TestConeSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	w := loadServingWorld(t)
	model := w.servingModel()
	pred := NewPredictionServer(w.bn, w.feats, model, nil, 0.5)
	ctx := context.Background()
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
		got := testing.AllocsPerRun(100, func() {
			b, _, _, err := pred.sampleBatch(ctx, u, model)
			if err != nil {
				t.Fatal(err)
			}
			b.Release()
		})
		if got > 2 {
			t.Errorf("user %d (%d nodes): the audit's sample made %v allocations, want at most 2", u, sg.NumNodes(), got)
		}
	}
}

// TestNormalizedAuditAllocs pins what the feature table's row memo
// saves: on the serving-shaped world, a warm full-path audit behind a
// fitted normalizer allocates no more than the same audit with none,
// because every gathered row hands over its memoized normalized vector.
func TestNormalizedAuditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	w := loadServingWorld(t)
	model := w.servingModel()
	ctx := context.Background()
	users := w.users[:8]
	perAudit := func(normalizer func([]float64) []float64) float64 {
		pred := NewPredictionServer(w.bn, w.feats, model, normalizer, 0.5)
		pred.ConfigureF32(func(gnn.Model) (float64, bool) { return 0, true })
		audit := func() {
			for _, u := range users {
				if _, err := pred.PredictCtx(ctx, u, w.at); err != nil {
					t.Fatal(err)
				}
			}
		}
		audit() // warm: rows built, memos filled, pools primed
		least := math.Inf(1)
		for try := 0; try < 3; try++ { // a GC mid-run empties the pools
			least = min(least, testing.AllocsPerRun(20, audit))
		}
		return least / float64(len(users))
	}
	plain, normed := perAudit(nil), perAudit(w.fittedNormalizer(t))
	t.Logf("allocations per warm audit: %v with no normalizer, %v with a fitted one", plain, normed)
	if normed > plain {
		t.Fatalf("a warm normalized audit made %v allocations, a nil-normalizer one %v", normed, plain)
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
	// What a deployment serves: the same audit behind a fitted
	// normalizer, whose output the feature table memoizes per row.
	normed := NewPredictionServer(w.bn, w.feats, model, w.fittedNormalizer(b), 0.5)
	normed.ConfigureF32(func(gnn.Model) (float64, bool) { return 0, true })
	norm := normed.Serving().Norm
	b.Run("audit/normalized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := normed.PredictCtx(ctx, user(i), w.at); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same deployment without the float32 gate: every audit scores
	// in float64. Beside audit/normalized it is what float32 buys.
	normed64 := NewPredictionServer(w.bn, w.feats, model, w.fittedNormalizer(b), 0.5)
	b.Run("audit/normalized/f64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := normed64.PredictCtx(ctx, user(i), w.at); err != nil {
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
		if layers == gnn.Depth(model) {
			// What an audit runs: the snapshot walk writing the batch.
			b.Run(fmt.Sprintf("layers=%d/sample+compile", layers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					batch, _, _, err := pred.sampleBatch(ctx, user(i*7), model)
					if err != nil {
						b.Fatal(err)
					}
					batch.Release()
				}
			})
		}
		// An audit's gather, through the serving normalizer.
		b.Run(fmt.Sprintf("layers=%d/features", layers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sg := sgs[i%inputs]
				batch := gnn.NewBatch(sg, nil)
				if err := pred.gatherFeatures(ctx, w.feats, norm, sg.Nodes, batch, user(i%inputs*7), w.at); err != nil {
					b.Fatal(err)
				}
				batch.Release()
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
		// The same batches through the float64 forward (gnn.Score).
		b.Run(fmt.Sprintf("layers=%d/score64", layers), func(b *testing.B) {
			batches := make([]*gnn.Batch, inputs)
			for i := range batches {
				batches[i] = compile(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gnn.Score(model, batches[i%inputs])
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
