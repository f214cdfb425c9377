package gnn_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"turbo/internal/autodiff"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

var never = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// fullWorldSize is large enough that every step of Infer — projection,
// layer, the last layer with the readout — passes the tensor pool's
// threshold and runs as four tiles, so the GOMAXPROCS sweep below
// exercises the split.
const fullWorldSize = 400

// testWorld builds a live multigraph (kept mutable for the isolation
// test), freezes a snapshot, and compiles the full-graph batch whose row
// i is node i — the same shape the eval harness and the BN server score.
func testWorld(seed uint64, n, types, dim int) (*graph.Graph, *graph.Snapshot, *gnn.Batch, *tensor.Matrix, []graph.NodeID) {
	rng := tensor.NewRNG(seed | 1)
	g := graph.New(types)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i)) // isolated nodes stay scoreable
	}
	for e := 0; e < 4*n; e++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(types)),
			graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
	}
	snap := g.Snapshot()
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	x := tensor.RandNormal(n, dim, 1, rng)
	b := gnn.NewBatch(graph.FullSubgraph(snap, graph.FullOptions{Nodes: nodes}), x)
	return g, snap, b, x, nodes
}

// testModels returns all seven variants: the three baselines plus the
// four HAG ablations.
func testModels(dim, types int) []gnn.Model {
	cfg := gnn.Config{InDim: dim, Hidden: []int{8, 6}, MLPHidden: 4, Seed: 7}
	ms := []gnn.Model{gnn.NewGCN(cfg), gnn.NewGraphSAGE(cfg), gnn.NewGAT(cfg)}
	mk := func(sao, cfo bool) gnn.Model {
		return hag.New(hag.Config{
			InDim: dim, NumEdgeTypes: types, Hidden: []int{8, 6},
			AttHidden: 4, MLPHidden: 4, Seed: 7,
			DisableSAOGate: sao, DisableCFO: cfo,
		})
	}
	return append(ms, mk(false, false), mk(true, false), mk(false, true), mk(true, true))
}

// eachProcs runs fn at GOMAXPROCS 1, 2, 3 and 7, so each step of Infer
// runs on up to that many loops, and restores the setting afterwards.
func eachProcs(fn func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

// infer32 returns a copy of the float32 logits of every node.
func infer32(m gnn.Model, b *gnn.Batch) []float32 {
	f := gnn.AcquireFwd[float32]()
	defer gnn.ReleaseFwd(f)
	return slices.Clone(m.Infer32(f, b).Data[:b.NumNodes])
}

// TestSweepMatchesBatchScores pins the full-graph forward's logits to be
// independent of how Infer splits its rows, for all seven variants: at
// float64 gnn.Scores equals the tape forward bitwise at every
// GOMAXPROCS, and at float32 every split reproduces the one-range
// logits bit for bit.
func TestSweepMatchesBatchScores(t *testing.T) {
	_, _, b, _, _ := testWorld(3, fullWorldSize, 3, 6)
	for _, m := range testModels(6, 3) {
		want := gnn.TapeScores(m, b)
		var want32 []float32
		eachProcs(func(procs int) {
			got := gnn.Scores(m, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s GOMAXPROCS=%d node %d: Infer %v, tape %v", m.Name(), procs, i, got[i], want[i])
				}
			}
			got32 := infer32(m, b)
			if want32 == nil {
				want32 = got32
			}
			for i := range want32 {
				if got32[i] != want32[i] {
					t.Fatalf("%s GOMAXPROCS=%d node %d: Infer32 %v, one range %v", m.Name(), procs, i, got32[i], want32[i])
				}
			}
		})
	}
}

// TestFullBatchConcurrentScores scores one fresh FullBatch from eight
// goroutines at once, with full HAG (one typed matrix per stack) and
// GAT (a projection step): whichever forward takes the batch's lock
// first compiles every matrix its model reads, in parallel, while the
// others wait. Every result is bitwise the tape, and the batch holds
// each matrix once: as many as the tape forward over the edge-list
// reference compiles. Run under -race.
func TestFullBatchConcurrentScores(t *testing.T) {
	_, snap, _, x, nodes := testWorld(23, fullWorldSize, 3, 6)
	opts := graph.FullOptions{Nodes: nodes}
	models := testModels(6, 3)
	for _, m := range []gnn.Model{models[3], models[2]} {
		ref := gnn.NewBatch(graph.FullSubgraph(snap, opts), x)
		want := gnn.TapeScores(m, ref)
		b := gnn.FullBatch(snap, x, opts)
		got := make([][]float64, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = gnn.Scores(m, b)
			}()
		}
		wg.Wait()
		for g := range got {
			for i := range want {
				if got[g][i] != want[i] {
					t.Fatalf("%s goroutine %d node %d: Scores %v, tape %v", m.Name(), g, i, got[g][i], want[i])
				}
			}
		}
		if n, distinct := len(b.Matrices()), len(ref.Matrices()); n != distinct {
			t.Fatalf("%s: the batch compiled %d matrices, the model reads %d", m.Name(), n, distinct)
		}
		b.Release()
	}
}

// TestSweepMatchesPerNodeScore pins the full-graph forward to the online
// serving path — a per-node gnn.Score over a sampled computation
// subgraph — within 1e-12 at every node for all seven variants, with
// Infer's tiles spread across GOMAXPROCS loops. The subgraph radius
// equals the model depth, so the two paths compute the same function;
// only subgraph-local index order (which permutes within-row summation)
// separates them.
func TestSweepMatchesPerNodeScore(t *testing.T) {
	_, snap, b, x, nodes := testWorld(5, fullWorldSize, 3, 6)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(7))
	for _, m := range testModels(6, 3) {
		got := gnn.Scores(m, b)
		for i, u := range nodes {
			sg := graph.SampleView(snap, u, graph.SampleOptions{Hops: 2})
			xs := tensor.New(len(sg.Nodes), x.Cols)
			for li, id := range sg.Nodes {
				copy(xs.Row(li), x.Row(int(id)))
			}
			want := gnn.Score(m, gnn.NewBatch(sg, xs))
			if math.Abs(got[i]-want) > 1e-12 {
				t.Fatalf("%s node %d: Infer %v, per-node %v (diff %g)",
					m.Name(), u, got[i], want, math.Abs(got[i]-want))
			}
		}
	}
}

// TestSweepSnapshotIsolation runs full-graph forwards over a compiled
// batch while writers mutate the live graph concurrently: the batch was
// compiled from an immutable snapshot, so every forward must reproduce
// the pre-mutation scores bitwise. Run under -race this also proves the
// forward shares no state with the ingest path.
func TestSweepSnapshotIsolation(t *testing.T) {
	g, _, b, _, _ := testWorld(7, fullWorldSize, 3, 6)
	models := testModels(6, 3)
	baseline := make([][]float64, len(models))
	for k, m := range models {
		baseline[k] = gnn.Scores(m, b)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := tensor.NewRNG(99)
		for {
			select {
			case <-done:
				return
			default:
			}
			u := rng.Intn(fullWorldSize + 20)
			v := rng.Intn(fullWorldSize + 20)
			if u == v {
				continue
			}
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(3)),
				graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
		}
	}()
	defer wg.Wait()
	defer close(done)
	for rep := 0; rep < 3; rep++ {
		for k, m := range models {
			got := gnn.Scores(m, b)
			for i := range baseline[k] {
				if got[i] != baseline[k][i] {
					t.Fatalf("%s rep %d node %d: score changed under concurrent ingest", m.Name(), rep, i)
				}
			}
		}
	}
}

// meanMLP is a model that exists only in this file: two weighted-mean
// layers, ReLU(W · Σ_u w_uv h_u / Σ_u w_uv), over the merged graph and an
// MLP head. It is defined by nothing but its stack, its readout and its
// tape Forward; every tape-free path, at both precisions, comes from the
// embedded gnn.Specs, which instantiates its one generic spec twice.
type meanMLP struct {
	gnn.Specs
	layers []*nn.Linear
	head   *nn.MLP
}

func newMeanMLP(in int) *meanMLP {
	rng := tensor.NewRNG(11)
	widths := []int{in, 8, 6}
	m := &meanMLP{}
	for l := 0; l+1 < len(widths); l++ {
		m.layers = append(m.layers, nn.NewLinear(fmt.Sprintf("mean.l%d", l), widths[l], widths[l+1], rng))
	}
	m.head = nn.NewMLP("mean.head", []int{widths[len(widths)-1], 4, 1}, nn.ActReLU, rng)
	m.Specs = gnn.Specs{F64: meanMLPSpec[float64](m, widths), F32: meanMLPSpec[float32](m, widths)}
	return m
}

func meanMLPSpec[F tensor.Float](m *meanMLP, widths []int) gnn.Spec[F] {
	return gnn.Spec[F]{
		Stacks: []gnn.Stack[F]{{Agg: gnn.MergedWeightedMean, Widths: widths, Layer: func(f *gnn.Fwd[F], l int, _, hN *tensor.Mat[F]) *tensor.Mat[F] {
			return tensor.ReLUInPlace(f.Linear(m.layers[l], hN))
		}}},
		Readout: func(f *gnn.Fwd[F], hs []*tensor.Mat[F]) *tensor.Mat[F] { return f.MLP(m.head, hs[0]) },
	}
}

func (m *meanMLP) Name() string { return "mean-MLP" }

func (m *meanMLP) Parameters() []*nn.Parameter {
	var ps []*nn.Parameter
	for _, l := range m.layers {
		ps = append(ps, l.Parameters()...)
	}
	return append(ps, m.head.Parameters()...)
}

func (m *meanMLP) Forward(t *autodiff.Tape, b *gnn.Batch, _ *tensor.RNG) *autodiff.Node {
	adj := b.CSR(gnn.MergedWeightedMean)
	h := t.Const(b.X)
	for _, l := range m.layers {
		h = t.ReLU(l.Forward(t, t.Aggregate(adj, h)))
	}
	return m.head.Forward(t, h)
}

// TestSpecVariantMatchesTape is the one-file acceptance for a new
// message-passing variant: declared only by its generic Spec and tape
// Forward, it gets Infer at every row split, InferTarget, the capturing
// InferEmbed and the embedding star's InferFinal, and each matches its
// own tape forward at the tolerance the built-in models are held to;
// and, with no float32 code of its own, a float32 forward whose full and
// target paths agree bitwise and which passes the serving gate.
func TestSpecVariantMatchesTape(t *testing.T) {
	_, _, b, _, _ := testWorld(19, fullWorldSize, 3, 6)
	var m gnn.Model = newMeanMLP(6) // the Specs give it every path
	if !gnn.CanInfer32(m) {
		t.Fatal("a variant declared by a generic spec lacks the float32 path")
	}
	if d, ok := gnn.ValidateF32(m, b, gnn.F32Tol); !ok {
		t.Fatalf("float32 logits %.3g from float64, gate %.1g", d, gnn.F32Tol)
	}
	all32 := infer32(m, b)
	for node, want := range all32 {
		f32 := gnn.AcquireFwd[float32]()
		got := m.InferTarget32(f32, b, node)
		gnn.ReleaseFwd(f32)
		if got != want {
			t.Fatalf("node %d: InferTarget32 %v, Infer32 row %v", node, got, want)
		}
	}
	want := gnn.TapeScores(m, b)
	check := func(path string, got []float64, tol float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("%s node %d: %v vs tape %v", path, i, got[i], want[i])
			}
		}
	}
	eachProcs(func(procs int) {
		check(fmt.Sprintf("Infer GOMAXPROCS=%d", procs), gnn.Scores(m, b), 0)
	})

	target := make([]float64, b.NumNodes)
	for node := range target {
		f := gnn.AcquireFwd[float64]()
		target[node] = tensor.SigmoidScalar(m.InferTarget(f, b, node))
		gnn.ReleaseFwd(f)
	}
	check("InferTarget", target, 1e-12)

	// Each node's star, cut from the batch, over the penultimate rows the
	// capturing forward left behind.
	widths, hops := m.EmbedSpec()
	if len(widths) != 1 || widths[0] != 8 || hops != 2 {
		t.Fatalf("EmbedSpec = %v, %d", widths, hops)
	}
	capture := tensor.New(b.NumNodes, widths[0])
	f := gnn.AcquireFwd[float64]()
	embedded := make([]float64, b.NumNodes)
	gnn.SigmoidScoresInto(embedded, m.InferEmbed(f, b, []*tensor.Matrix{capture}).Data[:b.NumNodes])
	gnn.ReleaseFwd(f)
	check("InferEmbed", embedded, 0)
	final := make([]float64, b.NumNodes)
	gnn.CutStars(m, b, nil, nil, func(v int, star *gnn.EmbedStar) {
		f := gnn.AcquireFwd[float64]()
		h := f.Get(len(star.Gather), widths[0])
		for i, g := range star.Gather {
			copy(h.Row(i), capture.Row(int(g)))
		}
		final[v] = tensor.SigmoidScalar(m.InferFinal(f, star, []*tensor.Matrix{h}))
		gnn.ReleaseFwd(f)
	})
	check("InferFinal", final, 0)
}
