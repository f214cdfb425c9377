package sweep

import (
	"fmt"
	"math"
	"testing"

	"turbo/internal/autodiff"
	"turbo/internal/gnn"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// meanMLP is a model that exists only in this file: two weighted-mean
// layers, ReLU(W · Σ_u w_uv h_u / Σ_u w_uv), over the merged graph and an
// MLP head. It is defined by nothing but its stack, its readout and its
// tape Forward; every tape-free path comes from the embedded gnn.Spec.
type meanMLP struct {
	gnn.Spec
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
	m.Spec = gnn.Spec{
		Stacks: []gnn.Stack{{Agg: gnn.MergedWeightedMean, Widths: widths, Layer: func(f *gnn.Fwd, l int, _, hN *tensor.Matrix) *tensor.Matrix {
			return tensor.ReLUInPlace(f.Linear(m.layers[l], hN))
		}}},
		Readout: func(f *gnn.Fwd, hs []*tensor.Matrix) *tensor.Matrix { return f.MLP(m.head, hs[0]) },
	}
	return m
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
	adj := b.MergedWeightedMeanCSR()
	h := t.Const(b.X)
	for _, l := range m.layers {
		h = t.ReLU(l.Forward(t, t.Aggregate(adj, h)))
	}
	return m.head.Forward(t, h)
}

// TestSpecVariantMatchesTape is the one-file acceptance for a new
// message-passing variant: declared only by its Spec and tape Forward,
// it gets Infer, InferTarget, the serial and sharded sweep and the
// embedding star's InferFinal, and each matches its own tape forward at
// the tolerance the built-in models are held to.
func TestSpecVariantMatchesTape(t *testing.T) {
	_, _, b, _, _ := testWorld(19, 40, 3, 6)
	m := newMeanMLP(6)
	if _, ok := gnn.Model(m).(gnn.TargetInferer); !ok || !gnn.CanSweep(m) || !gnn.CanEmbedServe(m) || gnn.CanInfer32(m) {
		t.Fatal("the Spec did not give the variant exactly the float64 paths")
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
	check("Infer", gnn.Scores(m, b), 1e-12)

	target := make([]float64, b.NumNodes)
	for node := range target {
		f := gnn.AcquireFwd()
		target[node] = tensor.SigmoidScalar(m.InferTarget(f, b, node))
		gnn.ReleaseFwd(f)
	}
	check("InferTarget", target, 1e-12)

	for _, w := range []int{1, 4} {
		got, st := Scores(m, b, Options{Workers: w})
		if st.Fallback {
			t.Fatalf("workers=%d: sweep fell back", w)
		}
		check(fmt.Sprintf("sweep workers=%d", w), got, 0)
	}

	// The star of node v: itself, then its merged in-edges by ascending
	// source, over the penultimate rows a capturing sweep left behind.
	widths, hops := m.EmbedSpec()
	if len(widths) != 1 || widths[0] != 8 || hops != 2 {
		t.Fatalf("EmbedSpec = %v, %d", widths, hops)
	}
	capture := tensor.New(b.NumNodes, widths[0])
	prog := m.BuildEmbedSweep(b, []*tensor.Matrix{capture})
	Run(prog, Options{Workers: 4}, nil)
	prog.Release()
	merged := b.MergedEdges()
	final := make([]float64, b.NumNodes)
	for v := range final {
		star := &gnn.EmbedStar{Gather: []int32{int32(v)}}
		for _, e := range merged {
			if e.Dst == v {
				star.Merged = append(star.Merged, gnn.StarEdge{Row: int32(len(star.Gather)), Weight: e.Weight})
				star.Gather = append(star.Gather, int32(e.Src))
			}
		}
		f := gnn.AcquireFwd()
		h := f.Get(len(star.Gather), widths[0])
		for i, g := range star.Gather {
			copy(h.Row(i), capture.Row(int(g)))
		}
		final[v] = tensor.SigmoidScalar(m.InferFinal(f, star, []*tensor.Matrix{h}))
		gnn.ReleaseFwd(f)
	}
	check("InferFinal", final, 1e-9)
}
