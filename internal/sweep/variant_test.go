package sweep

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"turbo/internal/autodiff"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

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
// Forward, it gets Infer, InferTarget, the serial and sharded sweep and
// the embedding star's InferFinal, and each matches its own tape forward
// at the tolerance the built-in models are held to; and, with no float32
// code of its own, a float32 forward whose full and target paths agree
// bitwise and which passes the serving gate.
func TestSpecVariantMatchesTape(t *testing.T) {
	_, _, b, _, _ := testWorld(19, 40, 3, 6)
	var m gnn.Model = newMeanMLP(6) // the Specs give it every path
	if !gnn.CanInfer32(m) {
		t.Fatal("a variant declared by a generic spec lacks the float32 path")
	}
	if d, ok := gnn.ValidateF32(m, b, gnn.F32Tol); !ok {
		t.Fatalf("float32 logits %.3g from float64, gate %.1g", d, gnn.F32Tol)
	}
	f32 := gnn.AcquireFwd[float32]()
	all32 := slices.Clone(m.Infer32(f32, b).Data[:b.NumNodes])
	gnn.ReleaseFwd(f32)
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
	check("Infer", gnn.Scores(m, b), 1e-12)

	target := make([]float64, b.NumNodes)
	for node := range target {
		f := gnn.AcquireFwd[float64]()
		target[node] = tensor.SigmoidScalar(m.InferTarget(f, b, node))
		gnn.ReleaseFwd(f)
	}
	check("InferTarget", target, 1e-12)

	for _, w := range []int{1, 4} {
		got, _ := Scores(m, b, Options{Workers: w})
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
	merged := mergedEdges(b)
	final := make([]float64, b.NumNodes)
	for v := range final {
		star := &gnn.EmbedStar{Gather: []int32{int32(v)}}
		for _, e := range merged {
			if e.Dst == v {
				star.Merged = append(star.Merged, gnn.StarEdge{Row: int32(len(star.Gather)), Weight: e.Weight})
				star.Gather = append(star.Gather, int32(e.Src))
			}
		}
		f := gnn.AcquireFwd[float64]()
		h := f.Get(len(star.Gather), widths[0])
		for i, g := range star.Gather {
			copy(h.Row(i), capture.Row(int(g)))
		}
		final[v] = tensor.SigmoidScalar(m.InferFinal(f, star, []*tensor.Matrix{h}))
		gnn.ReleaseFwd(f)
	}
	check("InferFinal", final, 1e-9)
}

// mergedEdges is b's type-merged edge list, sorted by (src, dst), with
// parallel edges summed in type order.
func mergedEdges(b *gnn.Batch) []graph.LocalEdge {
	var all, out []graph.LocalEdge
	for _, es := range b.TypedEdges {
		all = append(all, es...)
	}
	slices.SortStableFunc(all, func(x, y graph.LocalEdge) int {
		return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst))
	})
	for _, e := range all {
		if n := len(out); n > 0 && out[n-1].Src == e.Src && out[n-1].Dst == e.Dst {
			out[n-1].Weight += e.Weight
		} else {
			out = append(out, e)
		}
	}
	return out
}
