package hag

import (
	"math"
	"testing"

	"turbo/internal/gnn"
)

const f32LogitTol = 1e-3

// TestHAGInfer32MatchesFloat64 pins the float32 logits to the float64
// reference for HAG and all three ablation variants.
func TestHAGInfer32MatchesFloat64(t *testing.T) {
	for _, m := range hagVariants(1) {
		if !gnn.CanInfer32(m) {
			t.Fatalf("%s has no float32 forward", m.Name())
		}
		for seed := uint64(1); seed <= 5; seed++ {
			b := randomHagBatch(seed, 20, 2, 5)
			maxDelta, ok := gnn.ValidateF32(m, b, f32LogitTol)
			if !ok {
				t.Errorf("%s seed %d: f32 logit gap %.3g exceeds %.1g", m.Name(), seed, maxDelta, f32LogitTol)
			}
			b.Release()
		}
	}
}

// targetRowTol bounds InferTarget32 against the full Infer32: the
// target path runs tanh/softmax on 1×k matrices whose tails fall to the
// scalar Exp32 while the full pass uses the 8-wide kernel, so matching
// elements may differ in the final ulp (≈1e-7 relative) before the
// layers amplify it slightly.
const targetRowTol = 1e-5

// TestHAGInferTarget32MatchesFull pins the single-target float32 path
// to row 0 of the full float32 forward (within the vector/scalar exp
// ulp bound above), and Score32 to the tape score.
func TestHAGInferTarget32MatchesFull(t *testing.T) {
	for _, m := range hagVariants(2) {
		for seed := uint64(1); seed <= 3; seed++ {
			b := randomHagBatch(seed, 20, 2, 5)
			f := gnn.AcquireFwd[float32]()
			full := m.Infer32(f, b).Data[0]
			gnn.ReleaseFwd(f)
			f = gnn.AcquireFwd[float32]()
			row := m.InferTarget32(f, b, 0)
			gnn.ReleaseFwd(f)
			if math.Abs(float64(row)-float64(full)) > targetRowTol {
				t.Errorf("%s seed %d: InferTarget32 %.8g != Infer32 row 0 %.8g", m.Name(), seed, row, full)
			}
			want := gnn.TapeScore(m, b)
			got, ok := gnn.Score32(m, b)
			if !ok {
				t.Fatalf("%s: Score32 reported unsupported", m.Name())
			}
			if math.Abs(got-want) > f32LogitTol {
				t.Errorf("%s seed %d: Score32 %.8g vs tape %.8g", m.Name(), seed, got, want)
			}
			b.Release()
		}
	}
}

// BenchmarkHAGScoreTapeVsInfer32 extends the HAG tape-vs-infer
// benchmark with the float32 serving path on the same batch shape.
func BenchmarkHAGScoreTapeVsInfer32(b *testing.B) {
	m := New(Config{InDim: 16, NumEdgeTypes: 2, Hidden: []int{32, 16}, AttHidden: 8, Seed: 1})
	batch := randomHagBatch(1, 64, 2, 16)
	if _, ok := gnn.Score32(m, batch); !ok {
		b.Fatal("HAG does not implement the f32 path")
	}
	b.Run("infer32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gnn.Score32(m, batch)
		}
	})
}
