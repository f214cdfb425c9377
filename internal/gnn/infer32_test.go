package gnn

import (
	"math"
	"testing"
)

// f32LogitTol is the per-node logit gap the float32 path must stay
// within for the small randomized test models. Quantization error
// compounds per layer, but at these depths it stays far below the 5e-3
// default serving gate.
const f32LogitTol = 1e-3

// TestInfer32MatchesFloat64 pins the float32 logits to the float64
// reference for every baseline model across randomized batches, through
// the same ValidateF32 entry the serving gate uses.
func TestInfer32MatchesFloat64(t *testing.T) {
	for _, m := range inferModels(5) {
		if !CanInfer32(m) {
			t.Fatalf("%s has no float32 forward", m.Name())
		}
		for seed := uint64(1); seed <= 5; seed++ {
			b := randomBatch(t, seed, 20, 2, 5)
			maxDelta, ok := ValidateF32(m, b, f32LogitTol)
			if !ok {
				t.Errorf("%s seed %d: f32 logit gap %.3g exceeds %.1g", m.Name(), seed, maxDelta, f32LogitTol)
			}
			b.Release()
		}
	}
}

// TestInferTarget32MatchesFull pins the single-target float32 path to
// the full float32 forward's row, and both to the float64 target logit.
func TestInferTarget32MatchesFull(t *testing.T) {
	for _, m := range inferModels(5) {
		for seed := uint64(1); seed <= 3; seed++ {
			b := randomBatch(t, seed, 20, 2, 5)
			f := AcquireFwd[float32]()
			full := m.Infer32(f, b).Data[0]
			ReleaseFwd(f)
			f = AcquireFwd[float32]()
			row := m.InferTarget32(f, b, 0)
			ReleaseFwd(f)
			if row != full {
				t.Errorf("%s seed %d: InferTarget32 %.8g != Infer32 row 0 %.8g", m.Name(), seed, row, full)
			}
			want := TapeScores(m, b)[0]
			got, ok := Score32(m, b)
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

// BenchmarkScoreTapeVsInfer32 extends the tape-vs-infer benchmark with
// the float32 serving path on the same batch shape; bench.sh's infer
// section picks these rows up by the shared name prefix.
func BenchmarkScoreTapeVsInfer32(b *testing.B) {
	cfg := Config{InDim: 16, Hidden: []int{32, 16}, MLPHidden: 8}
	for _, m := range []Model{NewGCN(cfg), NewGraphSAGE(cfg), NewGAT(cfg)} {
		batch := randomBatch(b, 1, 64, 2, 16)
		if _, ok := Score32(m, batch); !ok {
			b.Fatalf("%s does not implement the f32 path", m.Name())
		}
		b.Run(m.Name()+"/infer32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Score32(m, batch)
			}
		})
	}
}
