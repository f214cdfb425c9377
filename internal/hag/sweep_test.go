package hag

import (
	"testing"

	"turbo/internal/gnn"
)

// TestHAGSweepMatchesInfer pins the compiled sweep program to the tape
// forward bitwise for every ablation variant (gated/ungated SAO × with/
// without CFO). Infer is the same row-range forward over [0, n), so the
// oracle is the tape.
func TestHAGSweepMatchesInfer(t *testing.T) {
	for _, m := range hagVariants(1) {
		if !gnn.CanSweep(m) {
			t.Fatalf("%s does not implement gnn.SweepInferer", m.Name())
		}
		for seed := uint64(1); seed <= 4; seed++ {
			b := randomHagBatch(seed, 24, 2, 5)
			want := gnn.TapeScores(m, b)
			prog, ok := gnn.BuildSweepFor(m, b)
			if !ok {
				t.Fatalf("%s: BuildSweepFor refused", m.Name())
			}
			f := gnn.AcquireFwd()
			logits := prog.RunSerial(f)
			got := make([]float64, b.NumNodes)
			gnn.SigmoidScoresInto(got, logits.Data[:b.NumNodes])
			gnn.ReleaseFwd(f)
			prog.Release()
			for i, w := range want {
				if got[i] != w {
					t.Fatalf("%s seed %d node %d: sweep %v, tape %v", m.Name(), seed, i, got[i], w)
				}
			}
		}
	}
}
