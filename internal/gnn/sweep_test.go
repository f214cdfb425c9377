package gnn

import (
	"testing"
)

// sweepScores runs the program on the serial reference executor and
// returns its fraud probabilities through the shared serving sigmoid.
func sweepScores(prog *SweepProgram) []float64 {
	f := AcquireFwd()
	defer ReleaseFwd(f)
	logits := prog.RunSerial(f)
	out := make([]float64, prog.NumNodes)
	SigmoidScoresInto(out, logits.Data[:prog.NumNodes])
	return out
}

// TestSweepProgramMatchesInfer pins the compiled sweep program, executed
// by the serial reference executor, to the tape forward bitwise for
// every baseline model. Infer is the same row-range forward over [0, n), so
// the oracle is the tape: any difference at all is a compilation bug.
func TestSweepProgramMatchesInfer(t *testing.T) {
	for _, m := range inferModels(5) {
		if !CanSweep(m) {
			t.Fatalf("%s does not implement SweepInferer", m.Name())
		}
		for seed := uint64(1); seed <= 5; seed++ {
			b := randomBatch(t, seed, 24, 2, 5)
			want := TapeScores(m, b)
			prog, ok := BuildSweepFor(m, b)
			if !ok {
				t.Fatalf("%s: BuildSweepFor refused", m.Name())
			}
			for i, got := range sweepScores(prog) {
				if got != want[i] {
					t.Fatalf("%s seed %d node %d: sweep %v, tape %v", m.Name(), seed, i, got, want[i])
				}
			}
			prog.Release()
		}
	}
}

// TestSweepProgramRecyclesBuffers checks the build-time liveness pass: a
// deep same-width GCN must reuse retired activation buffers (so resident
// memory stays ~two layers regardless of depth), and the recycled —
// hence dirty — buffers must still produce the tape's exact scores
// because every step overwrites its destination rows.
func TestSweepProgramRecyclesBuffers(t *testing.T) {
	cfg := Config{InDim: 6, Hidden: []int{8, 8, 8, 8, 8}, MLPHidden: 4, Seed: 3}
	m := NewGCN(cfg)
	b := randomBatch(t, 9, 30, 2, 6)
	prog := m.BuildSweep(b)
	// Naively the program would own 2 buffers per graph layer plus the
	// MLP outputs (12 here); recycling caps distinct allocations.
	naive := 2*len(cfg.Hidden) + 2
	if len(prog.owned) >= naive {
		t.Fatalf("no buffer recycling: %d owned buffers, naive count %d", len(prog.owned), naive)
	}
	want := TapeScores(m, b)
	for i, got := range sweepScores(prog) {
		if got != want[i] {
			t.Fatalf("recycled program diverges at node %d: %v vs %v", i, got, want[i])
		}
	}
	prog.Release()
}

// tapeOnlyModel hides Inferer/SweepInferer so only the tape path remains.
type tapeOnlyModel struct{ Model }

// TestScoresDispatch pins the shared kernel-dispatch helper: Inferer
// models score through InferScoresInto, non-Inferer models fall back to
// the tape, and Scores agrees with both bitwise.
func TestScoresDispatch(t *testing.T) {
	cfg := Config{InDim: 5, Hidden: []int{8, 6}, MLPHidden: 4, Seed: 2}
	m := NewGCN(cfg)
	b := randomBatch(t, 4, 20, 2, 5)

	out := make([]float64, b.NumNodes)
	if !InferScoresInto(out, m, b) {
		t.Fatalf("InferScoresInto refused an Inferer model")
	}
	got := Scores(m, b)
	for i := range out {
		if got[i] != out[i] {
			t.Fatalf("Scores diverges from InferScoresInto at node %d", i)
		}
	}

	wrapped := tapeOnlyModel{m}
	if CanInfer(wrapped) || CanSweep(wrapped) {
		t.Fatalf("wrapper failed to hide the fast paths")
	}
	if InferScoresInto(out, wrapped, b) {
		t.Fatalf("InferScoresInto accepted a tape-only model")
	}
	tape := TapeScores(m, b)
	gotTape := Scores(wrapped, b)
	for i := range tape {
		if gotTape[i] != tape[i] {
			t.Fatalf("tape fallback diverges at node %d", i)
		}
	}
}
