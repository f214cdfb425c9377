package hag

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"turbo/internal/autodiff"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// randomHagBatch builds a randomized heterogeneous batch: n nodes,
// `types` edge types with duplicate-bearing bidirected random edges and
// random normal features — exercises both the CFO per-type streams and
// the merged single-stream (CFO disabled) compilation paths.
func randomHagBatch(seed uint64, n, types, dim int) *gnn.Batch {
	rng := tensor.NewRNG(seed)
	sg := &graph.Subgraph{TypedEdges: make([][]graph.LocalEdge, types)}
	for i := 0; i < n; i++ {
		sg.Nodes = append(sg.Nodes, graph.NodeID(i))
		sg.Hops = append(sg.Hops, 0)
	}
	for t := 0; t < types; t++ {
		for e := 0; e < 3*n; e++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			w := rng.Float64() + 0.1
			sg.TypedEdges[t] = append(sg.TypedEdges[t],
				graph.LocalEdge{Src: src, Dst: dst, Weight: w},
				graph.LocalEdge{Src: dst, Dst: src, Weight: w})
		}
	}
	x := tensor.RandNormal(n, dim, 1, rng)
	return gnn.NewBatch(sg, x)
}

func hagVariants(seed uint64) []*HAG {
	mk := func(sao, cfo bool) *HAG {
		return New(Config{
			InDim: 5, NumEdgeTypes: 2, Hidden: []int{8, 6}, AttHidden: 4,
			Seed: seed, DisableSAOGate: sao, DisableCFO: cfo,
		})
	}
	return []*HAG{mk(false, false), mk(true, false), mk(false, true), mk(true, true)}
}

// TestHAGInferMatchesTape pins the tape-free HAG scores to the tape
// scores for every ablation variant on randomized batches.
func TestHAGInferMatchesTape(t *testing.T) {
	for _, m := range hagVariants(1) {
		for seed := uint64(1); seed <= 5; seed++ {
			b := randomHagBatch(seed, 20, 2, 5)
			want := gnn.TapeScores(m, b)
			got := gnn.Scores(m, b)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("%s seed %d node %d: infer %v vs tape %v",
						m.Name(), seed, i, got[i], want[i])
				}
			}
			if s := gnn.Score(m, b); math.Abs(s-want[0]) > 1e-12 {
				t.Fatalf("%s Score %v vs tape %v", m.Name(), s, want[0])
			}
		}
	}
}

// TestHAGInferTargetMatchesTape pins the single-target fast path to the
// tape scores at every node index for every ablation variant.
func TestHAGInferTargetMatchesTape(t *testing.T) {
	for _, m := range hagVariants(4) {
		b := randomHagBatch(17, 18, 2, 5)
		want := gnn.TapeScores(m, b)
		for node := 0; node < b.NumNodes; node++ {
			f := gnn.AcquireFwd[float64]()
			got := tensor.SigmoidScalar(m.InferTarget(f, b, node))
			gnn.ReleaseFwd(f)
			if math.Abs(got-want[node]) > 1e-12 {
				t.Fatalf("%s node %d: target-infer %v vs tape %v", m.Name(), node, got, want[node])
			}
		}
	}
}

// TestHAGInferMatchesTrainingModeNoDropout cross-checks Infer against
// the training-mode forward with dropout at rate 0: the logits must
// agree exactly because dropout is the only train/eval difference.
func TestHAGInferMatchesTrainingModeNoDropout(t *testing.T) {
	for _, m := range hagVariants(2) {
		b := randomHagBatch(7, 16, 2, 5)
		tape := autodiff.NewTape()
		logits := m.Forward(tape, b, tensor.NewRNG(3))

		f := gnn.AcquireFwd[float64]()
		inferred := m.Infer(f, b)
		for i := 0; i < b.NumNodes; i++ {
			if math.Abs(inferred.Data[i]-logits.Value.Data[i]) > 1e-12 {
				t.Fatalf("%s node %d: infer logit %v vs training-mode %v",
					m.Name(), i, inferred.Data[i], logits.Value.Data[i])
			}
		}
		gnn.ReleaseFwd(f)
	}
}

// TestHAGConcurrentInferIsConsistent scores a shared batch from many
// goroutines; pooled scratch must never alias across them (run with
// -race).
func TestHAGConcurrentInferIsConsistent(t *testing.T) {
	for _, m := range hagVariants(3) {
		b := randomHagBatch(13, 24, 2, 5)
		want := gnn.TapeScores(m, b)
		var wg sync.WaitGroup
		errc := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					got := gnn.Scores(m, b)
					for i := range want {
						if got[i] != want[i] {
							select {
							case errc <- fmt.Errorf("%s: concurrent Infer diverged at node %d: %v vs %v",
								m.Name(), i, got[i], want[i]):
							default:
							}
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkHAGScoreTapeVsInfer compares the tape-backed and tape-free
// HAG scoring paths on a representative sampled batch.
func BenchmarkHAGScoreTapeVsInfer(b *testing.B) {
	m := New(Config{InDim: 16, NumEdgeTypes: 2, Hidden: []int{32, 16}, AttHidden: 8, Seed: 1})
	batch := randomHagBatch(1, 64, 2, 16)
	b.Run("tape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gnn.TapeScore(m, batch)
		}
	})
	b.Run("infer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gnn.Score(m, batch)
		}
	})
}
