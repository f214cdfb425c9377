package gnn

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"turbo/internal/autodiff"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// randomBatch builds a randomized subgraph batch: n nodes, `types` edge
// types with ~3n directed edges each (duplicates included, so the
// (src,dst) merge paths are exercised), random normal features.
func randomBatch(tb testing.TB, seed uint64, n, types, dim int) *Batch {
	tb.Helper()
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
	x := tensor.New(n, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return NewBatch(sg, x)
}

func inferModels(dim int) []Model {
	cfg := Config{InDim: dim, Hidden: []int{8, 6}, MLPHidden: 4}
	return []Model{NewGCN(cfg), NewGraphSAGE(cfg), NewGAT(cfg)}
}

// TestInferMatchesTape pins the tape-free scores to the tape scores on
// randomized batches for every baseline model. The two paths share
// their kernels, so the tolerance is far below 1e-12 in practice.
func TestInferMatchesTape(t *testing.T) {
	for _, m := range inferModels(5) {
		if !CanInfer(m) {
			t.Fatalf("%s does not implement Inferer", m.Name())
		}
		for seed := uint64(1); seed <= 5; seed++ {
			b := randomBatch(t, seed, 20, 2, 5)
			want := TapeScores(m, b)
			got := Scores(m, b)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("%s seed %d node %d: infer %v vs tape %v",
						m.Name(), seed, i, got[i], want[i])
				}
			}
			if s := Score(m, b); math.Abs(s-want[0]) > 1e-12 {
				t.Fatalf("%s Score %v vs tape %v", m.Name(), s, want[0])
			}
		}
	}
}

// TestInferTargetMatchesTape pins the single-target fast path to the
// tape scores at every node index, for the models that implement it.
func TestInferTargetMatchesTape(t *testing.T) {
	for _, m := range inferModels(5) {
		ti, ok := m.(TargetInferer)
		if !ok {
			continue
		}
		b := randomBatch(t, 9, 18, 2, 5)
		want := TapeScores(m, b)
		for node := 0; node < b.NumNodes; node++ {
			f := AcquireFwd()
			got := tensor.SigmoidScalar(ti.InferTarget(f, b, node))
			ReleaseFwd(f)
			if math.Abs(got-want[node]) > 1e-12 {
				t.Fatalf("%s node %d: target-infer %v vs tape %v", m.Name(), node, got, want[node])
			}
		}
	}
}

// TestInferMatchesTrainingModeNoDropout cross-checks Infer against the
// training-mode forward with dropout disabled (rate 0, non-nil RNG):
// the only difference from evaluation mode must be the dropout ops, so
// with rate 0 the logits agree exactly.
func TestInferMatchesTrainingModeNoDropout(t *testing.T) {
	for _, m := range inferModels(5) {
		b := randomBatch(t, 11, 16, 2, 5)
		tape := autodiff.NewTape()
		logits := m.Forward(tape, b, tensor.NewRNG(3))

		f := AcquireFwd()
		inferred := m.(Inferer).Infer(f, b)
		for i := 0; i < b.NumNodes; i++ {
			if math.Abs(inferred.Data[i]-logits.Value.Data[i]) > 1e-12 {
				t.Fatalf("%s node %d: infer logit %v vs training-mode %v",
					m.Name(), i, inferred.Data[i], logits.Value.Data[i])
			}
		}
		ReleaseFwd(f)
	}
}

// TestConcurrentInferIsConsistent scores one shared batch from many
// goroutines (pool reuse must never alias scratch across them; run
// under -race).
func TestConcurrentInferIsConsistent(t *testing.T) {
	for _, m := range inferModels(5) {
		b := randomBatch(t, 21, 24, 2, 5)
		want := TapeScores(m, b)
		var wg sync.WaitGroup
		errc := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					got := Scores(m, b)
					for i := range want {
						if got[i] != want[i] {
							select {
							case errc <- errMismatch(m.Name(), i, got[i], want[i]):
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

func errMismatch(name string, node int, got, want float64) error {
	return fmt.Errorf("%s: concurrent Infer diverged at node %d: %v vs %v", name, node, got, want)
}

// TestBatchReleaseAndRecompile verifies pooled CSR buffers survive the
// release/reacquire cycle: scoring a fresh batch over the same subgraph
// after Release reproduces the original score exactly.
func TestBatchReleaseAndRecompile(t *testing.T) {
	m := NewGraphSAGE(Config{InDim: 5, Hidden: []int{8}, MLPHidden: 4})
	b := randomBatch(t, 31, 20, 2, 5)
	want := Score(m, b)
	sgCopy := &graph.Subgraph{Nodes: b.nodesCopy(), TypedEdges: b.TypedEdges}
	x := b.X
	for rep := 0; rep < 10; rep++ {
		b.Release()
		b = NewBatch(sgCopy, x)
		if got := Score(m, b); got != want {
			t.Fatalf("rep %d: score changed after Release/recompile: %v vs %v", rep, got, want)
		}
	}
}

// nodesCopy rebuilds a Nodes slice matching the batch size (test helper;
// subgraph identity beyond TypedEdges does not affect compilation).
func (b *Batch) nodesCopy() []graph.NodeID {
	nodes := make([]graph.NodeID, b.NumNodes)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return nodes
}

// TestMergeEdgesDeterministic is the regression test for the map-based
// merge: output must be identical across calls, sorted by (src,dst),
// and sum parallel edge weights exactly like an accumulator map.
func TestMergeEdgesDeterministic(t *testing.T) {
	rng := tensor.NewRNG(99)
	typed := make([][]graph.LocalEdge, 3)
	for ty := range typed {
		for e := 0; e < 200; e++ {
			typed[ty] = append(typed[ty], graph.LocalEdge{
				Src: rng.Intn(12), Dst: rng.Intn(12), Weight: rng.Float64(),
			})
		}
	}

	first := mergeEdges(typed)
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		if first[i].Src != first[j].Src {
			return first[i].Src < first[j].Src
		}
		return first[i].Dst < first[j].Dst
	}) {
		t.Fatal("mergeEdges output not sorted by (src,dst)")
	}
	for rep := 0; rep < 10; rep++ {
		again := mergeEdges(typed)
		if len(again) != len(first) {
			t.Fatalf("rep %d: length %d vs %d", rep, len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("rep %d: edge %d differs: %+v vs %+v", rep, i, again[i], first[i])
			}
		}
	}

	// Reference accumulator (the old map semantics: weights summed in
	// input encounter order).
	type key struct{ src, dst int }
	ref := make(map[key]float64)
	for _, es := range typed {
		for _, e := range es {
			ref[key{e.Src, e.Dst}] += e.Weight
		}
	}
	if len(ref) != len(first) {
		t.Fatalf("merged %d pairs, reference has %d", len(first), len(ref))
	}
	for _, e := range first {
		if w := ref[key{e.Src, e.Dst}]; w != e.Weight {
			t.Fatalf("pair (%d,%d): weight %v, reference %v", e.Src, e.Dst, e.Weight, w)
		}
	}
}

// TestLazyCSRBuild verifies batch compilation is lazy: a fresh batch
// holds no compiled structures, and asking for one normalization does
// not build the others.
func TestLazyCSRBuild(t *testing.T) {
	b := randomBatch(t, 41, 10, 2, 3)
	if b.mergedBuilt || b.mergedRW != nil || b.mergedMean != nil || b.mergedWeight != nil || b.typedMean != nil || b.gat != nil {
		t.Fatal("NewBatch compiled adjacency eagerly")
	}
	b.TypedMeanCSR(0)
	if b.mergedBuilt {
		t.Fatal("TypedMeanCSR built the merged edge list it does not need")
	}
	b.MergedRWCSR()
	if !b.mergedBuilt || b.mergedRW == nil {
		t.Fatal("MergedRWCSR did not compile")
	}
}

// --- benchmarks --------------------------------------------------------------

// BenchmarkScoreTapeVsInfer compares the tape-backed and tape-free
// scoring paths on a representative sampled batch per model.
func BenchmarkScoreTapeVsInfer(b *testing.B) {
	cfg := Config{InDim: 16, Hidden: []int{32, 16}, MLPHidden: 8}
	for _, m := range []Model{NewGCN(cfg), NewGraphSAGE(cfg), NewGAT(cfg)} {
		batch := randomBatch(b, 1, 64, 2, 16)
		b.Run(m.Name()+"/tape", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TapeScore(m, batch)
			}
		})
		b.Run(m.Name()+"/infer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Score(m, batch)
			}
		})
	}
}

// BenchmarkBatchCompile measures per-audit batch compilation (the
// NewBatch + CSR build + release cycle of the serving path).
func BenchmarkBatchCompile(b *testing.B) {
	proto := randomBatch(b, 2, 64, 2, 16)
	sg := &graph.Subgraph{Nodes: proto.nodesCopy(), TypedEdges: proto.TypedEdges}
	x := proto.X
	b.Run("sage-mean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch := NewBatch(sg, x)
			batch.MergedMeanCSR()
			batch.Release()
		}
	})
	b.Run("gat-struct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch := NewBatch(sg, x)
			batch.gatStruct()
			batch.Release()
		}
	})
	b.Run("typed-mean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch := NewBatch(sg, x)
			batch.TypedMeanCSR(0)
			batch.TypedMeanCSR(1)
			batch.Release()
		}
	})
}
