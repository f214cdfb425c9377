// Package eval is the experiment harness: it assembles datasets (synthetic
// world → behavior store → BN → features), runs every method of §VI-A,
// and regenerates the paper's tables and figure series as typed results
// with text renderers. cmd/turbo-bench and bench_test.go are thin
// wrappers over this package.
package eval

import (
	"time"

	"turbo/internal/baselines"
	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/datagen"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// Assembled is a dataset prepared for experiments: the generated world,
// its behavior store, the constructed BN, per-user feature rows
// (X_u ⊕ X_τ ⊕ X_s, z-scored on the training split), labels, and the
// 80/20 UID split of §VI-A.
type Assembled struct {
	Data  *datagen.Dataset
	Store *behavior.Store
	// Graph is an immutable snapshot of the constructed BN. Assembly
	// freezes the graph once built, so every experiment scan (figures,
	// homophily walks, full-batch compilation, baselines) reads the
	// lock-free snapshot and can safely run in parallel.
	Graph *graph.Snapshot
	Feat  *feature.Service

	Nodes  []graph.NodeID // node i is user ID i
	X      *tensor.Matrix // standardized features
	RawX   *tensor.Matrix
	Norm   *Normalizer // fitted on the train split; reused online
	Labels []float64
	Bools  []bool

	TrainIdx []int
	TestIdx  []int
}

// AssembleOptions tweaks assembly.
type AssembleOptions struct {
	// SplitSeed drives the train/test split; 0 selects 1.
	SplitSeed uint64
	// TestFrac is the test fraction; 0 selects 0.2.
	TestFrac float64
	// BN overrides the BN construction config (zero value = defaults).
	BN bn.Config
}

// Assemble generates the world for cfg and prepares every experiment
// input. The BN is built over the full observation range with Algorithm 1
// defaults; statistical features are computed at each user's audit time
// (application time + 24 h, §VI-A).
func Assemble(cfg datagen.Config, opts AssembleOptions) *Assembled {
	return AssembleDataset(datagen.Generate(cfg), opts)
}

// AssembleDataset prepares experiment inputs from an existing dataset
// (e.g. one loaded from the turbo-datagen JSONL files).
func AssembleDataset(data *datagen.Dataset, opts AssembleOptions) *Assembled {
	if opts.SplitSeed == 0 {
		opts.SplitSeed = 1
	}
	if opts.TestFrac == 0 {
		opts.TestFrac = 0.2
	}
	store := data.Store()

	g := graph.New(behavior.NumTypes)
	builder, err := bn.NewBuilder(opts.BN, store, g, data.Start)
	if err != nil {
		panic(err) // defaults are always valid; a caller bug otherwise
	}
	builder.BuildRange(data.Start, data.End.Add(24*time.Hour))

	feat := feature.NewService(feature.Config{}, store)
	n := len(data.Users)
	a := &Assembled{Data: data, Store: store, Feat: feat}
	a.Nodes = make([]graph.NodeID, n)
	a.Labels = make([]float64, n)
	a.Bools = make([]bool, n)
	dim := datagen.NumFeatures() + feature.NumStatFeatures()
	a.RawX = tensor.New(n, dim)
	for i := range data.Users {
		u := &data.Users[i]
		a.Nodes[i] = graph.NodeID(u.ID)
		g.AddNode(graph.NodeID(u.ID)) // isolated users still classified
		if u.Fraud {
			a.Labels[i] = 1
			a.Bools[i] = true
		}
		if err := feat.PutProfile(u.ID, u.Features()); err != nil {
			panic(err)
		}
		vec, err := feat.Vector(u.ID, u.AppTime.Add(24*time.Hour))
		if err != nil {
			panic(err)
		}
		copy(a.RawX.Row(i), vec)
	}
	// Freeze the BN: all experiment readers consume the immutable
	// snapshot view from here on.
	a.Graph = g.Snapshot()

	// 80/20 split by UID.
	rng := tensor.NewRNG(opts.SplitSeed)
	perm := rng.Perm(n)
	nTest := int(float64(n) * opts.TestFrac)
	a.TestIdx = append([]int(nil), perm[:nTest]...)
	a.TrainIdx = append([]int(nil), perm[nTest:]...)

	a.Norm = FitNormalizer(a.RawX, a.TrainIdx)
	a.X = a.Norm.ApplyMatrix(a.RawX)
	return a
}

// standardizeOnTrain z-scores every column using statistics of the
// training rows only (fit + apply in one step).
func standardizeOnTrain(x *tensor.Matrix, trainIdx []int) *tensor.Matrix {
	return FitNormalizer(x, trainIdx).ApplyMatrix(x)
}

// FullBatch compiles the whole BN (restricted to user nodes, which is
// all nodes here) into a GNN batch whose node order matches a.Nodes, with
// the snapshot writer the sweep engine and the audits use.
func (a *Assembled) FullBatch() *gnn.Batch {
	return gnn.FullBatch(a.Graph, a.X, graph.FullOptions{Nodes: a.Nodes})
}

// FullBatchRaw is FullBatch without the §III-A symmetric edge-weight
// normalization (the normalization ablation bench).
func (a *Assembled) FullBatchRaw() *gnn.Batch {
	return gnn.FullBatch(a.Graph, a.X, graph.FullOptions{Nodes: a.Nodes, RawWeights: true})
}

// MaskedBatch compiles the BN with one edge type removed (Fig. 7).
func (a *Assembled) MaskedBatch(t behavior.Type) *gnn.Batch {
	return gnn.FullBatch(a.Graph, a.X, graph.FullOptions{Nodes: a.Nodes, Mask: graph.MaskEdgeType(graph.EdgeType(t))})
}

// TestLabels returns the boolean labels of the test split, aligned with
// the scores produced by ScoresAt.
func (a *Assembled) TestLabels() []bool {
	out := make([]bool, len(a.TestIdx))
	for k, i := range a.TestIdx {
		out[k] = a.Bools[i]
	}
	return out
}

// ScoresAt gathers per-node scores at the test indices.
func (a *Assembled) ScoresAt(scores []float64) []float64 {
	out := make([]float64, len(a.TestIdx))
	for k, i := range a.TestIdx {
		out[k] = scores[i]
	}
	return out
}

// FeatureRows selects standardized feature rows for the given indices.
func (a *Assembled) FeatureRows(idx []int) *tensor.Matrix { return a.X.SelectRows(idx) }

// LabelsAt selects labels for the given indices.
func (a *Assembled) LabelsAt(idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = a.Labels[i]
	}
	return out
}

// GraphFeatureMatrix builds [standardized original ; BLP graph features]
// rows for all nodes, z-scored on the train split.
func (a *Assembled) GraphFeatureMatrix(withOriginal bool) *tensor.Matrix {
	gf := baselines.GraphFeatures(a.Graph, a.Nodes)
	var m *tensor.Matrix
	if withOriginal {
		m = a.RawX.ConcatCols(gf)
	} else {
		m = gf
	}
	return standardizeOnTrain(m, a.TrainIdx)
}
