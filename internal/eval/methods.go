package eval

import (
	"turbo/internal/baselines"
	"turbo/internal/behavior"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/metrics"
	"turbo/internal/tensor"
)

// Hyper bundles the model hyperparameters used by all experiment
// runners. The zero value selects reduced sizes tuned for the default
// laptop-scale dataset; PaperScale switches to the §VI-A settings
// (hidden 128/64, attention 64, MLP 32).
type Hyper struct {
	Hidden    []int
	AttHidden int
	MLPHidden int
	Epochs    int
	LR        float64
	Dropout   float64
	Threshold float64 // classification threshold; 0 selects 0.5
}

// DefaultHyper returns the reduced-size settings.
func DefaultHyper() Hyper {
	return Hyper{
		Hidden:    []int{32, 16},
		AttHidden: 16,
		MLPHidden: 16,
		Epochs:    120,
		LR:        8e-3,
		Dropout:   0.1,
		Threshold: 0.5,
	}
}

// PaperHyper returns the §VI-A settings.
func PaperHyper() Hyper {
	return Hyper{
		Hidden:    []int{128, 64},
		AttHidden: 64,
		MLPHidden: 32,
		Epochs:    200,
		LR:        5e-3,
		Dropout:   0.1,
		Threshold: 0.5,
	}
}

func (h Hyper) withDefaults() Hyper {
	d := DefaultHyper()
	if len(h.Hidden) == 0 {
		h.Hidden = d.Hidden
	}
	if h.AttHidden == 0 {
		h.AttHidden = d.AttHidden
	}
	if h.MLPHidden == 0 {
		h.MLPHidden = d.MLPHidden
	}
	if h.Epochs == 0 {
		h.Epochs = d.Epochs
	}
	if h.LR == 0 {
		h.LR = d.LR
	}
	if h.Threshold == 0 {
		h.Threshold = 0.5
	}
	return h
}

func (h Hyper) gnnConfig(inDim int, seed uint64) gnn.Config {
	return gnn.Config{
		InDim:     inDim,
		Hidden:    h.Hidden,
		MLPHidden: h.MLPHidden,
		Dropout:   h.Dropout,
		Seed:      seed,
	}
}

func (h Hyper) hagConfig(inDim, numTypes int, seed uint64) hag.Config {
	return hag.Config{
		InDim:        inDim,
		NumEdgeTypes: numTypes,
		Hidden:       h.Hidden,
		AttHidden:    h.AttHidden,
		MLPHidden:    h.MLPHidden,
		Dropout:      h.Dropout,
		Seed:         seed,
	}
}

func (h Hyper) trainConfig(seed uint64) gnn.TrainConfig {
	return gnn.TrainConfig{
		Epochs:         h.Epochs,
		LR:             h.LR,
		BalanceClasses: true,
		Seed:           seed,
	}
}

// EvaluateScores reduces full-graph scores to a test-split report.
func (a *Assembled) EvaluateScores(scores []float64, thresh float64) metrics.Report {
	return metrics.Evaluate(a.ScoresAt(scores), a.TestLabels(), thresh)
}

// RunFeatureModel trains a feature-only classifier (LR, SVM, GBDT, DNN)
// and evaluates it on the test split.
func RunFeatureModel(a *Assembled, clf baselines.Classifier, h Hyper) metrics.Report {
	h = h.withDefaults()
	clf.Fit(a.FeatureRows(a.TrainIdx), a.LabelsAt(a.TrainIdx))
	scores := clf.PredictProba(a.X)
	return a.EvaluateScores(scores, h.Threshold)
}

// GNNKind selects a baseline GNN.
type GNNKind int

// Baseline GNN kinds.
const (
	KindGCN GNNKind = iota
	KindSAGE
	KindGAT
)

// NewGNN constructs a baseline GNN of the given kind.
func NewGNN(kind GNNKind, cfg gnn.Config) gnn.Model {
	switch kind {
	case KindGCN:
		return gnn.NewGCN(cfg)
	case KindSAGE:
		return gnn.NewGraphSAGE(cfg)
	default:
		return gnn.NewGAT(cfg)
	}
}

// RunGNN trains a baseline GNN full-graph and evaluates the test split.
func RunGNN(a *Assembled, kind GNNKind, h Hyper, seed uint64) metrics.Report {
	h = h.withDefaults()
	b := a.FullBatch()
	m := NewGNN(kind, h.gnnConfig(b.X.Cols, seed))
	gnn.Train(m, b, a.TrainIdx, a.Labels, h.trainConfig(seed))
	return a.EvaluateScores(gnn.Scores(m, b), h.Threshold)
}

// HAGVariant selects the Table V ablation.
type HAGVariant int

// HAG variants of Table V.
const (
	HAGFull HAGVariant = iota
	HAGNoSAO
	HAGNoCFO
	HAGNeither
)

// NewHAG constructs the chosen HAG variant.
func NewHAG(v HAGVariant, cfg hag.Config) *hag.HAG {
	cfg.DisableSAOGate = v == HAGNoSAO || v == HAGNeither
	cfg.DisableCFO = v == HAGNoCFO || v == HAGNeither
	return hag.New(cfg)
}

// TrainHAG trains a HAG variant on the assembled dataset and returns the
// fitted model with its full-graph batch.
func TrainHAG(a *Assembled, v HAGVariant, h Hyper, seed uint64) (*hag.HAG, *gnn.Batch) {
	h = h.withDefaults()
	b := a.FullBatch()
	m := NewHAG(v, h.hagConfig(b.X.Cols, a.Graph.NumEdgeTypes(), seed))
	gnn.Train(m, b, a.TrainIdx, a.Labels, h.trainConfig(seed))
	return m, b
}

// RunHAG trains and evaluates a HAG variant.
func RunHAG(a *Assembled, v HAGVariant, h Hyper, seed uint64) metrics.Report {
	h = h.withDefaults()
	m, b := TrainHAG(a, v, h, seed)
	return a.EvaluateScores(gnn.Scores(m, b), h.Threshold)
}

// RunHAGMasked trains HAG with one edge type removed (Fig. 7) and
// returns its report.
func RunHAGMasked(a *Assembled, t behavior.Type, h Hyper, seed uint64) metrics.Report {
	h = h.withDefaults()
	b := a.MaskedBatch(t)
	m := NewHAG(HAGFull, h.hagConfig(b.X.Cols, a.Graph.NumEdgeTypes(), seed))
	gnn.Train(m, b, a.TrainIdx, a.Labels, h.trainConfig(seed))
	return a.EvaluateScores(gnn.Scores(m, b), h.Threshold)
}

// RunHAGInductive trains HAG with neighbor-sampled minibatches (the
// paper's online-faithful training mode, batch size 256) and evaluates
// the test split with per-node sampled computation subgraphs — both
// sides of the pipeline see only sampled neighborhoods, never the full
// BN.
func RunHAGInductive(a *Assembled, h Hyper, seed uint64, batchSize int) metrics.Report {
	h = h.withDefaults()
	m := NewHAG(HAGFull, h.hagConfig(a.X.Cols, a.Graph.NumEdgeTypes(), seed))
	feats := func(n graph.NodeID) []float64 { return a.X.Row(int(n)) }
	trainNodes := make([]graph.NodeID, len(a.TrainIdx))
	trainLabels := make([]float64, len(a.TrainIdx))
	for k, i := range a.TrainIdx {
		trainNodes[k] = a.Nodes[i]
		trainLabels[k] = a.Labels[i]
	}
	gnn.TrainInductive(m, a.Graph, feats, trainNodes, trainLabels, gnn.InductiveConfig{
		TrainConfig: h.trainConfig(seed),
		BatchSize:   batchSize,
	})
	scores := make([]float64, len(a.TestIdx))
	rng := tensor.NewRNG(seed)
	for k, i := range a.TestIdx {
		b, rows := gnn.SampleBatch(a.Graph, feats, []graph.NodeID{a.Nodes[i]}, 2, 25, rng)
		scores[k] = gnn.Scores(m, b)[rows[0]]
	}
	return metrics.Evaluate(scores, a.TestLabels(), h.Threshold)
}

// RunBLP runs the BLP baseline: original + graph features into GBDT.
func RunBLP(a *Assembled, h Hyper, seed uint64) metrics.Report {
	h = h.withDefaults()
	x := a.GraphFeatureMatrix(true)
	clf := &baselines.GBDT{Balance: true, Seed: seed}
	clf.Fit(x.SelectRows(a.TrainIdx), a.LabelsAt(a.TrainIdx))
	return a.EvaluateScores(clf.PredictProba(x), h.Threshold)
}

// RunDTX runs DeepTrax: DeepWalk embeddings (optionally concatenated
// with original features, DTX2) into GBDT.
func RunDTX(a *Assembled, withFeatures bool, h Hyper, seed uint64) metrics.Report {
	h = h.withDefaults()
	dtx := &baselines.DTX{WithFeatures: withFeatures}
	dtx.Walk.Seed = seed
	raw := dtx.BuildFeatures(a.Graph, a.Nodes, a.RawX)
	x := standardizeOnTrain(raw, a.TrainIdx)
	clf := &baselines.GBDT{Balance: true, Seed: seed}
	clf.Fit(x.SelectRows(a.TrainIdx), a.LabelsAt(a.TrainIdx))
	return a.EvaluateScores(clf.PredictProba(x), h.Threshold)
}

// seedsOrDefault returns the run seeds for multi-round experiments.
func seedsOrDefault(seeds []uint64) []uint64 {
	if len(seeds) > 0 {
		return seeds
	}
	return []uint64{1, 2, 3}
}
