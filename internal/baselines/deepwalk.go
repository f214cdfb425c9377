package baselines

import (
	"math"

	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// DeepWalkConfig parameterizes the DeepWalk embedding used by the
// DeepTrax (DTX) baseline — random walks over the type-merged BN plus
// skip-gram with negative sampling.
type DeepWalkConfig struct {
	Dim          int     // 0 selects 32
	WalksPerNode int     // 0 selects 8
	WalkLength   int     // 0 selects 6 (DeepTrax uses shallow two-hop walks)
	Window       int     // 0 selects 2
	NegSamples   int     // 0 selects 4
	Epochs       int     // 0 selects 3
	LR           float64 // 0 selects 0.025
	Seed         uint64
}

func (c DeepWalkConfig) withDefaults() DeepWalkConfig {
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.WalksPerNode == 0 {
		c.WalksPerNode = 8
	}
	if c.WalkLength == 0 {
		c.WalkLength = 6
	}
	if c.Window == 0 {
		c.Window = 2
	}
	if c.NegSamples == 0 {
		c.NegSamples = 4
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.LR == 0 {
		c.LR = 0.025
	}
	if c.Seed == 0 {
		c.Seed = 13
	}
	return c
}

// DeepWalk learns node embeddings for the given nodes; the returned
// matrix rows align with the nodes slice. Nodes without edges receive
// their (random) initial vectors.
func DeepWalk(g *graph.Snapshot, nodes []graph.NodeID, cfg DeepWalkConfig) *tensor.Matrix {
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	n := len(nodes)
	index := make(map[graph.NodeID]int, n)
	for i, u := range nodes {
		index[u] = i
	}
	// Local adjacency restricted to the embedded node set.
	adj := make([][]int, n)
	for i, u := range nodes {
		for _, v := range g.Neighbors(u) {
			if j, ok := index[v]; ok {
				adj[i] = append(adj[i], j)
			}
		}
	}
	emb := tensor.New(n, cfg.Dim)
	ctx := tensor.New(n, cfg.Dim)
	for i := range emb.Data {
		emb.Data[i] = (rng.Float64() - 0.5) / float64(cfg.Dim)
	}

	walk := make([]int, 0, cfg.WalkLength)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := rng.Perm(n)
		for _, start := range order {
			for w := 0; w < cfg.WalksPerNode; w++ {
				walk = walk[:0]
				cur := start
				for len(walk) < cfg.WalkLength {
					walk = append(walk, cur)
					if len(adj[cur]) == 0 {
						break
					}
					cur = adj[cur][rng.Intn(len(adj[cur]))]
				}
				trainWalk(emb, ctx, walk, cfg, rng)
			}
		}
	}
	return emb
}

// trainWalk applies skip-gram with negative sampling over one walk.
func trainWalk(emb, ctx *tensor.Matrix, walk []int, cfg DeepWalkConfig, rng *tensor.RNG) {
	n := emb.Rows
	for ci, center := range walk {
		lo := ci - cfg.Window
		if lo < 0 {
			lo = 0
		}
		hi := ci + cfg.Window
		if hi >= len(walk) {
			hi = len(walk) - 1
		}
		for wi := lo; wi <= hi; wi++ {
			if wi == ci {
				continue
			}
			sgdPair(emb.Row(center), ctx.Row(walk[wi]), 1, cfg.LR)
			for k := 0; k < cfg.NegSamples; k++ {
				sgdPair(emb.Row(center), ctx.Row(rng.Intn(n)), 0, cfg.LR)
			}
		}
	}
}

// sgdPair applies one logistic SGD step on (center, context).
func sgdPair(v, c []float64, label, lr float64) {
	var dot float64
	for i := range v {
		dot += v[i] * c[i]
	}
	g := lr * (label - 1/(1+math.Exp(-dot)))
	for i := range v {
		vi := v[i]
		v[i] += g * c[i]
		c[i] += g * vi
	}
}

// DTX is the DeepTrax baseline: DeepWalk embeddings classified by GBDT.
// WithFeatures=false is DTX1 (embeddings only); true is DTX2
// (embeddings concatenated with the original features).
type DTX struct {
	Walk         DeepWalkConfig
	GBDT         GBDT
	WithFeatures bool
}

// Name returns DTX1 or DTX2.
func (m *DTX) Name() string {
	if m.WithFeatures {
		return "DTX2"
	}
	return "DTX1"
}

// BuildFeatures computes the DTX input rows for nodes.
func (m *DTX) BuildFeatures(g *graph.Snapshot, nodes []graph.NodeID, original *tensor.Matrix) *tensor.Matrix {
	emb := DeepWalk(g, nodes, m.Walk)
	if !m.WithFeatures || original == nil {
		return emb
	}
	return original.ConcatCols(emb)
}
