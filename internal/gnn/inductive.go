package gnn

import (
	"math"
	"time"

	"turbo/internal/autodiff"
	"turbo/internal/graph"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// InductiveConfig controls minibatch inductive training: per step, a
// batch of target users' computation subgraphs is sampled (GraphSAGE
// style, the paper uses batch size 256), merged, and the loss is taken
// on the target rows only. This is the training mode matching the
// paper's online inference exactly — the model only ever sees sampled
// neighborhoods, never the full BN.
type InductiveConfig struct {
	TrainConfig
	BatchSize    int // 0 selects 256
	Hops         int // 0 selects 2
	MaxNeighbors int // 0 selects 25
}

func (c InductiveConfig) withDefaults() InductiveConfig {
	c.TrainConfig = c.TrainConfig.withDefaults()
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.MaxNeighbors == 0 {
		c.MaxNeighbors = 25
	}
	return c
}

// FeatureFunc returns the (already normalized) feature row of a node.
type FeatureFunc func(graph.NodeID) []float64

// TrainInductive fits the model with neighbor-sampled minibatches over
// the BN g. trainNodes carries the target users and labels their labels
// (aligned). The model must have been built for the feature dimension
// returned by feats.
func TrainInductive(m Model, g *graph.Snapshot, feats FeatureFunc, trainNodes []graph.NodeID, labels []float64, cfg InductiveConfig) TrainStats {
	cfg = cfg.withDefaults()
	start := time.Now()
	opt := nn.NewAdam(m, cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	rng := tensor.NewRNG(cfg.Seed)

	var posW float64 = 1
	if cfg.BalanceClasses {
		var pos int
		for _, l := range labels {
			if l > 0.5 {
				pos++
			}
		}
		if neg := len(labels) - pos; pos > 0 && neg > 0 {
			posW = math.Sqrt(float64(neg) / float64(pos))
		}
	}

	order := make([]int, len(trainNodes))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			targets := order[lo:hi]
			batch, targetRows := SampleBatch(g, feats, pick(trainNodes, targets), cfg.Hops, cfg.MaxNeighbors, rng)
			batchLabels := make([]float64, len(targets))
			weights := make([]float64, len(targets))
			for k, idx := range targets {
				batchLabels[k] = labels[idx]
				if labels[idx] > 0.5 {
					weights[k] = posW
				} else {
					weights[k] = 1
				}
			}
			tape := autodiff.NewTape()
			logits := m.Forward(tape, batch, rng)
			sel := tape.SelectRows(logits, targetRows)
			loss := tape.WeightedBCEWithLogits(sel, batchLabels, weights)
			lastLoss = loss.Scalar()
			if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
				return TrainStats{Epochs: epoch, FinalLoss: lastLoss, Elapsed: time.Since(start)}
			}
			tape.Backward(loss)
			nn.ClipGradNorm(m, cfg.ClipNorm)
			opt.Step()
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, lastLoss)
		}
	}
	return TrainStats{Epochs: cfg.Epochs, FinalLoss: lastLoss, Elapsed: time.Since(start)}
}

func pick(nodes []graph.NodeID, idx []int) []graph.NodeID {
	out := make([]graph.NodeID, len(idx))
	for k, i := range idx {
		out[k] = nodes[i]
	}
	return out
}

// SampleBatch merges the sampled computation subgraphs of the target
// nodes into one Batch and returns the local row index of each target.
// Overlapping neighborhoods share nodes, so the merged batch is usually
// far smaller than the sum of individual subgraphs.
func SampleBatch(g *graph.Snapshot, feats FeatureFunc, targets []graph.NodeID, hops, maxNeighbors int, rng *tensor.RNG) (*Batch, []int) {
	merged := &graph.Subgraph{TypedEdges: make([][]graph.LocalEdge, g.NumEdgeTypes())}
	index := make(map[graph.NodeID]int)
	addNode := func(n graph.NodeID, hop int) int {
		if i, ok := index[n]; ok {
			return i
		}
		i := len(merged.Nodes)
		index[n] = i
		merged.Nodes = append(merged.Nodes, n)
		merged.Hops = append(merged.Hops, hop)
		return i
	}
	targetRows := make([]int, len(targets))
	seenEdge := make(map[[3]int]bool)
	for k, target := range targets {
		sg := g.Sample(target, graph.SampleOptions{Hops: hops, MaxNeighbors: maxNeighbors, RNG: rng})
		local := make([]int, sg.NumNodes())
		for i, n := range sg.Nodes {
			local[i] = addNode(n, sg.Hops[i])
		}
		targetRows[k] = local[0]
		for t, es := range sg.TypedEdges {
			for _, e := range es {
				key := [3]int{t, local[e.Src], local[e.Dst]}
				if seenEdge[key] {
					continue
				}
				seenEdge[key] = true
				merged.TypedEdges[t] = append(merged.TypedEdges[t],
					graph.LocalEdge{Src: local[e.Src], Dst: local[e.Dst], Weight: e.Weight})
			}
		}
	}
	x := tensor.New(len(merged.Nodes), len(feats(merged.Nodes[0])))
	for i, n := range merged.Nodes {
		copy(x.Row(i), feats(n))
	}
	return NewBatch(merged, x), targetRows
}
