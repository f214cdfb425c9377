package eval

import (
	"fmt"
	"strings"
	"time"

	"turbo/internal/datagen"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// ScalePoint is one x-position of Fig. 8b: BN size versus full-graph
// training epoch time, subgraph sampling latency, and single-prediction
// latency.
type ScalePoint struct {
	Scale      int
	Nodes      int
	Edges      int
	TrainEpoch time.Duration
	Sample     time.Duration
	Predict    time.Duration
}

// RenderScalability prints the Fig. 8b series.
func RenderScalability(points []ScalePoint) string {
	var b strings.Builder
	b.WriteString("Figure 8b — scalability of graph computing operations\n")
	fmt.Fprintf(&b, "%6s %8s %9s %14s %12s %12s\n", "scale", "nodes", "edges", "train/epoch", "sample", "predict")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %8d %9d %14v %12v %12v\n", p.Scale, p.Nodes, p.Edges, p.TrainEpoch, p.Sample, p.Predict)
	}
	return b.String()
}

// RunScalability measures each scale multiplier applied to the base
// user count: epoch training time over the entire BN (expected linear in
// BN size), and mean sampling/prediction latency over probe audits
// (expected to grow slowly).
func RunScalability(base datagen.Config, scales []int, h Hyper, seed uint64) []ScalePoint {
	h = h.withDefaults()
	var out []ScalePoint
	for _, scale := range scales {
		cfg := base
		cfg.Users = base.Users * scale
		cfg.Seed = base.Seed + uint64(scale)
		a := Assemble(cfg, AssembleOptions{SplitSeed: seed})
		b := a.FullBatch()
		m := NewHAG(HAGFull, h.hagConfig(b.X.Cols, a.Graph.NumEdgeTypes(), seed))

		// Train a few epochs and take the average epoch wall time.
		const probeEpochs = 3
		tc := h.trainConfig(seed)
		tc.Epochs = probeEpochs
		stats := gnn.Train(m, b, a.TrainIdx, a.Labels, tc)

		// Probe sampling + single-node prediction latency the way an audit
		// pays them: the sample cut to the model's cone.
		rng := tensor.NewRNG(seed)
		const probes = 30
		var sampleTotal, predictTotal time.Duration
		for k := 0; k < probes; k++ {
			u := a.Nodes[rng.Intn(len(a.Nodes))]
			t0 := time.Now()
			sg := a.Graph.Sample(u, graph.SampleOptions{Hops: 2, MaxNeighbors: 32, Layers: gnn.Depth(m)})
			sampleTotal += time.Since(t0)
			x := tensor.New(sg.NumNodes(), a.X.Cols)
			for i, n := range sg.Nodes {
				copy(x.Row(i), a.X.Row(int(n)))
			}
			t1 := time.Now()
			gnn.Score(m, gnn.NewBatch(sg, x))
			predictTotal += time.Since(t1)
		}
		out = append(out, ScalePoint{
			Scale:      scale,
			Nodes:      a.Graph.NumNodes(),
			Edges:      a.Graph.NumEdges(),
			TrainEpoch: stats.Elapsed / probeEpochs,
			Sample:     sampleTotal / probes,
			Predict:    predictTotal / probes,
		})
	}
	return out
}
