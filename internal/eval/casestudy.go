package eval

import (
	"fmt"
	"strings"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/tensor"
)

// CaseStudy is the Fig. 9 artifact: a small subgraph around a detected
// fraud node, each node's class, and the influence-distribution matrix
// (column i is node i's influence distribution D_i).
type CaseStudy struct {
	Subgraph  *graph.Subgraph
	Fraud     []bool // per subgraph node
	Scores    []float64
	Influence *tensor.Matrix
}

// RunCaseStudy trains HAG, picks a fraud node with ring neighbors,
// samples its 2-hop computation subgraph (capped for readability), and
// computes the influence matrix of Definition 1.
func RunCaseStudy(a *Assembled, h Hyper, seed uint64, maxNeighbors int) CaseStudy {
	h = h.withDefaults()
	m, fullBatch := TrainHAG(a, HAGFull, h, seed)
	scores := gnn.Scores(m, fullBatch)

	// Choose the highest-scoring fraud node with at least 3 neighbors.
	best, bestScore := -1, -1.0
	for i := range a.Data.Users {
		if !a.Bools[i] {
			continue
		}
		if a.Graph.Degree(a.Nodes[i]) < 3 {
			continue
		}
		if scores[i] > bestScore {
			best, bestScore = i, scores[i]
		}
	}
	if best < 0 {
		best = 0
	}
	if maxNeighbors <= 0 {
		maxNeighbors = 6
	}
	sg := a.Graph.Sample(a.Nodes[best], graph.SampleOptions{Hops: 2, MaxNeighbors: maxNeighbors})
	x := tensor.New(sg.NumNodes(), a.X.Cols)
	fraud := make([]bool, sg.NumNodes())
	nodeScores := make([]float64, sg.NumNodes())
	for i, n := range sg.Nodes {
		copy(x.Row(i), a.X.Row(int(n)))
		fraud[i] = a.Bools[int(n)]
		nodeScores[i] = scores[int(n)]
	}
	b := gnn.NewBatch(sg, x)
	return CaseStudy{
		Subgraph:  sg,
		Fraud:     fraud,
		Scores:    nodeScores,
		Influence: influenceOf(m, b),
	}
}

func influenceOf(m *hag.HAG, b *gnn.Batch) *tensor.Matrix {
	return m.InfluenceMatrix(b)
}

// MeanIntraFraudInfluence summarizes Fig. 9: the average influence fraud
// nodes exert on each other versus the average influence across all
// other node pairs. Fraud-to-fraud influence exceeding the background is
// the paper's observation.
func (c CaseStudy) MeanIntraFraudInfluence() (intraFraud, background float64) {
	var sumF, nF, sumB, nB float64
	n := c.Influence.Rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := c.Influence.At(j, i) // column i is D_i
			if c.Fraud[i] && c.Fraud[j] {
				sumF += v
				nF++
			} else {
				sumB += v
				nB++
			}
		}
	}
	if nF > 0 {
		intraFraud = sumF / nF
	}
	if nB > 0 {
		background = sumB / nB
	}
	return intraFraud, background
}

// String renders the heat map as text.
func (c CaseStudy) String() string {
	var b strings.Builder
	n := c.Influence.Rows
	fmt.Fprintf(&b, "Figure 9 — influence distributions on a %d-node case subgraph\n", n)
	b.WriteString("node classes: ")
	for i := 0; i < n; i++ {
		if c.Fraud[i] {
			b.WriteString("F")
		} else {
			b.WriteString(".")
		}
	}
	b.WriteString("\n")
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%5.2f ", c.Influence.At(j, i))
		}
		b.WriteString("\n")
	}
	intra, back := c.MeanIntraFraudInfluence()
	fmt.Fprintf(&b, "mean intra-fraud influence %.4f vs background %.4f\n", intra, back)
	return b.String()
}
