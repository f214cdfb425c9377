package baselines

import (
	"fmt"

	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// GraphFeatureNames names the columns produced by GraphFeatures for a
// graph with numTypes edge types.
func GraphFeatureNames(numTypes int) []string {
	names := []string{
		"degree", "weighted_degree", "clustering_coeff",
		"two_hop_size", "mean_neighbor_degree", "multi_type_neighbors",
	}
	for t := 0; t < numTypes; t++ {
		names = append(names, fmt.Sprintf("deg_type_%d", t))
	}
	return names
}

// GraphFeatures extracts the BLP-style handcrafted graph features of Min
// et al. for each node: degrees, local clustering coefficient, 2-hop
// neighborhood size, mean neighbor degree, the multi-type-neighbor count
// (a quadrangle proxy on the user–behavior bipartite graph: neighbors
// reached through ≥2 distinct behavior types), and per-type degrees.
// Rows align with the nodes slice.
func GraphFeatures(g *graph.Snapshot, nodes []graph.NodeID) *tensor.Matrix {
	numTypes := g.NumEdgeTypes()
	cols := 6 + numTypes
	out := tensor.New(len(nodes), cols)
	for i, u := range nodes {
		row := out.Row(i)
		neigh := g.Neighbors(u)
		row[0] = float64(len(neigh))
		row[1] = g.WeightedDegree(u)
		row[2] = clusteringCoeff(g, u, neigh)
		twoHop := make(map[graph.NodeID]struct{})
		var degSum float64
		multiType := 0
		for _, v := range neigh {
			degSum += float64(g.Degree(v))
			for _, w := range g.Neighbors(v) {
				if w != u {
					twoHop[w] = struct{}{}
				}
			}
			types := 0
			for t := 0; t < numTypes; t++ {
				if g.EdgeWeight(graph.EdgeType(t), u, v) > 0 {
					types++
				}
			}
			if types >= 2 {
				multiType++
			}
		}
		row[3] = float64(len(twoHop))
		if len(neigh) > 0 {
			row[4] = degSum / float64(len(neigh))
		}
		row[5] = float64(multiType)
		for t := 0; t < numTypes; t++ {
			row[6+t] = float64(len(g.NeighborsByType(u, graph.EdgeType(t))))
		}
	}
	return out
}

// clusteringCoeff is the local clustering coefficient of u on the
// type-merged graph: closed neighbor pairs / all neighbor pairs.
func clusteringCoeff(g *graph.Snapshot, u graph.NodeID, neigh []graph.NodeID) float64 {
	n := len(neigh)
	if n < 2 {
		return 0
	}
	set := make(map[graph.NodeID]struct{}, n)
	for _, v := range neigh {
		set[v] = struct{}{}
	}
	links := 0
	for _, v := range neigh {
		for _, w := range g.Neighbors(v) {
			if w == u || w <= v {
				continue
			}
			if _, ok := set[w]; ok {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(n) * float64(n-1))
}

// FilterGraphTypes returns a snapshot of a copy of g containing only
// edges of the given types. BLP uses it to build its
// application-information graph: Min et al. connect applications through
// form data (devices, contact and delivery addresses), not through the
// real-time behavior logs — exactly the limitation the paper's
// introduction attributes to prior graph methods.
func FilterGraphTypes(g *graph.Snapshot, keep []graph.EdgeType) *graph.Snapshot {
	out := graph.New(g.NumEdgeTypes())
	for _, n := range g.Nodes() {
		out.AddNode(n)
	}
	for _, e := range g.Edges() {
		for _, t := range keep {
			if e.Type == t {
				// Errors cannot occur: edges come from a valid graph.
				_ = out.AddEdgeWeight(e.Type, e.U, e.V, e.Weight, e.ExpireAt)
				break
			}
		}
	}
	return out.Snapshot()
}

// BLP is the Behavior Language Processing baseline: handcrafted graph
// features from the application-information graph concatenated with the
// original features, classified by GBDT (the paper uses LightGBM).
type BLP struct {
	GBDT GBDT
	// AppGraphTypes restricts the graph features to application-form
	// relations; nil selects Device ID + delivery addresses + workplace.
	AppGraphTypes []graph.EdgeType
}

// Name implements Classifier-style naming (BLP is fit via FitGraph).
func (m *BLP) Name() string { return "BLP" }

// DefaultAppGraphTypes is the application-information relation set.
func DefaultAppGraphTypes() []graph.EdgeType {
	return []graph.EdgeType{0 /* DeviceID */, 7 /* GPSDev */, 8 /* GPSDev100 */, 9 /* Workplace */}
}

// BuildFeatures assembles [original ; application-graph] feature rows.
func (m *BLP) BuildFeatures(g *graph.Snapshot, nodes []graph.NodeID, original *tensor.Matrix) *tensor.Matrix {
	keep := m.AppGraphTypes
	if keep == nil {
		keep = DefaultAppGraphTypes()
	}
	gf := GraphFeatures(FilterGraphTypes(g, keep), nodes)
	if original == nil {
		return gf
	}
	return original.ConcatCols(gf)
}
