package graph

import (
	"cmp"
	"math"
	"slices"

	"turbo/internal/tensor"
)

// LocalEdge is an edge inside a Subgraph, expressed in local indices.
type LocalEdge struct {
	Src, Dst int // local node indices
	Weight   float64
}

// Subgraph is the computation subgraph G_v of §III-A: the k-hop
// neighborhood a GNN needs to compute the target node's representation,
// extracted so inference is inductive (the model never sees the full BN).
// Nodes[0] is always the target node. TypedEdges[t] holds, per edge type,
// the directed adjacency (both directions of each undirected edge) with
// the §III-A symmetric normalized weights.
type Subgraph struct {
	Nodes      []NodeID
	TypedEdges [][]LocalEdge
	// Hops is the BFS label of each node: the hop at which sampling first
	// reached it. It is not the node's distance in TypedEdges: a target
	// neighbor beyond MaxNeighbors can re-enter at hop 2 and is still
	// adjacent to the target.
	Hops []int
	// Layers is the SampleOptions.Layers the sample was cut for; 0 means
	// every induced edge is present. A model deeper than a cut sample
	// would read rows whose in-edges were dropped, so the scoring entry
	// points of package gnn refuse that pairing.
	Layers int
}

// NumNodes returns the node count.
func (s *Subgraph) NumNodes() int { return len(s.Nodes) }

// NumEdges returns the number of directed typed edges.
func (s *Subgraph) NumEdges() int {
	n := 0
	for _, es := range s.TypedEdges {
		n += len(es)
	}
	return n
}

// SampleOptions controls computation-subgraph extraction.
type SampleOptions struct {
	// Hops is the neighborhood radius (the paper uses k = 2).
	Hops int
	// MaxNeighbors caps the number of neighbors expanded per node per
	// type per hop (GraphSAGE-style fixed-size sampling). 0 = unlimited.
	MaxNeighbors int
	// Filter, when non-nil, restricts the subgraph to accepted nodes;
	// the BN server uses it to keep only users with transactions.
	Filter func(NodeID) bool
	// RNG drives neighbor sampling when MaxNeighbors truncates; nil
	// selects the highest-weight neighbors deterministically.
	RNG *tensor.RNG
	// RawWeights disables the symmetric normalization (used by ablation
	// benches); the default is normalized weights as in the paper.
	RawWeights bool
	// Mask omits all edges of one type (Fig. 7 edge ablation). The zero
	// value NoMask keeps every type; use MaskEdgeType to build a mask.
	Mask EdgeMask
	// Layers, when positive, is the number of message-passing layers of
	// the model that will score the target, and cuts the sample to the
	// target's computation cone: only edges whose destination is within
	// Layers−1 hops of the target in the induced edges are emitted, since
	// a target-row forward of that depth reads no other row's
	// aggregation. Nodes, their order and the entry order of every kept
	// destination row are those of the full sample. 0 keeps the full
	// induced subgraph (training, DOT, all-node scoring).
	Layers int
}

// EdgeMask optionally designates one edge type to exclude from sampling.
// The zero value excludes nothing.
type EdgeMask int

// NoMask keeps all edge types.
const NoMask EdgeMask = 0

// MaskEdgeType returns a mask excluding edges of type t.
func MaskEdgeType(t EdgeType) EdgeMask { return EdgeMask(t) + 1 }

// masked returns the excluded type index, or -1.
func (m EdgeMask) masked() int { return int(m) - 1 }

// Sample extracts the computation subgraph of target from the live graph.
func (g *Graph) Sample(target NodeID, opts SampleOptions) *Subgraph {
	return SampleView(g, target, opts)
}

// SampleView extracts the computation subgraph of target under opts from
// any GraphView. The target is always included even when Filter rejects
// it. It is the reference Snapshot.Sample is tested against; serving
// reaches it only for a user registered after the last snapshot.
func SampleView(g GraphView, target NodeID, opts SampleOptions) *Subgraph {
	if opts.Hops <= 0 {
		opts.Hops = 2
	}
	numTypes := g.NumEdgeTypes()
	masked := opts.Mask.masked()
	sg := &Subgraph{
		Nodes:      []NodeID{target},
		TypedEdges: make([][]LocalEdge, numTypes),
		Hops:       []int{0},
		Layers:     opts.Layers,
	}
	index := map[NodeID]int{target: 0}
	frontier := []NodeID{target}
	for hop := 1; hop <= opts.Hops; hop++ {
		var next []NodeID
		for _, u := range frontier {
			for t := 0; t < numTypes; t++ {
				if t == masked {
					continue
				}
				ns := g.NeighborsByType(u, EdgeType(t))
				ns = filterNeighbors(ns, opts.Filter)
				ns = capNeighbors(ns, opts.MaxNeighbors, opts.RNG)
				for _, nb := range ns {
					if _, ok := index[nb.Node]; !ok {
						index[nb.Node] = len(sg.Nodes)
						sg.Nodes = append(sg.Nodes, nb.Node)
						sg.Hops = append(sg.Hops, hop)
						next = append(next, nb.Node)
					}
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	// Materialize all typed edges among included nodes. Typed weighted
	// degrees (over the full graph, as the paper normalizes) are cached
	// per subgraph node to avoid rescanning adjacency per edge.
	for t := 0; t < numTypes; t++ {
		if t == masked {
			continue
		}
		var deg []float64
		if !opts.RawWeights {
			deg = make([]float64, len(sg.Nodes))
			for li, u := range sg.Nodes {
				deg[li] = g.TypedWeightedDegree(u, EdgeType(t))
			}
		}
		for li, u := range sg.Nodes {
			for _, nb := range g.NeighborsByType(u, EdgeType(t)) {
				lj, ok := index[nb.Node]
				if !ok {
					continue
				}
				w := nb.Weight
				if !opts.RawWeights {
					if deg[li] == 0 || deg[lj] == 0 {
						continue
					}
					w = nb.Weight / math.Sqrt(deg[li]*deg[lj])
				}
				if w <= 0 {
					continue
				}
				sg.TypedEdges[t] = append(sg.TypedEdges[t], LocalEdge{Src: li, Dst: lj, Weight: w})
			}
		}
	}
	if opts.Layers > 0 {
		sg.cutToCone(opts.Layers)
	}
	return sg
}

// cutToCone drops, from a full sample, every edge whose destination is
// more than layers−1 hops from the target. Distances are taken over the
// sample's own edges (an edge Src→Dst makes Src an in-neighbor of Dst),
// never from Hops.
func (sg *Subgraph) cutToCone(layers int) {
	dist := make([]int, len(sg.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	for d := 0; d < layers-1; d++ {
		for _, es := range sg.TypedEdges {
			for _, e := range es {
				if dist[e.Dst] == d && dist[e.Src] < 0 {
					dist[e.Src] = d + 1
				}
			}
		}
	}
	for t, es := range sg.TypedEdges {
		sg.TypedEdges[t] = slices.DeleteFunc(es, func(e LocalEdge) bool { return dist[e.Dst] < 0 })
	}
}

func filterNeighbors(ns []Neighbor, filter func(NodeID) bool) []Neighbor {
	if filter == nil {
		return ns
	}
	out := ns[:0]
	for _, n := range ns {
		if filter(n.Node) {
			out = append(out, n)
		}
	}
	return out
}

// heavier is the deterministic cap order: weight descending, ties by
// ascending node ID.
func heavier(a, b Neighbor) int {
	if a.Weight != b.Weight {
		return cmp.Compare(b.Weight, a.Weight)
	}
	return cmp.Compare(a.Node, b.Node)
}

// capNeighbors selects at most max of ns, reordering ns in place: the
// heaviest in cap order when rng is nil, a uniform draw otherwise.
func capNeighbors(ns []Neighbor, max int, rng *tensor.RNG) []Neighbor {
	if max <= 0 || len(ns) <= max {
		return ns
	}
	if rng != nil {
		rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
		return ns[:max]
	}
	// A hub's row is many times the cap, so sorting all of it to keep the
	// head is most of what sampling costs. Keep the max best so far in a
	// heap with the worst on top, which rejects most of the row at one
	// comparison each, and sort only the survivors.
	top := ns[:max]
	sift := func(i int) {
		for {
			worst := i
			for c := 2*i + 1; c <= 2*i+2 && c < max; c++ {
				if heavier(top[c], top[worst]) > 0 {
					worst = c
				}
			}
			if worst == i {
				return
			}
			top[i], top[worst] = top[worst], top[i]
			i = worst
		}
	}
	for i := max/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for _, nb := range ns[max:] {
		if heavier(nb, top[0]) < 0 {
			top[0] = nb
			sift(0)
		}
	}
	slices.SortFunc(top, heavier)
	return top
}

// FraudRatioByHop delegates to FraudRatioByHopView on the live graph.
func (g *Graph) FraudRatioByHop(u NodeID, maxHops, onlyType int, isFraud func(NodeID) bool) []float64 {
	return FraudRatioByHopView(g, u, maxHops, onlyType, isFraud)
}

// FraudRatioByHop delegates to FraudRatioByHopView on the snapshot.
func (s *Snapshot) FraudRatioByHop(u NodeID, maxHops, onlyType int, isFraud func(NodeID) bool) []float64 {
	return FraudRatioByHopView(s, u, maxHops, onlyType, isFraud)
}

// FraudRatioByHopView returns, for each hop 1..maxHops from node u, the
// fraction of nodes at exactly that hop for which isFraud is true. It
// backs the Fig. 4d–g homophily study: onlyType < 0 walks all edge types
// (Fig. 4d); onlyType >= 0 restricts the walk to that edge type
// (Fig. 4e–g per-type homophily). A hop with no nodes reports 0.
func FraudRatioByHopView(g GraphView, u NodeID, maxHops, onlyType int, isFraud func(NodeID) bool) []float64 {
	hops := hopSets(g, u, maxHops, onlyType)
	out := make([]float64, maxHops)
	for h := 1; h <= maxHops; h++ {
		set := hops[h]
		if len(set) == 0 {
			continue
		}
		fraud := 0
		for v := range set {
			if isFraud(v) {
				fraud++
			}
		}
		out[h-1] = float64(fraud) / float64(len(set))
	}
	return out
}

// MeanDegreeByHop delegates to MeanDegreeByHopView on the live graph.
func (g *Graph) MeanDegreeByHop(u NodeID, maxHops int, weighted bool) []float64 {
	return MeanDegreeByHopView(g, u, maxHops, weighted)
}

// MeanDegreeByHop delegates to MeanDegreeByHopView on the snapshot.
func (s *Snapshot) MeanDegreeByHop(u NodeID, maxHops int, weighted bool) []float64 {
	return MeanDegreeByHopView(s, u, maxHops, weighted)
}

// MeanDegreeByHopView returns the mean (optionally weighted) degree of
// the nodes at each hop 1..maxHops from u — the Fig. 4h/4i structural
// study.
func MeanDegreeByHopView(g GraphView, u NodeID, maxHops int, weighted bool) []float64 {
	hops := hopSets(g, u, maxHops, -1) // all edge types
	out := make([]float64, maxHops)
	for h := 1; h <= maxHops; h++ {
		set := hops[h]
		if len(set) == 0 {
			continue
		}
		var s float64
		for v := range set {
			if weighted {
				s += g.WeightedDegree(v)
			} else {
				s += float64(g.Degree(v))
			}
		}
		out[h-1] = s / float64(len(set))
	}
	return out
}

// hopSets returns, for hops 0..maxHops, the set of nodes first reached at
// exactly that hop; onlyType >= 0 restricts the walk to that edge type.
func hopSets(g GraphView, u NodeID, maxHops, onlyType int) []map[NodeID]struct{} {
	numTypes := g.NumEdgeTypes()
	sets := make([]map[NodeID]struct{}, maxHops+1)
	sets[0] = map[NodeID]struct{}{u: {}}
	visited := map[NodeID]struct{}{u: {}}
	frontier := []NodeID{u}
	for h := 1; h <= maxHops; h++ {
		sets[h] = make(map[NodeID]struct{})
		var next []NodeID
		for _, x := range frontier {
			for t := 0; t < numTypes; t++ {
				if onlyType >= 0 && t != onlyType {
					continue
				}
				for _, nb := range g.NeighborsByType(x, EdgeType(t)) {
					if _, ok := visited[nb.Node]; ok {
						continue
					}
					visited[nb.Node] = struct{}{}
					sets[h][nb.Node] = struct{}{}
					next = append(next, nb.Node)
				}
			}
		}
		frontier = next
	}
	return sets
}
