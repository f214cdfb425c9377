package graph

import (
	"math"
	"slices"
	"time"
)

// Snapshot is an immutable, lock-free view of a Graph at one epoch:
// flat CSR-like adjacency arrays per edge type plus precomputed typed
// weighted degrees, so EdgeWeight/NormalizedWeight are O(log d) binary
// searches with no lock and no degree scan. Snapshots are published by
// Graph.Snapshot() (copy-on-write: the live graph keeps mutating, the
// snapshot never changes) and are safe for unbounded concurrent use.
//
// Nodes are addressed by dense rows assigned in ascending ID order, and
// the adjacency stores neighbour rows, not IDs: a reader that walks
// rows (Sample, FullSubgraph) indexes per-row arrays directly and never
// hashes a neighbour. Because rows ascend with IDs, every "ascending
// neighbour ID" order is also ascending row order.
type Snapshot struct {
	epoch    uint64
	numTypes int

	ids   []NodeID         // row → ID, ascending
	index map[NodeID]int32 // ID → row

	// Per type t, row i spans [offsets[t][i], offsets[t][i+1]) of the flat
	// arrays: nbr holds the neighbour rows in ascending order, wts and exp
	// run parallel to it, and capOrd lists the same span's flat indices in
	// cap order (weight descending, ties by ascending ID: heavier), so a
	// deterministic MaxNeighbors cap is a prefix scan.
	offsets [][]int32
	nbr     [][]int32
	wts     [][]float64
	exp     [][]time.Time
	capOrd  [][]int32
	deg     [][]float64 // deg[t][i] = typed weighted degree of ids[i]

	numEdges    int
	edgesByType []int
}

// Snapshot publishes an immutable view of the current graph state. It
// briefly read-locks every shard simultaneously (so no half-written edge
// is ever captured), copies adjacency into flat arrays, orders every row
// for the cap, and stamps the result with a monotonically increasing
// epoch. Cost is O(V + E log d); the BN server calls it once per
// scheduler tick, off the prediction path.
func (g *Graph) Snapshot() *Snapshot {
	for i := range g.shards {
		g.shards[i].mu.RLock()
	}
	defer func() {
		for i := range g.shards {
			g.shards[i].mu.RUnlock()
		}
	}()

	s := &Snapshot{
		epoch:    g.epoch.Add(1),
		numTypes: g.numTypes,
		numEdges: int(g.edgeCount.Load()),
	}
	s.edgesByType = make([]int, g.numTypes)
	for t := range s.edgesByType {
		s.edgesByType[t] = int(g.edgesByType[t].Load())
	}

	s.ids = make([]NodeID, 0, g.nodeCount.Load())
	for i := range g.shards {
		for id := range g.shards[i].nodes {
			s.ids = append(s.ids, id)
		}
	}
	slices.Sort(s.ids)
	n := len(s.ids)
	s.index = make(map[NodeID]int32, n)
	for i, id := range s.ids {
		s.index[id] = int32(i)
	}

	s.offsets = make([][]int32, g.numTypes)
	s.nbr = make([][]int32, g.numTypes)
	s.wts = make([][]float64, g.numTypes)
	s.exp = make([][]time.Time, g.numTypes)
	s.capOrd = make([][]int32, g.numTypes)
	s.deg = make([][]float64, g.numTypes)
	for t := 0; t < g.numTypes; t++ {
		halves := 2 * s.edgesByType[t]
		s.offsets[t] = make([]int32, n+1)
		s.nbr[t] = make([]int32, 0, halves)
		s.wts[t] = make([]float64, 0, halves)
		s.exp[t] = make([]time.Time, 0, halves)
		s.capOrd[t] = make([]int32, 0, halves)
		s.deg[t] = make([]float64, n)
	}
	var buf []int32
	for i, id := range s.ids {
		na := g.shards[shardOf(id)].adj[id]
		for t := 0; t < g.numTypes; t++ {
			if na != nil {
				base := int32(len(s.nbr[t]))
				for _, e := range na.byType[t] {
					s.nbr[t] = append(s.nbr[t], s.index[e.to])
					s.wts[t] = append(s.wts[t], e.weight)
					s.exp[t] = append(s.exp[t], e.expireAt)
				}
				s.capOrd[t], buf = appendCapOrder(s.capOrd[t], buf, s.wts[t][base:], base)
				s.deg[t][i] = na.deg[t]
			}
			s.offsets[t][i+1] = int32(len(s.nbr[t]))
		}
	}
	return s
}

// capRun is the run length appendCapOrder insertion-sorts before it
// merges; a row no longer than this is one run.
const capRun = 32

// appendCapOrder appends to ord the flat indices base, base+1, … of the
// row whose weights are wts, in cap order, merging through buf (reused
// scratch, returned grown). The entries arrive in ascending ID, so a
// stable sort by weight alone is heavier's order: insertion sorts of
// runs of capRun entries, which is all most BN rows need, then
// bottom-up merges that take the earlier run's entry on a tie.
func appendCapOrder(ord, buf []int32, wts []float64, base int32) ([]int32, []int32) {
	lo := len(ord)
	for j := range wts {
		ord = append(ord, base+int32(j))
	}
	row, n := ord[lo:], len(wts)
	for r := 0; r < n; r += capRun {
		run := row[r:min(r+capRun, n)]
		for i := 1; i < len(run); i++ {
			k, w := run[i], wts[run[i]-base]
			j := i
			for ; j > 0 && wts[run[j-1]-base] < w; j-- {
				run[j] = run[j-1]
			}
			run[j] = k
		}
	}
	if n <= capRun {
		return ord, buf
	}
	buf = slices.Grow(buf[:0], n)[:n]
	src, dst := row, buf
	for width := capRun; width < n; width *= 2 {
		for a := 0; a < n; a += 2 * width {
			m, b := min(a+width, n), min(a+2*width, n)
			i, j := a, m
			for k := a; k < b; k++ {
				if j == b || i < m && wts[src[i]-base] >= wts[src[j]-base] {
					dst[k], i = src[i], i+1
				} else {
					dst[k], j = src[j], j+1
				}
			}
		}
		src, dst = dst, src
	}
	copy(row, src)
	return ord, buf
}

// Epoch returns the snapshot's monotonically increasing publication
// number (unique per source graph).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumEdgeTypes returns how many edge types the snapshot supports.
func (s *Snapshot) NumEdgeTypes() int { return s.numTypes }

// NumNodes returns the number of registered nodes.
func (s *Snapshot) NumNodes() int { return len(s.ids) }

// NumEdges returns the number of distinct typed undirected edges.
func (s *Snapshot) NumEdges() int { return s.numEdges }

// Nodes returns all node IDs, sorted.
func (s *Snapshot) Nodes() []NodeID { return append([]NodeID(nil), s.ids...) }

// HasNode reports whether u was registered at snapshot time.
func (s *Snapshot) HasNode(u NodeID) bool {
	_, ok := s.index[u]
	return ok
}

// row returns the dense row of u, or -1.
func (s *Snapshot) row(u NodeID) int32 {
	if i, ok := s.index[u]; ok {
		return i
	}
	return -1
}

// rowSpan returns the [lo, hi) span of u's type-t adjacency.
func (s *Snapshot) rowSpan(u NodeID, t EdgeType) (int32, int32, bool) {
	if int(t) >= s.numTypes {
		return 0, 0, false
	}
	i := s.row(u)
	if i < 0 {
		return 0, 0, false
	}
	return s.offsets[t][i], s.offsets[t][i+1], true
}

// NeighborsByType returns u's neighbors over edges of type t, sorted by
// node ID.
func (s *Snapshot) NeighborsByType(u NodeID, t EdgeType) []Neighbor {
	lo, hi, ok := s.rowSpan(u, t)
	if !ok || lo == hi {
		return nil
	}
	ns := make([]Neighbor, hi-lo)
	for k := lo; k < hi; k++ {
		ns[k-lo] = Neighbor{Node: s.ids[s.nbr[t][k]], Weight: s.wts[t][k]}
	}
	return ns
}

// Neighbors returns u's distinct neighbors across all edge types, sorted.
func (s *Snapshot) Neighbors(u NodeID) []NodeID {
	i := s.row(u)
	if i < 0 {
		return nil
	}
	var rows []int32
	for t := 0; t < s.numTypes; t++ {
		rows = append(rows, s.nbr[t][s.offsets[t][i]:s.offsets[t][i+1]]...)
	}
	if len(rows) == 0 {
		return nil
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	out := make([]NodeID, len(rows))
	for k, r := range rows {
		out[k] = s.ids[r]
	}
	return out
}

// ForEachTypedNeighbor calls fn for every type-t neighbor of u in
// ascending node-ID order, with the raw (un-normalized) edge weight.
// Zero-allocation — the embedding star builder and the dirty-set BFS
// walk whole neighborhoods per node, where the allocating accessors
// would dominate.
func (s *Snapshot) ForEachTypedNeighbor(u NodeID, t EdgeType, fn func(v NodeID, w float64)) {
	lo, hi, ok := s.rowSpan(u, t)
	if !ok {
		return
	}
	for k := lo; k < hi; k++ {
		fn(s.ids[s.nbr[t][k]], s.wts[t][k])
	}
}

// ForEachNeighbor calls fn for every adjacency entry of u across all
// edge types; a neighbor connected by several types is visited once per
// type. Zero-allocation.
func (s *Snapshot) ForEachNeighbor(u NodeID, fn func(v NodeID)) {
	i := s.row(u)
	if i < 0 {
		return
	}
	for t := 0; t < s.numTypes; t++ {
		lo, hi := s.offsets[t][i], s.offsets[t][i+1]
		for k := lo; k < hi; k++ {
			fn(s.ids[s.nbr[t][k]])
		}
	}
}

// Degree returns the number of distinct neighbors of u across all types.
func (s *Snapshot) Degree(u NodeID) int { return len(s.Neighbors(u)) }

// WeightedDegree returns Σ over all types and neighbors of edge weights.
func (s *Snapshot) WeightedDegree(u NodeID) float64 {
	i := s.row(u)
	if i < 0 {
		return 0
	}
	var d float64
	for t := 0; t < s.numTypes; t++ {
		d += s.deg[t][i]
	}
	return d
}

// TypedWeightedDegree returns the precomputed deg'_r(u); O(1), no lock.
func (s *Snapshot) TypedWeightedDegree(u NodeID, t EdgeType) float64 {
	if int(t) >= s.numTypes {
		return 0
	}
	i := s.row(u)
	if i < 0 {
		return 0
	}
	return s.deg[t][i]
}

// findEdge binary-searches row ur's type-t adjacency for row vr and
// returns the flat index, or -1.
func (s *Snapshot) findEdge(t EdgeType, ur, vr int32) int32 {
	if int(t) >= s.numTypes || ur < 0 || vr < 0 {
		return -1
	}
	lo := s.offsets[t][ur]
	if k, ok := slices.BinarySearch(s.nbr[t][lo:s.offsets[t][ur+1]], vr); ok {
		return lo + int32(k)
	}
	return -1
}

// EdgeWeight returns the weight of the typed edge (u, v), or 0.
func (s *Snapshot) EdgeWeight(t EdgeType, u, v NodeID) float64 {
	if k := s.findEdge(t, s.row(u), s.row(v)); k >= 0 {
		return s.wts[t][k]
	}
	return 0
}

// NormalizedWeight returns the §III-A symmetric normalized weight in
// O(log d) with no lock: a binary search for the edge plus two O(1)
// precomputed degree lookups.
func (s *Snapshot) NormalizedWeight(t EdgeType, u, v NodeID) float64 {
	ur, vr := s.row(u), s.row(v)
	k := s.findEdge(t, ur, vr)
	if k < 0 {
		return 0
	}
	du, dv := s.deg[t][ur], s.deg[t][vr]
	if du == 0 || dv == 0 {
		return 0
	}
	return s.wts[t][k] / math.Sqrt(du*dv)
}

// EdgeCountByType returns the number of undirected edges per type.
func (s *Snapshot) EdgeCountByType() []int {
	return append([]int(nil), s.edgesByType...)
}

// Stats summarizes the snapshot's size.
func (s *Snapshot) Stats() Stats {
	return Stats{Nodes: s.NumNodes(), Edges: s.NumEdges(), EdgesByType: s.EdgeCountByType()}
}

// Edges returns every typed undirected edge once (U < V), sorted by
// (type, U, V).
func (s *Snapshot) Edges() []Edge {
	var es []Edge
	for t := 0; t < s.numTypes; t++ {
		for i, u := range s.ids {
			lo, hi := s.offsets[t][i], s.offsets[t][i+1]
			for k := lo; k < hi; k++ {
				if r := s.nbr[t][k]; int32(i) < r {
					es = append(es, Edge{Type: EdgeType(t), U: u, V: s.ids[r], Weight: s.wts[t][k], ExpireAt: s.exp[t][k]})
				}
			}
		}
	}
	// Rows are visited in ascending u and each row is sorted by v, so es
	// is already sorted by (type, U, V).
	return es
}
