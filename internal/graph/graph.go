// Package graph implements the time-evolving heterogeneous weighted
// multigraph underlying the behavior network (BN): user nodes connected
// by typed, weighted, TTL-bounded undirected edges, with k-hop subgraph
// extraction and the symmetric edge-weight normalization of §III-A.
//
// Storage is sharded by NodeID: each shard owns the adjacency of its
// nodes behind its own RWMutex, so concurrent window-job writes and
// reads on different shards never contend. Readers that must not touch
// any lock at all (the prediction path) consume an immutable Snapshot
// published by Snapshot(); both *Graph and *Snapshot satisfy the
// read-only GraphView interface.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a node (a user).
type NodeID uint32

// EdgeType identifies an edge type; in the BN it equals the behavior type.
type EdgeType uint8

// Edge is one typed, weighted undirected edge.
type Edge struct {
	Type     EdgeType
	U, V     NodeID
	Weight   float64
	ExpireAt time.Time
}

// Neighbor is one adjacency entry.
type Neighbor struct {
	Node   NodeID
	Weight float64
}

// halfEdge is one direction of an undirected edge. AddEdgeWeight always
// writes both halves with identical weight and expiry, so the two halves
// of an edge never disagree.
type halfEdge struct {
	to       NodeID
	weight   float64
	expireAt time.Time
}

// nodeAdj is the adjacency of one node: per edge type, a slice of half
// edges kept sorted by destination NodeID (binary-searchable), plus the
// cached typed weighted degree deg'_r(u) maintained incrementally so the
// §III-A normalization never rescans adjacency.
type nodeAdj struct {
	byType [][]halfEdge
	deg    []float64
}

// shard owns the registered-node set and adjacency of the NodeIDs that
// hash to it.
type shard struct {
	mu    sync.RWMutex
	nodes map[NodeID]struct{}
	adj   map[NodeID]*nodeAdj
}

// numShards is the shard count (power of two). 32 shards keep write
// contention negligible up to tens of scheduler goroutines while the
// full-lock operations (Snapshot) stay cheap.
const numShards = 32

func shardOf(u NodeID) uint32 { return uint32(u) & (numShards - 1) }

// Graph is a concurrency-safe heterogeneous multigraph. An edge of a
// given type between two nodes is unique; repeated additions accumulate
// weight and extend the TTL, matching Algorithm 1 where weights from
// different windows and window sizes sum onto a single typed edge.
type Graph struct {
	numTypes int
	shards   [numShards]shard

	nodeCount   atomic.Int64
	edgeCount   atomic.Int64 // undirected edges counted once, summed over types
	edgesByType []atomic.Int64
	epoch       atomic.Uint64 // bumped by Snapshot()

	// deltaObs, when set, is called once per edge mutation (weight
	// accumulation or TTL expiry) with the edge endpoints — the hook the
	// embedding dirty-set tracker hangs off. Called outside shard locks.
	deltaObs atomic.Pointer[func(u, v NodeID)]
}

// SetDeltaObserver registers fn to observe every edge delta: each
// AddEdgeWeight call and each undirected edge dropped by Prune fires fn
// once with the edge endpoints, after the shard locks are released. fn
// must be cheap and must not mutate the graph; pass nil to unregister.
func (g *Graph) SetDeltaObserver(fn func(u, v NodeID)) {
	if fn == nil {
		g.deltaObs.Store(nil)
		return
	}
	g.deltaObs.Store(&fn)
}

// notifyDelta fires the registered delta observer, if any.
func (g *Graph) notifyDelta(u, v NodeID) {
	if obs := g.deltaObs.Load(); obs != nil {
		(*obs)(u, v)
	}
}

// New creates a graph supporting edge types [0, numTypes).
func New(numTypes int) *Graph {
	if numTypes <= 0 {
		panic("graph: numTypes must be positive")
	}
	g := &Graph{numTypes: numTypes, edgesByType: make([]atomic.Int64, numTypes)}
	for i := range g.shards {
		g.shards[i].nodes = make(map[NodeID]struct{})
		g.shards[i].adj = make(map[NodeID]*nodeAdj)
	}
	return g
}

// NumEdgeTypes returns how many edge types the graph supports.
func (g *Graph) NumEdgeTypes() int { return g.numTypes }

// AddNode registers a node even if it has no edges yet.
func (g *Graph) AddNode(u NodeID) {
	sh := &g.shards[shardOf(u)]
	sh.mu.Lock()
	g.registerLocked(sh, u)
	sh.mu.Unlock()
}

// registerLocked adds u to sh's node set; sh.mu must be held.
func (g *Graph) registerLocked(sh *shard, u NodeID) {
	if _, ok := sh.nodes[u]; !ok {
		sh.nodes[u] = struct{}{}
		g.nodeCount.Add(1)
	}
}

// AddEdgeWeight accumulates weight w onto the typed undirected edge
// (u, v) and extends its expiry to at least expireAt. Self-loops and
// non-positive weights are rejected.
func (g *Graph) AddEdgeWeight(t EdgeType, u, v NodeID, w float64, expireAt time.Time) error {
	if int(t) >= g.numTypes {
		return fmt.Errorf("graph: edge type %d out of range [0,%d)", t, g.numTypes)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: invalid edge weight %v", w)
	}
	iu, iv := shardOf(u), shardOf(v)
	su, sv := &g.shards[iu], &g.shards[iv]
	// Lock both endpoint shards in index order so the edge appears in
	// both halves atomically (Snapshot holds every shard lock and thus
	// never observes half an edge).
	g.lockPair(iu, iv)
	g.registerLocked(su, u)
	g.registerLocked(sv, v)
	if g.upsertHalf(su, t, u, v, w, expireAt) {
		g.edgeCount.Add(1)
		g.edgesByType[t].Add(1)
	}
	g.upsertHalf(sv, t, v, u, w, expireAt)
	g.unlockPair(iu, iv)
	g.notifyDelta(u, v)
	return nil
}

// lockPair write-locks shards a and b in ascending index order (deadlock
// freedom against concurrent cross-shard writers).
func (g *Graph) lockPair(a, b uint32) {
	if a == b {
		g.shards[a].mu.Lock()
		return
	}
	if a > b {
		a, b = b, a
	}
	g.shards[a].mu.Lock()
	g.shards[b].mu.Lock()
}

func (g *Graph) unlockPair(a, b uint32) {
	g.shards[a].mu.Unlock()
	if a != b {
		g.shards[b].mu.Unlock()
	}
}

// upsertHalf updates one direction inside sh (locked by the caller) and
// reports whether it created a new edge.
func (g *Graph) upsertHalf(sh *shard, t EdgeType, u, v NodeID, w float64, expireAt time.Time) bool {
	na := sh.adj[u]
	if na == nil {
		na = &nodeAdj{byType: make([][]halfEdge, g.numTypes), deg: make([]float64, g.numTypes)}
		sh.adj[u] = na
	}
	list := na.byType[t]
	i := sort.Search(len(list), func(i int) bool { return list[i].to >= v })
	if i < len(list) && list[i].to == v {
		list[i].weight += w
		if expireAt.After(list[i].expireAt) {
			list[i].expireAt = expireAt
		}
		na.deg[t] += w
		return false
	}
	list = append(list, halfEdge{})
	copy(list[i+1:], list[i:])
	list[i] = halfEdge{to: v, weight: w, expireAt: expireAt}
	na.byType[t] = list
	na.deg[t] += w
	return true
}

// findHalf returns the half edge (u → v, type t) inside sh, or nil;
// sh.mu must be held (read or write).
func findHalf(sh *shard, t EdgeType, u, v NodeID) *halfEdge {
	na := sh.adj[u]
	if na == nil {
		return nil
	}
	list := na.byType[t]
	i := sort.Search(len(list), func(i int) bool { return list[i].to >= v })
	if i < len(list) && list[i].to == v {
		return &list[i]
	}
	return nil
}

// EdgeWeight returns the weight of the typed edge (u, v), or 0.
func (g *Graph) EdgeWeight(t EdgeType, u, v NodeID) float64 {
	if int(t) >= g.numTypes {
		return 0
	}
	sh := &g.shards[shardOf(u)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := findHalf(sh, t, u, v); e != nil {
		return e.weight
	}
	return 0
}

// NumNodes returns the number of registered nodes.
func (g *Graph) NumNodes() int { return int(g.nodeCount.Load()) }

// ShardSizes returns the registered-node count of every shard — the
// telemetry hook behind the shard-skew gauge (a hot shard means one
// NodeID range is absorbing most writes). Each shard is read-locked
// individually, so the scan never blocks writers globally.
func (g *Graph) ShardSizes() []int {
	out := make([]int, len(g.shards))
	for i := range g.shards {
		g.shards[i].mu.RLock()
		out[i] = len(g.shards[i].nodes)
		g.shards[i].mu.RUnlock()
	}
	return out
}

// ShardSkew returns max/mean of the per-shard node counts (1 = perfectly
// balanced, 0 = empty graph).
func (g *Graph) ShardSkew() float64 {
	sizes := g.ShardSizes()
	total, max := 0, 0
	for _, s := range sizes {
		total += s
		if s > max {
			max = s
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(sizes)) / float64(total)
}

// NumEdges returns the number of distinct typed undirected edges.
func (g *Graph) NumEdges() int { return int(g.edgeCount.Load()) }

// Nodes returns all node IDs, sorted.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, g.NumNodes())
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for id := range sh.nodes {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// HasNode reports whether u is registered.
func (g *Graph) HasNode(u NodeID) bool {
	sh := &g.shards[shardOf(u)]
	sh.mu.RLock()
	_, ok := sh.nodes[u]
	sh.mu.RUnlock()
	return ok
}

// NeighborsByType returns u's neighbors over edges of type t, sorted by
// node ID for determinism.
func (g *Graph) NeighborsByType(u NodeID, t EdgeType) []Neighbor {
	if int(t) >= g.numTypes {
		return nil
	}
	sh := &g.shards[shardOf(u)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	na := sh.adj[u]
	if na == nil || len(na.byType[t]) == 0 {
		return nil
	}
	list := na.byType[t]
	ns := make([]Neighbor, len(list))
	for i, e := range list {
		ns[i] = Neighbor{Node: e.to, Weight: e.weight}
	}
	return ns
}

// Neighbors returns u's distinct neighbors across all edge types, sorted.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	sh := &g.shards[shardOf(u)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	na := sh.adj[u]
	if na == nil {
		return nil
	}
	seen := make(map[NodeID]struct{})
	for t := 0; t < g.numTypes; t++ {
		for _, e := range na.byType[t] {
			seen[e.to] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the number of distinct neighbors of u across all types.
func (g *Graph) Degree(u NodeID) int { return len(g.Neighbors(u)) }

// WeightedDegree returns Σ over all types and neighbors of edge weights.
func (g *Graph) WeightedDegree(u NodeID) float64 {
	sh := &g.shards[shardOf(u)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	na := sh.adj[u]
	if na == nil {
		return 0
	}
	var s float64
	for _, d := range na.deg {
		s += d
	}
	return s
}

// TypedWeightedDegree returns deg'_r(u) = Σ_{i∈N_r(u)} w(u, i), the
// weighted degree on one edge type used by the §III-A normalization.
// The value is maintained incrementally, so this is O(1).
func (g *Graph) TypedWeightedDegree(u NodeID, t EdgeType) float64 {
	if int(t) >= g.numTypes {
		return 0
	}
	sh := &g.shards[shardOf(u)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if na := sh.adj[u]; na != nil {
		return na.deg[t]
	}
	return 0
}

// NormalizedWeight returns w'_r(u,v) = w_r(u,v)·(deg'_r(u)·deg'_r(v))^{-1/2},
// the type-aware symmetric normalization of §III-A, or 0 if no edge.
// With cached typed degrees this is O(log d) per call.
func (g *Graph) NormalizedWeight(t EdgeType, u, v NodeID) float64 {
	if int(t) >= g.numTypes {
		return 0
	}
	su := &g.shards[shardOf(u)]
	su.mu.RLock()
	e := findHalf(su, t, u, v)
	var w, du float64
	if e != nil {
		w = e.weight
		du = su.adj[u].deg[t]
	}
	su.mu.RUnlock()
	if e == nil {
		return 0
	}
	dv := g.TypedWeightedDegree(v, t)
	if du == 0 || dv == 0 {
		return 0
	}
	return w / math.Sqrt(du*dv)
}

// Prune removes edges whose TTL expired before now and returns how many
// undirected edges were dropped. Nodes whose adjacency becomes empty are
// dropped from the per-shard adjacency index (reclaiming memory), but
// stay in the registered-node set: isolated nodes remain registered.
// The pass holds every shard's write lock (taken in ascending order,
// like Snapshot's read locks and lockPair) and settles the edge counters
// before releasing them, so no reader sees half of a pruned edge or
// counters that disagree with the adjacency.
func (g *Graph) Prune(now time.Time) int {
	dropped := 0
	var expired [][2]NodeID // fired once per undirected edge, outside locks
	observing := g.deltaObs.Load() != nil
	for i := range g.shards {
		g.shards[i].mu.Lock()
	}
	for i := range g.shards {
		sh := &g.shards[i]
		for u, na := range sh.adj {
			empty := true
			for t := 0; t < g.numTypes; t++ {
				list := na.byType[t]
				if len(list) == 0 {
					continue
				}
				kept := list[:0]
				var deg float64
				for _, e := range list {
					if e.expireAt.Before(now) {
						if u < e.to { // count each undirected edge once
							dropped++
							g.edgesByType[t].Add(-1)
							if observing {
								expired = append(expired, [2]NodeID{u, e.to})
							}
						}
						continue
					}
					kept = append(kept, e)
					deg += e.weight
				}
				na.byType[t] = kept
				na.deg[t] = deg
				if len(kept) > 0 {
					empty = false
				}
			}
			if empty {
				delete(sh.adj, u)
			}
		}
	}
	g.edgeCount.Add(int64(-dropped))
	for i := range g.shards {
		g.shards[i].mu.Unlock()
	}
	for _, p := range expired {
		g.notifyDelta(p[0], p[1])
	}
	return dropped
}

// Edges returns every typed undirected edge once (U < V), sorted by
// (type, U, V) for determinism.
func (g *Graph) Edges() []Edge {
	var es []Edge
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for u, na := range sh.adj {
			for t := 0; t < g.numTypes; t++ {
				for _, e := range na.byType[t] {
					if u < e.to {
						es = append(es, Edge{Type: EdgeType(t), U: u, V: e.to, Weight: e.weight, ExpireAt: e.expireAt})
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	return es
}

// EdgeCountByType returns the number of undirected edges per type. The
// counters are maintained incrementally, so this is O(numTypes), not a
// full adjacency walk.
func (g *Graph) EdgeCountByType() []int {
	counts := make([]int, g.numTypes)
	for t := range counts {
		counts[t] = int(g.edgesByType[t].Load())
	}
	return counts
}

// Stats summarizes the graph.
type Stats struct {
	Nodes       int
	Edges       int
	EdgesByType []int
}

// Stats returns a snapshot of graph size.
func (g *Graph) Stats() Stats {
	return Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), EdgesByType: g.EdgeCountByType()}
}
