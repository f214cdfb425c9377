// Package graph implements the time-evolving heterogeneous weighted
// multigraph underlying the behavior network (BN): user nodes connected
// by typed, weighted, TTL-bounded undirected edges, with k-hop subgraph
// extraction and the symmetric edge-weight normalization of §III-A.
//
// Storage is sharded by NodeID: each shard owns the adjacency of its
// nodes behind its own RWMutex, so concurrent window-job writes on
// different shards never contend. The live *Graph is written, counted
// and checkpointed, never read edge by edge: every reader of the BN
// (sampling, statistics, batch compilation, the figure scans, the
// baselines) takes the immutable, lock-free Snapshot that Snapshot()
// publishes.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// halfEdge is one direction of an undirected edge. Every write
// (writeGroup) updates both halves with identical weight and expiry, so
// the two halves of an edge never disagree.
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

// numShards is the shard count (power of two, at most 32: writeGroup
// keeps the shards a group touches in a uint32 mask). 32 shards keep
// write contention negligible up to tens of scheduler goroutines while
// the full-lock operations (Snapshot) stay cheap.
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
// AddEdgeWeight call, each pair of an AddGroupWeight call and each
// undirected edge dropped by Prune fires fn once with the edge
// endpoints, after the shard locks are released. fn must be cheap and
// must not mutate the graph; pass nil to unregister.
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
// non-positive weights are rejected. It is the two-node case of
// AddGroupWeight.
func (g *Graph) AddEdgeWeight(t EdgeType, u, v NodeID, w float64, expireAt time.Time) error {
	if err := g.checkWrite(t, w); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	pair := [2]NodeID{min(u, v), max(u, v)}
	g.writeGroup(t, pair[:], w, expireAt)
	g.notifyDelta(u, v)
	return nil
}

// AddGroupWeight accumulates weight w onto the typed undirected edge of
// every pair of nodes — one co-occurrence group of Algorithm 1 — and
// extends each edge's expiry to at least expireAt. nodes must be
// strictly ascending (sorted and distinct) and hold at least two nodes;
// a rejected group writes nothing. The result is bit for bit that of
// one AddEdgeWeight per pair in any order: each edge gets exactly one
// +w, and each node's typed degree gets len(nodes)-1 additions of the
// same w. The delta observer fires once per pair, (nodes[x], nodes[y])
// with x < y, after the shard locks are released.
func (g *Graph) AddGroupWeight(t EdgeType, nodes []NodeID, w float64, expireAt time.Time) error {
	if err := g.checkWrite(t, w); err != nil {
		return err
	}
	if len(nodes) < 2 {
		return fmt.Errorf("graph: group of %d nodes has no pair", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			return fmt.Errorf("graph: group nodes not strictly ascending at %d (%d after %d)", i, nodes[i], nodes[i-1])
		}
	}
	g.writeGroup(t, nodes, w, expireAt)
	if obs := g.deltaObs.Load(); obs != nil {
		for x, u := range nodes {
			for _, v := range nodes[x+1:] {
				(*obs)(u, v)
			}
		}
	}
	return nil
}

// checkWrite validates an edge write's type and weight.
func (g *Graph) checkWrite(t EdgeType, w float64) error {
	if int(t) >= g.numTypes {
		return fmt.Errorf("graph: edge type %d out of range [0,%d)", t, g.numTypes)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: invalid edge weight %v", w)
	}
	return nil
}

// writeGroup is the one upsert path: it adds w to the typed edge of
// every pair of the strictly ascending nodes. Every touched shard is
// write-locked once, in ascending index order (the order Snapshot and
// Prune take them), so the group's edges appear in both halves
// atomically and concurrent writers cannot deadlock.
func (g *Graph) writeGroup(t EdgeType, nodes []NodeID, w float64, expireAt time.Time) {
	var touched uint32 // bit i set = shard i holds one of nodes
	for _, u := range nodes {
		touched |= 1 << shardOf(u)
	}
	for m := touched; m != 0; m &= m - 1 {
		g.shards[bits.TrailingZeros32(m)].mu.Lock()
	}
	created := 0
	for _, u := range nodes {
		sh := &g.shards[shardOf(u)]
		g.registerLocked(sh, u)
		created += g.upsertRow(sh, t, u, nodes, w, expireAt)
	}
	if created > 0 {
		g.edgeCount.Add(int64(created))
		g.edgesByType[t].Add(int64(created))
	}
	for m := touched; m != 0; m &= m - 1 {
		g.shards[bits.TrailingZeros32(m)].mu.Unlock()
	}
}

// upsertRow adds w onto u's type-t half edge toward every other node of
// the ascending group, inside sh (locked by the caller), in one forward
// pass over u's sorted row: each partner's search resumes after the
// previous partner's slot, existing halves are updated in place, and the
// missing ones are merged in from the back after a single grow. It
// returns how many new undirected edges it created toward partners
// above u, so that a group counts each new edge once.
func (g *Graph) upsertRow(sh *shard, t EdgeType, u NodeID, nodes []NodeID, w float64, expireAt time.Time) int {
	na := sh.adj[u]
	if na == nil {
		na = &nodeAdj{byType: make([][]halfEdge, g.numTypes), deg: make([]float64, g.numTypes)}
		sh.adj[u] = na
	}
	list := na.byType[t]
	missing, created, pos := 0, 0, 0
	for _, v := range nodes {
		if v == u {
			continue
		}
		lo, hi := pos, len(list) // first slot in list[pos:] with to >= v
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if list[mid].to < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(list) && list[lo].to == v {
			list[lo].weight += w
			if expireAt.After(list[lo].expireAt) {
				list[lo].expireAt = expireAt
			}
			pos = lo + 1
		} else {
			missing++
			if v > u {
				created++
			}
			pos = lo
		}
		na.deg[t] += w
	}
	if missing == 0 {
		return 0
	}
	// Merge the missing halves in from the back: i walks the old row,
	// k the grown one, and old entries above each missing partner shift
	// up by the number of missing partners still below them.
	i := len(list) - 1
	list = slices.Grow(list, missing)[:len(list)+missing]
	k := len(list) - 1
	for j := len(nodes) - 1; j >= 0 && k > i; j-- {
		v := nodes[j]
		if v == u {
			continue
		}
		for i >= 0 && list[i].to > v {
			list[k] = list[i]
			k--
			i--
		}
		if i >= 0 && list[i].to == v {
			continue // existing half, already updated
		}
		list[k] = halfEdge{to: v, weight: w, expireAt: expireAt}
		k--
	}
	na.byType[t] = list
	return created
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

// Prune removes edges whose TTL expired before now and returns how many
// undirected edges were dropped. Nodes whose adjacency becomes empty are
// dropped from the per-shard adjacency index (reclaiming memory), but
// stay in the registered-node set: isolated nodes remain registered.
// The pass holds every shard's write lock (taken in ascending order,
// like Snapshot's read locks and writeGroup) and settles the edge counters
// before releasing them, so no reader sees half of a pruned edge or
// counters that disagree with the adjacency. Only a list that lost an
// edge has its degree re-summed: every other node's degree, and with it
// every §III-A weight no delta touched, keeps its bits, which the
// embedding tier's dirty marking relies on.
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
				if len(kept) < len(list) {
					na.byType[t] = kept
					na.deg[t] = deg
				}
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
