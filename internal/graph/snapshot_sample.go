package graph

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// sampleScratch is what one Snapshot.Sample needs beyond its result;
// pooled, because at serving sizes it would otherwise be most of what a
// sample allocates.
type sampleScratch struct {
	picked []Neighbor  // an over-cap row's accepted neighbors
	found  []LocalEdge // one type's live edges, in discovery order
	dist   []int       // per sampled node: hops from the target, −1 beyond the cone
	live   []int       // the nodes with dist ≥ 0
	start  []int       // counting-sort offsets by source
}

var sampleScratchPool = sync.Pool{New: func() any { return new(sampleScratch) }}

// Sample extracts the computation subgraph of target from the snapshot.
// It returns exactly what SampleView returns over the same snapshot, but
// reads the adjacency rows in place: no lock, no Neighbor slice per
// (node, type), one row lookup per sampled node, and, with opts.Layers
// set, a walk of the live destination rows only.
func (s *Snapshot) Sample(target NodeID, opts SampleOptions) *Subgraph {
	if opts.Hops <= 0 {
		opts.Hops = 2
	}
	masked := opts.Mask.masked()
	sg := &Subgraph{
		Nodes:      []NodeID{target},
		Index:      map[NodeID]int{target: 0},
		TypedEdges: make([][]LocalEdge, s.numTypes),
		Hops:       []int{0},
		Layers:     opts.Layers,
	}
	w := sampleWalk{s: s, sg: sg, raw: opts.RawWeights, rows: []int32{s.row(target)}}
	sc := sampleScratchPool.Get().(*sampleScratch)
	defer sampleScratchPool.Put(sc)

	// Expansion. The frontier of a hop is the run of nodes the previous
	// hop appended.
	picked := sc.picked
	for hop, lo := 1, 0; hop <= opts.Hops && lo < len(sg.Nodes); hop++ {
		hi := len(sg.Nodes)
		for _, r := range w.rows[lo:hi] {
			if r < 0 {
				continue
			}
			for t := 0; t < s.numTypes; t++ {
				if t == masked {
					continue
				}
				a, b := s.offsets[t][r], s.offsets[t][r+1]
				ids := s.nbr[t][a:b]
				if opts.MaxNeighbors <= 0 || len(ids) <= opts.MaxNeighbors {
					for _, v := range ids {
						if opts.Filter == nil || opts.Filter(v) {
							w.add(v, hop)
						}
					}
					continue
				}
				picked = picked[:0]
				for k, v := range ids {
					if opts.Filter == nil || opts.Filter(v) {
						picked = append(picked, Neighbor{Node: v, Weight: s.wts[t][int(a)+k]})
					}
				}
				for _, nb := range capNeighbors(picked, opts.MaxNeighbors, opts.RNG) {
					w.add(nb.Node, hop)
				}
			}
		}
		lo = hi
	}
	sc.picked = picked

	if opts.Layers <= 0 {
		for t := 0; t < s.numTypes; t++ {
			if t == masked {
				continue
			}
			for li := range sg.Nodes {
				w.row(t, li, func(lj int, wt float64) {
					sg.TypedEdges[t] = append(sg.TypedEdges[t], LocalEdge{Src: li, Dst: lj, Weight: wt})
				})
			}
		}
		return sg
	}

	// The cone. live collects the nodes within Layers−1 hops of the
	// target over the induced edges, level by level; every adjacency
	// entry is symmetric, so a live node's own row lists its in-edges.
	n := len(sg.Nodes)
	dist := slices.Grow(sc.dist[:0], n)[:n]
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	live := append(sc.live[:0], 0)
	for d, lo := 0, 0; d < opts.Layers-1 && lo < len(live); d++ {
		hi := len(live)
		for _, j := range live[lo:hi] {
			for t := 0; t < s.numTypes; t++ {
				if t == masked {
					continue
				}
				w.row(t, j, func(i int, _ float64) {
					if dist[i] < 0 {
						dist[i] = d + 1
						live = append(live, i)
					}
				})
			}
		}
		lo = hi
	}
	// The full sample lists a type's edges by source in node order, each
	// source's by ascending neighbor ID. Walking the live destinations in
	// ascending ID and then counting-sorting by source reproduces that
	// order for the edges that are kept.
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(sg.Nodes[a], sg.Nodes[b]) })
	found := sc.found
	start := slices.Grow(sc.start[:0], n+1)[:n+1]
	for t := 0; t < s.numTypes; t++ {
		if t == masked {
			continue
		}
		found = found[:0]
		clear(start)
		for _, j := range live {
			w.row(t, j, func(i int, wt float64) {
				found = append(found, LocalEdge{Src: i, Dst: j, Weight: wt})
				start[i+1]++
			})
		}
		if len(found) == 0 {
			continue
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		es := make([]LocalEdge, len(found))
		for _, e := range found {
			es[start[e.Src]] = e
			start[e.Src]++
		}
		sg.TypedEdges[t] = es
	}
	sc.dist, sc.live, sc.found, sc.start = dist, live, found, start
	return sg
}

// sampleWalk is the state Snapshot.Sample shares between its passes.
type sampleWalk struct {
	s    *Snapshot
	sg   *Subgraph
	raw  bool
	rows []int32 // snapshot row of each sampled node, -1 when unregistered
}

// add appends v to the sample, first reached at hop, unless present.
func (w *sampleWalk) add(v NodeID, hop int) {
	if _, ok := w.sg.Index[v]; ok {
		return
	}
	w.sg.Index[v] = len(w.sg.Nodes)
	w.sg.Nodes = append(w.sg.Nodes, v)
	w.sg.Hops = append(w.sg.Hops, hop)
	w.rows = append(w.rows, w.s.row(v))
}

// row calls fn for every type-t induced edge between sampled node li and
// a sampled neighbor lj, in ascending neighbor ID, with the §III-A
// normalized weight (the arithmetic of SampleView: edge weight over
// √(deg·deg) with full-graph typed degrees, zero-degree endpoints and
// non-positive weights skipped).
func (w *sampleWalk) row(t, li int, fn func(lj int, wt float64)) {
	r := w.rows[li]
	if r < 0 {
		return
	}
	s := w.s
	du := s.deg[t][r]
	if !w.raw && du == 0 {
		return
	}
	for k := s.offsets[t][r]; k < s.offsets[t][r+1]; k++ {
		lj, ok := w.sg.Index[s.nbr[t][k]]
		if !ok {
			continue
		}
		wt := s.wts[t][k]
		if !w.raw {
			dv := s.deg[t][w.rows[lj]]
			if dv == 0 {
				continue
			}
			wt /= math.Sqrt(du * dv)
		}
		if wt > 0 {
			fn(lj, wt)
		}
	}
}
