package graph

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"turbo/internal/tensor"
)

// Filter verdicts, memoized per snapshot row for one sample.
const (
	unasked uint8 = iota
	accepted
	rejected
)

// sampleScratch is what one Snapshot.Sample needs beyond its result;
// pooled, because at serving sizes it would otherwise be most of what a
// sample allocates. local and verdict are indexed by snapshot row and
// are all zero whenever the scratch is in the pool: a sample zeroes the
// rows it touched, never the whole table.
type sampleScratch struct {
	local   []int32     // per row: 1 + its index in the sample, 0 when not sampled
	verdict []uint8     // per row: the Filter's answer, asked at most once
	touched []int32     // the rows whose local or verdict is nonzero
	rows    []int32     // per sampled node: its snapshot row, −1 when unregistered
	hops    []int       // per sampled node: the hop that first reached it
	picked  []int32     // an over-cap row's expanded entries, as flat indices
	found   []LocalEdge // one type's live edges, in discovery order
	dist    []int       // per sampled node: hops from the target, −1 beyond the cone
	live    []int       // the nodes with dist ≥ 0
	start   []int       // counting-sort offsets by source
}

var sampleScratchPool = sync.Pool{New: func() any { return new(sampleScratch) }}

// acquireSampleScratch returns a pooled scratch whose per-row tables
// cover n rows.
func acquireSampleScratch(n int) *sampleScratch {
	sc := sampleScratchPool.Get().(*sampleScratch)
	if len(sc.local) < n {
		sc.local = make([]int32, n)
		sc.verdict = make([]uint8, n)
	}
	return sc
}

// release zeroes the rows the sample touched and returns sc to the pool.
func (sc *sampleScratch) release() {
	for _, r := range sc.touched {
		sc.local[r], sc.verdict[r] = 0, unasked
	}
	sc.touched = sc.touched[:0]
	sampleScratchPool.Put(sc)
}

// Sample extracts the computation subgraph of target from the snapshot.
// It returns exactly what SampleView returns over the same snapshot, but
// works in row space: adjacency rows read in place, a sampled node's
// local index and the Filter's verdict kept in per-row tables (Filter is
// asked once per distinct row, no map is built), a deterministic cap
// read as a prefix of the published cap order, and, with opts.Layers
// set, a walk of the live destination rows only.
func (s *Snapshot) Sample(target NodeID, opts SampleOptions) *Subgraph {
	if opts.Hops <= 0 {
		opts.Hops = 2
	}
	masked := opts.Mask.masked()
	sc := acquireSampleScratch(len(s.ids))
	defer sc.release()
	w := sampleWalk{s: s, sc: sc, filter: opts.Filter, raw: opts.RawWeights}
	sc.rows, sc.hops = append(sc.rows[:0], s.row(target)), append(sc.hops[:0], 0)
	if r := sc.rows[0]; r >= 0 {
		sc.touched = append(sc.touched, r)
		sc.local[r] = 1
	}

	// Expansion, in the scratch. The frontier of a hop is the run of
	// nodes the previous hop appended.
	for hop, lo := 1, 0; hop <= opts.Hops && lo < len(sc.rows); hop++ {
		hi := len(sc.rows)
		for _, r := range sc.rows[lo:hi] {
			if r < 0 {
				continue
			}
			for t := 0; t < s.numTypes; t++ {
				if t == masked {
					continue
				}
				a, b := s.offsets[t][r], s.offsets[t][r+1]
				if opts.MaxNeighbors <= 0 || int(b-a) <= opts.MaxNeighbors {
					for _, v := range s.nbr[t][a:b] {
						if sc.local[v] == 0 && w.accepts(v) {
							w.add(v, hop)
						}
					}
					continue
				}
				for _, k := range w.capped(t, a, b, opts.MaxNeighbors, opts.RNG) {
					w.add(s.nbr[t][k], hop)
				}
			}
		}
		lo = hi
	}
	n := len(sc.rows)
	sg := &Subgraph{
		Nodes:      make([]NodeID, n),
		TypedEdges: make([][]LocalEdge, s.numTypes),
		Hops:       slices.Clone(sc.hops),
		Layers:     opts.Layers,
	}
	sg.Nodes[0] = target
	for i, r := range sc.rows[1:] {
		sg.Nodes[i+1] = s.ids[r]
	}

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
	s      *Snapshot
	sc     *sampleScratch
	filter func(NodeID) bool
	raw    bool
}

// accepts reports whether Filter admits row r, asking it at most once
// per sample. The verdict is kept apart from local: the target is in the
// sample whatever Filter says of it, yet a rejected target still does not
// count toward a neighbour's cap.
func (w *sampleWalk) accepts(r int32) bool {
	if w.filter == nil {
		return true
	}
	sc := w.sc
	if v := sc.verdict[r]; v != unasked {
		return v == accepted
	}
	if sc.local[r] == 0 {
		sc.touched = append(sc.touched, r)
	}
	ok := w.filter(w.s.ids[r])
	sc.verdict[r] = rejected
	if ok {
		sc.verdict[r] = accepted
	}
	return ok
}

// add appends row r to the sample, first reached at hop, unless present.
func (w *sampleWalk) add(r int32, hop int) {
	sc := w.sc
	if sc.local[r] != 0 {
		return
	}
	if sc.verdict[r] == unasked {
		sc.touched = append(sc.touched, r)
	}
	sc.local[r] = int32(len(sc.rows)) + 1
	sc.rows = append(sc.rows, r)
	sc.hops = append(sc.hops, hop)
}

// capped returns the entries of the over-cap type-t row [a, b) that the
// walk expands, as flat indices in the order capNeighbors returns them
// for the row's accepted neighbours: all of them in ID order when at
// most max are accepted; otherwise the first max accepted in the
// published cap order, or, with an RNG, the first max of a shuffle of
// the accepted ones in ID order (the same draws SampleView makes).
func (w *sampleWalk) capped(t int, a, b int32, max int, rng *tensor.RNG) []int32 {
	s, picked := w.s, w.sc.picked[:0]
	if rng != nil {
		for k := a; k < b; k++ {
			if w.accepts(s.nbr[t][k]) {
				picked = append(picked, k)
			}
		}
		if len(picked) > max {
			rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
			picked = picked[:max]
		}
	} else {
		over := false
		for _, k := range s.capOrd[t][a:b] {
			if !w.accepts(s.nbr[t][k]) {
				continue
			}
			if len(picked) == max {
				over = true
				break
			}
			picked = append(picked, k)
		}
		if !over {
			slices.Sort(picked)
		}
	}
	w.sc.picked = picked
	return picked
}

// row calls fn for every type-t induced edge between sampled node li and
// a sampled neighbor lj, in ascending neighbor ID, with the §III-A
// normalized weight (the arithmetic of SampleView: edge weight over
// √(deg·deg) with full-graph typed degrees, zero-degree endpoints and
// non-positive weights skipped).
func (w *sampleWalk) row(t, li int, fn func(lj int, wt float64)) {
	r := w.sc.rows[li]
	if r < 0 {
		return
	}
	s, local := w.s, w.sc.local
	du := s.deg[t][r]
	if !w.raw && du == 0 {
		return
	}
	for k := s.offsets[t][r]; k < s.offsets[t][r+1]; k++ {
		v := s.nbr[t][k]
		lj := local[v] - 1
		if lj < 0 {
			continue
		}
		wt := s.wts[t][k]
		if !w.raw {
			dv := s.deg[t][v]
			if dv == 0 {
				continue
			}
			wt /= math.Sqrt(du * dv)
		}
		if wt > 0 {
			fn(int(lj), wt)
		}
	}
}
