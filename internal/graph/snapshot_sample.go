package graph

import (
	"cmp"
	"math"
	"math/bits"
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

// sampleScratch is what one Snapshot.Sample or SampleCSR needs beyond
// its result; pooled, because at serving sizes it would otherwise be
// most of what a sample allocates. local and verdict are indexed by
// snapshot row and are all zero whenever the scratch is in the pool: a
// sample zeroes the rows it touched, never the whole table.
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
	row     []rowEntry  // one row's induced edges
	start   []int       // counting-sort offsets by source
	acc     []float64   // per sampled node: its weight in the row SampleCSR is gathering
	bitmap  []uint64    // the sampled nodes in that row
	counted []bool      // per type: SampleCSR has counted its edges
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
	w := s.walk(target, opts)
	defer w.sc.release()
	sc := w.sc
	n := len(sc.rows)
	sg := &Subgraph{
		Nodes:      s.appendNodes(make([]NodeID, 0, n), target, sc.rows),
		TypedEdges: make([][]LocalEdge, s.numTypes),
		Hops:       slices.Clone(sc.hops),
		Layers:     opts.Layers,
	}

	if opts.Layers <= 0 {
		for t := 0; t < s.numTypes; t++ {
			if t == w.masked {
				continue
			}
			for li := range sg.Nodes {
				for _, e := range w.row(t, li) {
					sg.TypedEdges[t] = append(sg.TypedEdges[t], LocalEdge{Src: li, Dst: int(e.src), Weight: e.wt})
				}
			}
		}
		return sg
	}

	// The full sample lists a type's edges by source in node order, each
	// source's by ascending neighbor ID. Walking the live destinations in
	// ascending ID and then counting-sorting by source reproduces that
	// order for the edges that are kept.
	live := sc.live
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(sg.Nodes[a], sg.Nodes[b]) })
	found := sc.found
	start := slices.Grow(sc.start[:0], n+1)[:n+1]
	for t := 0; t < s.numTypes; t++ {
		if t == w.masked {
			continue
		}
		found = found[:0]
		clear(start)
		for _, j := range live {
			for _, e := range w.row(t, j) {
				found = append(found, LocalEdge{Src: int(e.src), Dst: j, Weight: e.wt})
				start[e.src+1]++
			}
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
	sc.found, sc.start = found, start
	return sg
}

// AllTypes, as a CSRForm's Type, merges every edge type.
const AllTypes = -1

// CSRForm names one aggregation matrix SampleCSR writes.
type CSRForm struct {
	// Type is an edge type, or AllTypes for the merged graph: parallel
	// edges of the unmasked types summed, in type order, into one entry.
	Type int
	// SelfLoop ends every row, live or not, with the node itself at
	// weight 1.
	SelfLoop bool
}

// ConeCSR is a sample (SampleCSR) or a whole node set (FullCSR) written
// as aggregation matrices instead of edge lists. Its arrays are reused
// from one call to the next, so it must not be shared while in use.
type ConeCSR struct {
	Nodes []NodeID // a sample's target first, as Subgraph.Nodes
	Edges int      // the directed typed edges forms read: Subgraph.NumEdges
	// Mats[k] is forms[k]'s matrix over the sample's local indices: row j
	// lists j's in-edges, sources ascending by local index, each with its
	// §III-A weight (summed over types in a merged form), then the
	// self-loop if the form has one. Rows outside the cone hold only
	// that self-loop. These are the rows gnn.NewBatch's CSRs hold before
	// normalization.
	Mats []tensor.CSR[float64]

	rowPtr  []int
	colIdx  []int32
	weights []float64
}

// SampleCSR draws the sample Sample draws with the same options and
// writes it into out as the matrices forms name. It builds no edge list:
// each live row's entries go from the adjacency walk into out's arrays.
func (s *Snapshot) SampleCSR(target NodeID, opts SampleOptions, forms []CSRForm, out *ConeCSR) {
	w := s.walk(target, opts)
	defer w.sc.release()
	out.Nodes = s.appendNodes(out.Nodes[:0], target, w.sc.rows)
	slices.Sort(w.sc.live)
	w.writeCSR(forms, out)
}

// writeCSR is the one row writer of SampleCSR and FullCSR: it writes the
// matrices forms name over the walk's nodes into out, each live row from
// its adjacency, every other row empty but for a self-loop. live must
// ascend.
func (w *sampleWalk) writeCSR(forms []CSRForm, out *ConeCSR) {
	s, sc := w.s, w.sc
	n := len(sc.rows)
	out.Edges = 0
	live := sc.live

	// A row's entries arrive in neighbour ID order, but gnn.NewBatch's rows
	// list their sources by ascending local index. So each live row is
	// gathered into a bitmap over local indices, with its weights in acc,
	// and read back in bit order. A merged row sums a source's parallel
	// edges into acc as it finds them, in type order, as mergeEdges does.
	acc := slices.Grow(sc.acc[:0], n)[:n]
	bitmap := slices.Grow(sc.bitmap[:0], n/64+1)[:n/64+1]
	clear(bitmap)
	counted := slices.Grow(sc.counted[:0], s.numTypes)[:s.numTypes]
	clear(counted)
	rowPtr := slices.Grow(out.rowPtr[:0], len(forms)*(n+1))
	colIdx, weights := out.colIdx[:0], out.weights[:0]
	for _, f := range forms {
		lo, hi := f.Type, f.Type+1
		if f.Type == AllTypes {
			lo, hi = 0, s.numTypes
		}
		base, next := len(colIdx), 0
		for j := 0; j < n; j++ {
			rowPtr = append(rowPtr, len(colIdx)-base)
			if next < len(live) && live[next] == j {
				next++
				first, last, m := len(bitmap), -1, 0
				for t := lo; t < hi; t++ {
					if t == w.masked {
						continue
					}
					es := w.row(t, j)
					if !counted[t] {
						out.Edges += len(es)
					}
					for _, e := range es {
						word, bit := int(e.src>>6), uint64(1)<<(e.src&63)
						if bitmap[word]&bit != 0 {
							acc[e.src] += e.wt
							continue
						}
						bitmap[word] |= bit
						acc[e.src] = e.wt
						first, last, m = min(first, word), max(last, word), m+1
					}
				}
				p := len(colIdx)
				colIdx, weights = slices.Grow(colIdx, m+1)[:p+m], slices.Grow(weights, m+1)[:p+m]
				for k := first; k <= last; k++ {
					for b := bitmap[k]; b != 0; b &= b - 1 {
						i := k<<6 | bits.TrailingZeros64(b)
						colIdx[p], weights[p] = int32(i), acc[i]
						p++
					}
					bitmap[k] = 0
				}
			}
			if f.SelfLoop {
				colIdx, weights = append(colIdx, int32(j)), append(weights, 1)
			}
		}
		rowPtr = append(rowPtr, len(colIdx)-base)
		for t := max(lo, 0); t < hi; t++ {
			counted[t] = true
		}
	}
	sc.acc, sc.bitmap, sc.counted = acc, bitmap, counted
	out.rowPtr, out.colIdx, out.weights = rowPtr, colIdx, weights
	out.Mats = slices.Grow(out.Mats[:0], len(forms))[:len(forms)]
	for k, p := 0, 0; k < len(forms); k++ {
		ptr := rowPtr[k*(n+1) : (k+1)*(n+1)]
		out.Mats[k] = tensor.CSR[float64]{NRows: n, NCols: n, RowPtr: ptr, ColIdx: colIdx[p : p+ptr[n]], Weights: weights[p : p+ptr[n]]}
		p += ptr[n]
	}
}

// appendNodes appends the IDs of a sample's nodes to dst: target, then
// the rows the walk added after it.
func (s *Snapshot) appendNodes(dst []NodeID, target NodeID, rows []int32) []NodeID {
	dst = append(dst, target)
	for _, r := range rows[1:] {
		dst = append(dst, s.ids[r])
	}
	return dst
}

// walk runs a sample's expansion and, with opts.Layers set, finds its
// cone: the returned walk's scratch holds the sampled rows and hops and,
// in dist and live, the nodes within Layers−1 hops of the target over
// the induced edges (without Layers, live lists every node). The caller
// releases the scratch.
func (s *Snapshot) walk(target NodeID, opts SampleOptions) sampleWalk {
	if opts.Hops <= 0 {
		opts.Hops = 2
	}
	sc := acquireSampleScratch(len(s.ids))
	w := sampleWalk{s: s, sc: sc, filter: opts.Filter, raw: opts.RawWeights, masked: opts.Mask.masked()}
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
				if t == w.masked {
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
	if opts.Layers <= 0 {
		sc.live = sc.live[:0]
		for i := 0; i < n; i++ {
			sc.live = append(sc.live, i)
		}
		return w
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
				if t == w.masked {
					continue
				}
				for _, e := range w.row(t, j) {
					if i := int(e.src); dist[i] < 0 {
						dist[i] = d + 1
						live = append(live, i)
					}
				}
			}
		}
		lo = hi
	}
	sc.dist, sc.live = dist, live
	return w
}

// sampleWalk is the state Snapshot.Sample shares between its passes.
type sampleWalk struct {
	s      *Snapshot
	sc     *sampleScratch
	filter func(NodeID) bool
	raw    bool
	masked int // the type opts.Mask drops, or −1
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

// rowEntry is one induced edge into a sampled node: its source's local
// index and §III-A weight.
type rowEntry struct {
	src int32
	wt  float64
}

// row returns every type-t induced edge between sampled node li and a
// sampled neighbor, in ascending neighbor ID, with the §III-A normalized
// weight (the arithmetic of SampleView: edge weight over √(deg·deg) with
// full-graph typed degrees, zero-degree endpoints and non-positive
// weights skipped). The slice is scratch, valid until the next call.
func (w *sampleWalk) row(t, li int) []rowEntry {
	r := w.sc.rows[li]
	if r < 0 {
		return nil
	}
	s, local, deg := w.s, w.sc.local, w.s.deg[t]
	du := deg[r]
	if !w.raw && du == 0 {
		return nil
	}
	es := w.sc.row[:0]
	a, b := s.offsets[t][r], s.offsets[t][r+1]
	wts := s.wts[t][a:b]
	for k, v := range s.nbr[t][a:b] {
		lj := local[v] - 1
		if lj < 0 {
			continue
		}
		wt := wts[k]
		if !w.raw {
			dv := deg[v]
			if dv == 0 {
				continue
			}
			wt /= math.Sqrt(du * dv)
		}
		if wt > 0 {
			es = append(es, rowEntry{lj, wt})
		}
	}
	w.sc.row = es
	return es
}
