package embed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/sweep"
	"turbo/internal/tensor"
)

// starView is what the reference star builder reads of a snapshot.
type starView interface {
	NumEdgeTypes() int
	TypedWeightedDegree(u graph.NodeID, t graph.EdgeType) float64
	ForEachTypedNeighbor(u graph.NodeID, t graph.EdgeType, fn func(v graph.NodeID, w float64))
}

// buildStar is the reference star builder the compiler replaced, kept
// verbatim but for its snapshot parameter's type: it walks neighbours by
// ID through the snapshot's methods, looks each up in the table's
// index, stable-sorts the type runs concatenated in type order and
// folds duplicates, then binary-searches each typed entry's local row.
// Returns a star even when the node has no universe neighbors
// (self-loop-only aggregation still serves).
func (t *Table) buildStar(snap starView, r int32) *gnn.EmbedStar {
	u := t.ids[r]
	nTypes := snap.NumEdgeTypes()
	typed := make([][]starEntry, nTypes)
	total := 0
	for et := 0; et < nTypes; et++ {
		du := snap.TypedWeightedDegree(u, graph.EdgeType(et))
		if du == 0 {
			continue
		}
		snap.ForEachTypedNeighbor(u, graph.EdgeType(et), func(v graph.NodeID, w float64) {
			vr, ok := t.index[v]
			if !ok {
				return
			}
			dv := snap.TypedWeightedDegree(v, graph.EdgeType(et))
			if dv == 0 {
				return
			}
			typed[et] = append(typed[et], starEntry{row: vr, w: w / math.Sqrt(du*dv)})
		})
		total += len(typed[et])
	}

	// Merge across types: stable sort by universe row, fold duplicates in
	// concatenation (= type) order, as mergeEdges does by (src, dst).
	all := make([]starEntry, 0, total)
	for et := 0; et < nTypes; et++ {
		all = append(all, typed[et]...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].row < all[j].row })
	merged := all[:0]
	for _, e := range all {
		if n := len(merged); n > 0 && merged[n-1].row == e.row {
			merged[n-1].w += e.w
		} else {
			merged = append(merged, e)
		}
	}

	// Localize: gathered block row 0 is the target; merged neighbors
	// follow in sorted order. A self edge (should not occur in a BN, but
	// harmless) maps to local 0.
	star := &gnn.EmbedStar{
		Gather: make([]int32, 1, len(merged)+1),
		Merged: make([]gnn.StarEdge, len(merged)),
	}
	star.Gather[0] = r
	mergedRows := make([]int32, len(merged))
	mergedLocal := make([]int32, len(merged))
	for i, e := range merged {
		var local int32
		if e.row == r {
			local = 0
		} else {
			local = int32(len(star.Gather))
			star.Gather = append(star.Gather, e.row)
		}
		mergedRows[i] = e.row
		mergedLocal[i] = local
		star.Merged[i] = gnn.StarEdge{Row: local, Weight: e.w}
	}

	star.Typed = make([][]gnn.StarEdge, nTypes)
	for et := 0; et < nTypes; et++ {
		if len(typed[et]) == 0 {
			continue
		}
		es := make([]gnn.StarEdge, len(typed[et]))
		for i, e := range typed[et] {
			k := sort.Search(len(mergedRows), func(k int) bool { return mergedRows[k] >= e.row })
			es[i] = gnn.StarEdge{Row: mergedLocal[k], Weight: e.w}
		}
		star.Typed[et] = es
	}
	return star
}

// sameStar fails unless got is want entry for entry: Gather, every
// Typed run and Merged, rows and weight bits.
func sameStar(t *testing.T, where string, got, want *gnn.EmbedStar) {
	t.Helper()
	if !slices.Equal(got.Gather, want.Gather) {
		t.Fatalf("%s: Gather %v, reference %v", where, got.Gather, want.Gather)
	}
	sameEdges := func(what string, g, w []gnn.StarEdge) {
		if len(g) != len(w) {
			t.Fatalf("%s %s: %d edges, reference %d", where, what, len(g), len(w))
		}
		for i := range g {
			if g[i].Row != w[i].Row || math.Float64bits(g[i].Weight) != math.Float64bits(w[i].Weight) {
				t.Fatalf("%s %s[%d]: %+v, reference %+v", where, what, i, g[i], w[i])
			}
		}
	}
	if len(got.Typed) != len(want.Typed) {
		t.Fatalf("%s: %d typed runs, reference %d", where, len(got.Typed), len(want.Typed))
	}
	for et := range got.Typed {
		sameEdges(fmt.Sprintf("Typed[%d]", et), got.Typed[et], want.Typed[et])
	}
	sameEdges("Merged", got.Merged, want.Merged)
}

// starCoverage counts, over reference stars, the shapes the parity test
// must have met for its verdict to mean anything.
type starCoverage struct {
	shared2, shared3 int // rows with a neighbour reached by ≥2 / 3 types
	outside          int // rows with a snapshot neighbour outside the universe
	isolated         int // registered universe nodes with no edges
	unregistered     int // universe nodes the snapshot does not have
}

func (c *starCoverage) note(tab *Table, snap *graph.Snapshot, r int32, ref *gnn.EmbedStar) {
	u := tab.ids[r]
	if !snap.HasNode(u) {
		c.unregistered++
		return
	}
	types := map[int32]int{}
	for _, es := range ref.Typed {
		for _, e := range es {
			types[e.Row]++
		}
	}
	most := 0
	for _, k := range types {
		most = max(most, k)
	}
	if most >= 2 {
		c.shared2++
	}
	if most >= 3 {
		c.shared3++
	}
	edges, outside := 0, false
	for et := 0; et < snap.NumEdgeTypes(); et++ {
		snap.ForEachTypedNeighbor(u, graph.EdgeType(et), func(v graph.NodeID, _ float64) {
			edges++
			outside = outside || tab.Row(v) < 0
		})
	}
	if edges == 0 {
		c.isolated++
	}
	if outside {
		c.outside++
	}
}

func (c starCoverage) check(t *testing.T, where string) {
	t.Helper()
	if c.shared2 == 0 || c.shared3 == 0 || c.outside == 0 || c.isolated == 0 || c.unregistered == 0 {
		t.Fatalf("%s: parity world misses a case: %+v", where, c)
	}
}

// starWorld is a random 3-type graph whose table universe is a sorted
// subset of its nodes — so some neighbours fall outside it — plus
// isolated registered nodes and one ID the snapshot never saw.
func starWorld(seed int64, n int) (*graph.Graph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(3)
	for i := 0; i < n+4; i++ {
		g.AddNode(graph.NodeID(i)) // nodes n … n+3 stay isolated
	}
	for e := 0; e < 12*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(3)), graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
	}
	var ids []graph.NodeID
	for i := 0; i < n+4; i++ {
		if i >= n || rng.Intn(4) != 0 {
			ids = append(ids, graph.NodeID(i))
		}
	}
	return g, append(ids, graph.NodeID(10*n)) // never registered
}

// TestStarsMatchReference holds the star compiler to the reference
// builder bitwise — every Gather entry, every Typed run and Merged, row
// and weight bits — on stars a Build compiled and on stars a Refresh
// republished after edge deltas, over random graphs that fold
// neighbours shared across two and three types and hold neighbours
// outside the universe, isolated universe nodes and a universe node the
// snapshot lacks; and on a hand-made snapshot with what a real graph
// never publishes: a self edge and a neighbour of zero typed degree.
func TestStarsMatchReference(t *testing.T) {
	m := testModels(6, 3)[3]
	for _, seed := range []int64{1, 2, 3} {
		const n = 30
		g, ids := starWorld(seed, n)
		snap := g.Snapshot()
		x := tensor.RandNormal(len(ids), 6, 1, tensor.NewRNG(uint64(seed)))
		res, err := Build(snap, ids, x, m, 1, sweep.Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		tab := res.Table
		var cov starCoverage
		for r := range tab.ids {
			ref := tab.buildStar(snap, int32(r))
			sameStar(t, "build", tab.stars[r].Load(), ref)
			cov.note(tab, snap, int32(r), ref)
		}
		cov.check(t, "build")

		s := NewStore()
		s.Install(tab, snap)
		g.SetDeltaObserver(s.NoteDelta)
		rng := rand.New(rand.NewSource(seed + 100))
		for e := 0; e < 20; e++ {
			// Between old nodes and new ones (n+4 … n+9), sparing the
			// isolated n … n+3.
			u, v := rng.Intn(n+6), rng.Intn(n+6)
			if u >= n {
				u += 4
			}
			if v >= n {
				v += 4
			}
			if u != v {
				_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(3)), graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
			}
		}
		snap2 := g.Snapshot()
		s.Flush(snap2)
		if st := s.Refresh(snap2, sweep.Options{Workers: 2}); st.Dirty == 0 {
			t.Fatal("deltas dirtied no row")
		}
		// Every star a delta can change sits in its dirty ball, so after
		// the refresh every star is the reference's on the new snapshot.
		cov = starCoverage{}
		for r := range tab.ids {
			ref := tab.buildStar(snap2, int32(r))
			sameStar(t, "refresh", tab.stars[r].Load(), ref)
			cov.note(tab, snap2, int32(r), ref)
		}
		cov.check(t, "refresh")
	}

	// Hand-made rows 0…5 = IDs 10…60; the universe drops 40 and 60 and
	// adds 70, which the snapshot lacks. Row 0 has a self edge in type 0;
	// ID 50 has type-0 edges but a zero type-0 degree; 20 and 30 are
	// reached by two and three types.
	fs := newFlatSnap([]graph.NodeID{10, 20, 30, 40, 50, 60}, [][][]flatEdge{
		{{{0, 1.5}, {1, 2}, {2, 1}, {3, 0.5}, {4, 1}}, {{0, 2}, {4, 1}}, {{0, 1}}, {{0, 0.5}}, {{0, 1}, {1, 1}}, nil},
		{{{1, 1}, {2, 3}}, {{0, 1}}, {{0, 3}, {5, 2}}, nil, nil, {{2, 2}}},
		{{{1, 0.25}, {2, 1}, {4, 1}, {5, 2}}, {{0, 0.25}}, {{0, 1}}, nil, {{0, 1}}, {{0, 2}}},
	})
	fs.adj[0].Deg[4] = 0
	tab := newTable(1, nil, nil, 2, never, []graph.NodeID{10, 20, 30, 50, 70}, nil)
	c := fs.compiler(tab)
	var sc starScratch
	for r := range tab.ids {
		ref := tab.buildStar(fs, int32(r))
		sameStar(t, "hand-made", c.compile(&sc, int32(r)), ref)
	}
	if self := c.compile(&sc, 0); self.Merged[0].Row != 0 || len(self.Gather) != 4 {
		t.Fatalf("hand-made row 0: self edge not folded onto the target: %+v", self)
	}
}

// flatEdge is one hand-made adjacency entry: a neighbour row and a raw
// weight.
type flatEdge struct {
	nbr int32
	w   float64
}

// flatSnap is a hand-made snapshot in the published layout, read both
// in row space (as the compiler reads a real one) and through the
// methods the reference builder calls.
type flatSnap struct {
	ids []graph.NodeID
	adj []graph.Adjacency
}

// newFlatSnap lays out rows[t][i], row i's type-t entries in ascending
// neighbour row, with each degree the sum of its row's weights.
func newFlatSnap(ids []graph.NodeID, rows [][][]flatEdge) *flatSnap {
	fs := &flatSnap{ids: ids, adj: make([]graph.Adjacency, len(rows))}
	for et, byRow := range rows {
		a := graph.Adjacency{Offsets: make([]int32, len(ids)+1), Deg: make([]float64, len(ids))}
		for i := range ids {
			if i < len(byRow) {
				for _, e := range byRow[i] {
					a.Nbr = append(a.Nbr, e.nbr)
					a.Wts = append(a.Wts, e.w)
					a.Deg[i] += e.w
				}
			}
			a.Offsets[i+1] = int32(len(a.Nbr))
		}
		fs.adj[et] = a
	}
	return fs
}

func (fs *flatSnap) row(u graph.NodeID) int32 {
	if i, ok := slices.BinarySearch(fs.ids, u); ok {
		return int32(i)
	}
	return -1
}

func (fs *flatSnap) NumEdgeTypes() int { return len(fs.adj) }

func (fs *flatSnap) TypedWeightedDegree(u graph.NodeID, t graph.EdgeType) float64 {
	if i := fs.row(u); i >= 0 {
		return fs.adj[t].Deg[i]
	}
	return 0
}

func (fs *flatSnap) ForEachTypedNeighbor(u graph.NodeID, t graph.EdgeType, fn func(v graph.NodeID, w float64)) {
	if i := fs.row(u); i >= 0 {
		a := fs.adj[t]
		for k := a.Offsets[i]; k < a.Offsets[i+1]; k++ {
			fn(fs.ids[a.Nbr[k]], a.Wts[k])
		}
	}
}

// compiler lays tab's universe over fs as newStarCompiler does over a
// snapshot.
func (fs *flatSnap) compiler(tab *Table) *starCompiler {
	c := &starCompiler{adj: fs.adj, snapRow: make([]int32, len(tab.ids)), uniRow: make([]int32, len(fs.ids))}
	for i := range c.uniRow {
		c.uniRow[i] = -1
	}
	for r, id := range tab.ids {
		c.snapRow[r] = fs.row(id)
		if c.snapRow[r] >= 0 {
			c.uniRow[c.snapRow[r]] = int32(r)
		}
	}
	return c
}

// TestBuildRejectsUnsortedUniverse: star compilation relies on the
// universe ascending, so Build refuses a shuffled or repeating one.
func TestBuildRejectsUnsortedUniverse(t *testing.T) {
	_, snap, x, nodes := testWorld(3, 40, 3, 6)
	m := testModels(6, 3)[0]
	shuffled := append([]graph.NodeID(nil), nodes...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	repeated := append([]graph.NodeID(nil), nodes...)
	repeated[7] = repeated[6]
	for name, ids := range map[string][]graph.NodeID{"shuffled": shuffled, "repeated": repeated} {
		if _, err := Build(snap, ids, x, m, 1, sweep.Options{Workers: 2}); err == nil {
			t.Fatalf("%s universe: Build returned no error", name)
		}
	}
}

// maxStarAllocs is the compiler's allocation bound per star: the
// struct, Gather, the Typed header and one edge backing.
const maxStarAllocs = 4

// TestStarCompileAllocs holds every star of a 1,000-node world to
// maxStarAllocs allocations, scratch warm. Each row is averaged over ten
// compiles: the count is process-wide, and the runtime's own rare
// allocations (a GC starting its workers) then round away, while one
// allocation more per star still reads as five.
func TestStarCompileAllocs(t *testing.T) {
	_, snap, _, nodes := testWorld(11, 1000, 3, 4)
	tab := newTable(1, nil, nil, 2, never, nodes, nil)
	c := newStarCompiler(tab, snap)
	var sc starScratch
	for r := range nodes {
		if a := testing.AllocsPerRun(10, func() { c.compile(&sc, int32(r)) }); a > maxStarAllocs {
			t.Fatalf("row %d: %v allocations per star, bound %d", r, a, maxStarAllocs)
		}
	}
}
