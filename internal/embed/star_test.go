package embed

import (
	"math"
	"math/rand"
	"testing"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/tensor"
)

// stackAggs returns the aggregation matrix each of m's stacks reads.
func stackAggs(t *testing.T, m gnn.Model) []gnn.Agg {
	t.Helper()
	var stacks []gnn.Stack[float64]
	switch m := m.(type) {
	case *gnn.GCN:
		stacks = m.F64.Stacks
	case *gnn.GAT:
		stacks = m.F64.Stacks
	case *hag.HAG:
		stacks = m.F64.Stacks
	default:
		t.Fatalf("%s: no stacks to read", m.Name())
	}
	aggs := make([]gnn.Agg, len(stacks))
	for i := range stacks {
		aggs[i] = stacks[i].Agg
	}
	return aggs
}

// starsAreBatchRows fails unless every row r's star holds, for each of
// the model's stacks, row r of the matrix a fresh gnn.FullBatch over the
// table's universe compiles on snap: the same universe columns in the
// same order and the same weight bits; and unless its Gather starts at
// r and lists each other column once.
func starsAreBatchRows(t *testing.T, where string, tab *Table, snap *graph.Snapshot, aggs []gnn.Agg) {
	t.Helper()
	b := gnn.FullBatch(snap, nil, graph.FullOptions{Nodes: tab.ids})
	defer b.Release()
	for r := range tab.ids {
		star := tab.stars[r]
		if star.Gather[0] != int32(r) {
			t.Fatalf("%s row %d: Gather starts at %d", where, r, star.Gather[0])
		}
		read := make([]bool, len(star.Gather))
		read[0] = true
		for s, agg := range aggs {
			a := b.CSR(agg)
			lo, hi := a.RowPtr[r], a.RowPtr[r+1]
			p0, p1 := star.RowPtr[s], star.RowPtr[s+1]
			if p1-p0 != hi-lo {
				t.Fatalf("%s row %d stack %d: %d entries, batch row %d", where, r, s, p1-p0, hi-lo)
			}
			for e := 0; e < hi-lo; e++ {
				p := star.Cols[p0+e]
				if star.Gather[p] != a.ColIdx[lo+e] || math.Float64bits(star.Weights[p0+e]) != math.Float64bits(a.Weights[lo+e]) {
					t.Fatalf("%s row %d stack %d entry %d: column %d weight %v, batch column %d weight %v",
						where, r, s, e, star.Gather[p], star.Weights[p0+e], a.ColIdx[lo+e], a.Weights[lo+e])
				}
				read[p] = true
			}
		}
		seen := map[int32]bool{}
		for p, gr := range star.Gather {
			if seen[gr] || !read[p] {
				t.Fatalf("%s row %d: Gather %v repeats or holds an unread row", where, r, star.Gather)
			}
			seen[gr] = true
		}
	}
}

// starCoverage counts the universe shapes a star test must have met for
// its verdict to mean anything.
type starCoverage struct {
	shared2, shared3 int // rows with a universe neighbour reached by ≥2 / 3 types
	outside          int // rows with a snapshot neighbour outside the universe
	isolated         int // registered universe nodes with no edges
	unregistered     int // universe nodes the snapshot does not have
}

func coverage(tab *Table, snap *graph.Snapshot) starCoverage {
	var c starCoverage
	for _, u := range tab.ids {
		if !snap.HasNode(u) {
			c.unregistered++
			continue
		}
		types := map[graph.NodeID]int{}
		edges, outside := 0, false
		for et := 0; et < snap.NumEdgeTypes(); et++ {
			snap.ForEachTypedNeighbor(u, graph.EdgeType(et), func(v graph.NodeID, _ float64) {
				edges++
				if tab.Row(v) < 0 {
					outside = true
				} else {
					types[v]++
				}
			})
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
		if edges == 0 {
			c.isolated++
		}
		if outside {
			c.outside++
		}
	}
	return c
}

func (c starCoverage) check(t *testing.T, where string) {
	t.Helper()
	if c.shared2 == 0 || c.shared3 == 0 || c.outside == 0 || c.isolated == 0 || c.unregistered == 0 {
		t.Fatalf("%s: star world misses a case: %+v", where, c)
	}
}

// starWorld is a random 3-type graph whose table universe is a sorted
// subset of its nodes — so some neighbours fall outside it — plus
// isolated registered nodes and one ID the snapshot never saw. Each
// edge joins nodes at most eight IDs apart, so a pair often meets in
// two or three types while a small dirty set's ball stays a fraction of
// the universe.
func starWorld(seed int64, n int) (*graph.Graph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(3)
	for i := 0; i < n+4; i++ {
		g.AddNode(graph.NodeID(i)) // nodes n … n+3 stay isolated
	}
	for e := 0; e < 12*n; e++ {
		u := rng.Intn(n)
		v := (u + 1 + rng.Intn(8)) % n
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

// TestStarsAreBatchRows holds the one invariant a serving star has: it
// is the full-graph batch's row. After Build, and again after a Refresh
// that follows edge deltas, every row's star equals bit for bit the row
// a fresh batch over the universe compiles on that snapshot, for GCN's
// and GAT's merged rows with their self-loop and HAG's typed rows, over
// random graphs that fold neighbours shared across two and three types
// and hold neighbours outside the universe, isolated universe nodes and
// a universe node the snapshot lacks. The universe is large enough that
// Build cuts its stars in three ranges.
func TestStarsAreBatchRows(t *testing.T) {
	withProcs(t, 3)
	models := testModels(6, 3)
	for _, m := range []gnn.Model{models[0], models[2], models[3]} {
		aggs := stackAggs(t, m)
		for _, seed := range []int64{1, 2, 3} {
			const n = 200
			g, ids := starWorld(seed, n)
			snap := g.Snapshot()
			x := tensor.RandNormal(len(ids), 6, 1, tensor.NewRNG(uint64(seed)))
			res, err := Build(snap, ids, x, m, 1)
			if err != nil {
				t.Fatal(err)
			}
			tab := res.Table
			starsAreBatchRows(t, m.Name()+" build", tab, snap, aggs)
			coverage(tab, snap).check(t, "build")

			s := NewStore()
			s.Install(tab, snap)
			g.SetDeltaObserver(s.NoteDelta)
			rng := rand.New(rand.NewSource(seed + 100))
			// One delta to a new node (n+4 … n+9, sparing the isolated
			// n … n+3), one between old nodes: the refresh ball must stay
			// short of the universe, or its batch is the universe's.
			u := rng.Intn(n)
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(3)), graph.NodeID(u), graph.NodeID(n+4+rng.Intn(6)), rng.Float64()+0.1, never)
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(3)), graph.NodeID(u), graph.NodeID((u+n/2)%n), rng.Float64()+0.1, never)
			snap2 := g.Snapshot()
			s.Flush(snap2)
			if st := s.Refresh(); st.Dirty == 0 || st.Ball >= len(ids) {
				t.Fatalf("%s: refresh of %d dirty rows re-embedded %d of %d", m.Name(), st.Dirty, st.Ball, len(ids))
			}
			// Every star a delta can change sits in its dirty ball, so
			// after the refresh every star is the new snapshot's row.
			starsAreBatchRows(t, m.Name()+" refresh", s.Table(), snap2, aggs)
			coverage(s.Table(), snap2).check(t, "refresh")
		}
	}
}

// TestBuildRejectsUnsortedUniverse: a repeated ID would alias two table
// rows, so Build refuses a universe that is not strictly ascending,
// shuffled or repeating.
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
		if _, err := Build(snap, ids, x, m, 1); err == nil {
			t.Fatalf("%s universe: Build returned no error", name)
		}
	}
}
