package embed

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// neighbours returns the set of x's neighbours in snap.
func neighbours(snap *graph.Snapshot, x graph.NodeID) map[graph.NodeID]bool {
	out := map[graph.NodeID]bool{}
	snap.ForEachNeighbor(x, func(v graph.NodeID) { out[v] = true })
	return out
}

// TestMemoInvalidatedByNeighbourRefresh pins what the memo is keyed by.
// A new edge (a, b) next to a neighbour v of u changes h^{L−1}(v), so
// u's score changes, yet the edge's dirty ball holds v but not u: u's
// own row stays clean and its star is never rebuilt. After Flush and
// Refresh, serving u must give the new full-graph score, which a memo
// keyed by the row alone would miss.
func TestMemoInvalidatedByNeighbourRefresh(t *testing.T) {
	g, snap, x, nodes := testWorld(7, 40, 3, 6)
	m := testModels(6, 3)[3] // full HAG
	res := buildTable(t, m, snap, nodes, x)
	tab := res.Table
	if tab.Radius() != 1 {
		t.Fatalf("radius %d: the edge search below assumes 1", tab.Radius())
	}
	s := NewStore()
	s.Install(tab, snap)
	g.SetDeltaObserver(s.NoteDelta)

	// Find u, a gathered neighbour v, a typed neighbour a of v, and b,
	// with neither a nor b equal or adjacent to u.
	var u, a, b graph.NodeID
	var et graph.EdgeType
	found := false
	for _, cu := range nodes {
		nu := neighbours(snap, cu)
		far := func(x graph.NodeID) bool { return x != cu && !nu[x] }
		for _, gr := range tab.stars[tab.Row(cu)].Load().Gather[1:] {
			v := tab.ids[gr]
			for t0 := 0; t0 < snap.NumEdgeTypes() && !found; t0++ {
				snap.ForEachTypedNeighbor(v, graph.EdgeType(t0), func(ca graph.NodeID, _ float64) {
					if found || !far(ca) {
						return
					}
					na := neighbours(snap, ca)
					for _, cb := range nodes {
						if cb != ca && !na[cb] && far(cb) {
							u, a, b, et, found = cu, ca, cb, graph.EdgeType(t0), true
							return
						}
					}
				})
			}
			if found {
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no (u, v, a, b) configuration in the test world")
	}

	first, r := s.TryServe(snap, u, m)
	if r != Hit {
		t.Fatalf("first serve of %d: %v", u, r)
	}
	if err := g.AddEdgeWeight(et, a, b, 1.5, never); err != nil {
		t.Fatal(err)
	}
	snap2 := g.Snapshot()
	s.Flush(snap2)
	if tab.isDirty(tab.Row(u)) {
		t.Fatalf("edge (%d,%d) dirtied u=%d itself", a, b, u)
	}
	if _, r := s.TryServe(snap2, u, m); r != Dirty {
		t.Fatalf("serve of %d with a dirty gathered row: %v, want Dirty", u, r)
	}
	s.Refresh(snap2)

	second, r := s.TryServe(snap2, u, m)
	if r != Hit {
		t.Fatalf("serve of %d after refresh: %v", u, r)
	}
	want := fullScores(t, m, snap2, nodes, x)[tab.Row(u)]
	if d := math.Abs(second - want); d > embedTol {
		t.Fatalf("node %d after a neighbour's refresh: served %v, full %v (diff %g)", u, second, want, d)
	}
	if second == first {
		t.Fatalf("node %d: score %v did not move; the edge does not exercise the memo", u, first)
	}
}

// memoHit is one Hit a reader saw, with the even generation it was
// served under.
type memoHit struct {
	gen  uint64
	row  int32
	prob float64
}

// TestMemoConcurrentRefresh serves in a loop from several readers while
// a writer alternates edge deltas, Flush and Refresh. A reader that
// reads the same even writeGen before and after TryServe knows the
// generation the Hit was served under; every such Hit must be bitwise
// the final layer over that generation's rows, which the writer
// computes while the generation is current.
func TestMemoConcurrentRefresh(t *testing.T) {
	g, snap, x, nodes := testWorld(19, 30, 2, 5)
	m := testModels(5, 2)[3] // full HAG
	res := buildTable(t, m, snap, nodes, x)
	tab := res.Table
	s := NewStore()
	s.Install(tab, snap)
	g.SetDeltaObserver(s.NoteDelta)

	want := map[uint64][]float64{}
	record := func() {
		gen := s.writeGen.Load()
		if _, ok := want[gen]; ok {
			return
		}
		probs := make([]float64, tab.NumRows())
		for r := range probs {
			p, ok := tab.score(tab.stars[r].Load())
			if !ok {
				t.Errorf("row %d: unset embedding", r)
			}
			probs[r] = p
		}
		want[gen] = probs
	}
	record()

	var cur atomic.Pointer[graph.Snapshot]
	cur.Store(snap)
	done := make(chan struct{})
	var served atomic.Int64 // generation-pinned hits, all readers
	const readers = 2
	seen := make([][]memoHit, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				u := nodes[k%len(nodes)]
				g0 := s.writeGen.Load()
				prob, r := s.TryServe(cur.Load(), u, m)
				if r == Hit && s.writeGen.Load() == g0 {
					seen[i] = append(seen[i], memoHit{gen: g0, row: tab.Row(u), prob: prob})
					served.Add(1)
				}
			}
		}(i)
	}

	rng := tensor.NewRNG(23)
	for round := 0; round < 40; round++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v {
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(2)),
				graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
		}
		next := g.Snapshot()
		s.Flush(next)
		cur.Store(next)
		s.Refresh(next)
		record()
		// Let the readers serve under this generation before the next.
		for n := served.Load(); served.Load() == n; {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()

	hits, gens := 0, map[uint64]bool{}
	for _, hs := range seen {
		for _, h := range hs {
			hits++
			gens[h.gen] = true
			ref, ok := want[h.gen]
			if !ok {
				t.Fatalf("hit under generation %d, which the writer never saw", h.gen)
			}
			if h.prob != ref[h.row] {
				t.Fatalf("row %d, generation %d: served %v, final layer %v", h.row, h.gen, h.prob, ref[h.row])
			}
		}
	}
	if hits == 0 || len(gens) < 2 {
		t.Fatalf("%d hits over %d generations: the readers did not overlap the refreshes", hits, len(gens))
	}
	t.Logf("%d hits over %d generations", hits, len(gens))
}
