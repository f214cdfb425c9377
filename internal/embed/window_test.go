package embed

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// staleHits serves every node on snap and counts the hits, and the hits
// whose score is not the full-graph score on snap.
func staleHits(t *testing.T, s *Store, m gnn.Model, snap *graph.Snapshot, nodes []graph.NodeID, x *tensor.Matrix) (hits, stale int) {
	t.Helper()
	want := fullScores(t, m, snap, nodes, x)
	for i, u := range nodes {
		if prob, r := s.TryServe(snap, u, m); r == Hit {
			hits++
			if math.Abs(prob-want[i]) > embedTol {
				stale++
			}
		}
	}
	return hits, stale
}

// windowWorld installs a GraphSAGE table built on a fresh world's
// snapshot and writes one edge the table's snapshot lacks, noted but not
// yet flushed: the state inside an Advance between its graph writes and
// its pre-publish flush.
func windowWorld(t *testing.T) (*graph.Graph, *Store, gnn.Model, *graph.Snapshot, *tensor.Matrix, []graph.NodeID) {
	g, snap, x, nodes := testWorld(13, 30, 2, 5)
	m := testModels(5, 2)[1] // GraphSAGE
	s := NewStore()
	s.Install(buildTable(t, m, snap, nodes, x).Table, snap)
	g.SetDeltaObserver(s.NoteDelta)
	if err := g.AddEdgeWeight(0, nodes[3], nodes[7], 1.0, never); err != nil {
		t.Fatal(err)
	}
	return g, s, m, snap, x, nodes
}

// TestRebuildKeepsPendingDelta: a rebuild that begins after an Advance
// noted a delta but before it flushed it must still mark that delta on
// the new table. The build runs on the snapshot BeginRebuild hands back,
// which lacks the delta, so the delta must come back through the log.
func TestRebuildKeepsPendingDelta(t *testing.T) {
	g, s, m, _, x, nodes := windowWorld(t)
	base := s.BeginRebuild()
	snap2 := g.Snapshot()
	s.Flush(snap2) // the Advance's pre-publish flush, under the rebuild
	res := buildTable(t, m, base, nodes, x)
	s.Install(res.Table, snap2)

	if s.Table().DirtyCount() == 0 {
		t.Fatal("the installed table carries no mark for the pending delta")
	}
	hits, stale := staleHits(t, s, m, snap2, nodes, x)
	if stale > 0 || hits == 0 {
		t.Fatalf("%d stale of %d hits on the published snapshot", stale, hits)
	}
}

// TestRefreshComputesOnFlushedSnapshot: a refresh that begins after an
// Advance flushed a snapshot, but before the Advance published it, must
// compute on that snapshot, not on the one still being read; otherwise
// it clears the new delta's marks with rows that predate the delta.
func TestRefreshComputesOnFlushedSnapshot(t *testing.T) {
	g, s, m, snap, x, nodes := windowWorld(t)
	snap2 := g.Snapshot()
	s.Flush(snap2)
	if st := s.Refresh(); st.Dirty == 0 || st.Cleared != st.Dirty {
		t.Fatalf("refresh stats %+v", st)
	}
	hits, stale := staleHits(t, s, m, snap2, nodes, x)
	if stale > 0 || hits != len(nodes) {
		t.Fatalf("%d stale of %d hits on the published snapshot", stale, hits)
	}
	if _, r := s.TryServe(snap, nodes[0], m); r != Fallback {
		t.Fatalf("the snapshot before the refresh's served %v, want Fallback", r)
	}
}

// servedHit is one Hit a reader saw with the table it was served from.
type servedHit struct {
	tab  *Table
	snap *graph.Snapshot
	row  int32
	prob float64
}

// TestConcurrentTableChanges runs the engine's writers beside serving
// readers. A writer does what Advance does: graph writes, a snapshot,
// the pre-publish Flush, then the publish. A refresher and a rebuilder
// change the table, serialized with each other as the engine's run lock
// does. Readers keep a Hit only when Table() names the same table before
// and after TryServe; each such hit must be the full-graph score over
// that table's universe and frozen features on the reader's snapshot.
func TestConcurrentTableChanges(t *testing.T) {
	const n = 60
	g, snap, x, nodes := localWorld(29, n, 2, 5)
	m := testModels(5, 2)[3] // full HAG
	s := NewStore()
	s.Install(buildTable(t, m, snap, nodes, x).Table, snap)
	g.SetDeltaObserver(s.NoteDelta)
	withProcs(t, 4)

	var published atomic.Pointer[graph.Snapshot]
	published.Store(snap)
	done := make(chan struct{})
	var wg sync.WaitGroup
	spawn := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}

	const readers = 2
	var served atomic.Int64 // recorded hits, all readers
	seen := make([][]servedHit, readers)
	for i := 0; i < readers; i++ {
		spawn(func() {
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				u, cur := nodes[k%len(nodes)], published.Load()
				tab := s.Table()
				prob, r := s.TryServe(cur, u, m)
				if r == Hit && s.Table() == tab {
					seen[i] = append(seen[i], servedHit{tab: tab, snap: cur, row: tab.Row(u), prob: prob})
					served.Add(1)
				}
			}
		})
	}

	var runMu sync.Mutex
	var refreshes, rebuilds atomic.Int64
	spawn(func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			runMu.Lock()
			if s.Refresh().Ball > 0 {
				refreshes.Add(1)
			}
			runMu.Unlock()
			runtime.Gosched()
		}
	})
	spawn(func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			runMu.Lock()
			base := s.BeginRebuild()
			ids := append([]graph.NodeID(nil), nodes...)
			xc := tensor.New(x.Rows, x.Cols)
			copy(xc.Data, x.Data)
			res, err := Build(base, ids, xc, m, 1)
			if err != nil {
				s.AbortRebuild()
				runMu.Unlock()
				t.Error(err)
				return
			}
			s.Install(res.Table, published.Load())
			rebuilds.Add(1)
			runMu.Unlock()
			runtime.Gosched()
		}
	})

	// Local deltas leave most stars clean, so the readers hit between
	// the writer's rounds; each round waits for one more recorded hit.
	rng := tensor.NewRNG(31)
	for round := 0; round < 60 || refreshes.Load() < 3 || rebuilds.Load() < 3; round++ {
		u := rng.Intn(n - 1)
		_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(2)),
			graph.NodeID(u), graph.NodeID(min(u+1+rng.Intn(3), n-1)), rng.Float64()+0.1, never)
		next := g.Snapshot()
		s.Flush(next)
		published.Store(next)
		for h := served.Load(); served.Load() == h; {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()

	// The reference for a hit is the full forward over its table's
	// universe and features on its snapshot; every table of this test
	// shares nodes and x, so one forward per snapshot serves them all.
	want := map[*graph.Snapshot][]float64{}
	hits, tables := 0, map[*Table]bool{}
	for _, hs := range seen {
		for _, h := range hs {
			ref, ok := want[h.snap]
			if !ok {
				ref = fullScores(t, m, h.snap, h.tab.ids, h.tab.x)
				want[h.snap] = ref
			}
			if h.prob != ref[h.row] {
				t.Fatalf("row %d on snapshot %d, table at epoch %d: served %v, full %v",
					h.row, h.snap.Epoch(), h.tab.Epoch(), h.prob, ref[h.row])
			}
			hits++
			tables[h.tab] = true
		}
	}
	if hits == 0 || len(tables) < 2 {
		t.Fatalf("%d hits from %d tables: the readers did not overlap the table changes", hits, len(tables))
	}
	t.Logf("%d hits from %d tables; %d refreshes, %d rebuilds", hits, len(tables), refreshes.Load(), rebuilds.Load())
}
