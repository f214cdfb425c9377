package embed

import (
	"math"
	"sync"
	"testing"
	"time"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/sweep"
	"turbo/internal/tensor"
)

var never = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// embedTol is the serving parity bound: the gathered-block final layer
// may tile its dense matmuls differently than the full-height sweep, so
// the contract is ≤1e-9, not bitwise.
const embedTol = 1e-9

// testWorld builds a mutable multigraph with n nodes and ~4n random
// typed edges plus frozen features, the same shape the sweep tests use.
func testWorld(seed uint64, n, types, dim int) (*graph.Graph, *graph.Snapshot, *tensor.Matrix, []graph.NodeID) {
	rng := tensor.NewRNG(seed | 1)
	g := graph.New(types)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	for e := 0; e < 4*n; e++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(types)),
			graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
	}
	snap := g.Snapshot()
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	x := tensor.RandNormal(n, dim, 1, rng)
	return g, snap, x, nodes
}

// testModels returns all seven serving model variants of the paper's
// §VI-A comparison: GCN, GraphSAGE, GAT, HAG, and the three ablations.
func testModels(dim, types int) []gnn.Model {
	cfg := gnn.Config{InDim: dim, Hidden: []int{8, 6}, MLPHidden: 4, Seed: 7}
	ms := []gnn.Model{gnn.NewGCN(cfg), gnn.NewGraphSAGE(cfg), gnn.NewGAT(cfg)}
	mk := func(sao, cfo bool) gnn.Model {
		return hag.New(hag.Config{
			InDim: dim, NumEdgeTypes: types, Hidden: []int{8, 6},
			AttHidden: 4, MLPHidden: 4, Seed: 7,
			DisableSAOGate: sao, DisableCFO: cfo,
		})
	}
	return append(ms, mk(false, false), mk(true, false), mk(false, true), mk(true, true))
}

// fullScores is the reference: full-graph probabilities over the frozen
// universe and features on the given snapshot.
func fullScores(t *testing.T, m gnn.Model, snap *graph.Snapshot, nodes []graph.NodeID, x *tensor.Matrix) []float64 {
	t.Helper()
	b := gnn.NewBatch(graph.FullSubgraph(snap, graph.FullOptions{Nodes: nodes}), x)
	defer b.Release()
	return gnn.Scores(m, b)
}

// buildTable builds a table for m over the whole node set.
func buildTable(t *testing.T, m gnn.Model, snap *graph.Snapshot, nodes []graph.NodeID, x *tensor.Matrix) *BuildResult {
	t.Helper()
	es, ok := m.(gnn.EmbedServing)
	if !ok {
		t.Fatalf("%s: not EmbedServing", m.Name())
	}
	ids := append([]graph.NodeID(nil), nodes...)
	xc := tensor.New(x.Rows, x.Cols)
	copy(xc.Data, x.Data)
	res, err := Build(snap, ids, xc, es, 1, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatalf("%s: build: %v", m.Name(), err)
	}
	return res
}

// TestEmbedServeParity pins the embedding tier to the full-graph sweep
// for every model variant: the build's probabilities match gnn.Scores
// bitwise (same sweep), TryServe on every clean node reproduces the
// full score within 1e-9, and a warm serve (from the row's score memo)
// is bitwise the cold one.
func TestEmbedServeParity(t *testing.T) {
	_, snap, x, nodes := testWorld(3, 40, 3, 6)
	for _, m := range testModels(6, 3) {
		if !gnn.CanEmbedServe(m) {
			t.Fatalf("%s: CanEmbedServe is false", m.Name())
		}
		want := fullScores(t, m, snap, nodes, x)
		res := buildTable(t, m, snap, nodes, x)
		for i := range want {
			if res.Probs[i] != want[i] {
				t.Fatalf("%s node %d: build prob %v, sweep %v", m.Name(), i, res.Probs[i], want[i])
			}
		}
		s := NewStore()
		s.Install(res.Table, snap)
		for i, u := range nodes {
			prob, r := s.TryServe(snap, u, m)
			if r != Hit {
				t.Fatalf("%s node %d: result %v, want Hit", m.Name(), u, r)
			}
			if d := math.Abs(prob - want[i]); d > embedTol {
				t.Fatalf("%s node %d: embed %v, full %v (diff %g)", m.Name(), u, prob, want[i], d)
			}
			if res.Table.memo[i].Load() == nil {
				t.Fatalf("%s node %d: a hit left no memo", m.Name(), u)
			}
			if warm, r := s.TryServe(snap, u, m); r != Hit || warm != prob {
				t.Fatalf("%s node %d: warm serve %v (%v), cold %v", m.Name(), u, warm, r, prob)
			}
		}
		// Unknown node and model skew both refuse.
		if _, r := s.TryServe(snap, graph.NodeID(10_000), m); r != Miss {
			t.Fatalf("%s: unknown node served %v, want Miss", m.Name(), r)
		}
		other := testModels(6, 3)[0]
		if _, r := s.TryServe(snap, nodes[0], other); m != other && r != Fallback {
			t.Fatalf("%s: model skew served %v, want Fallback", m.Name(), r)
		}
	}
}

// TestDirtyNeverServesStale is the safety property of the tier: after
// edge deltas land (including prune-driven removals), every node the
// store still serves as a Hit must match the CURRENT full-graph score —
// a stale-neighborhood score is never served silently. Marked nodes
// report Dirty.
func TestDirtyNeverServesStale(t *testing.T) {
	g, snap, x, nodes := testWorld(5, 40, 3, 6)
	m := testModels(6, 3)[3] // full HAG: typed streams exercise star.Typed
	res := buildTable(t, m, snap, nodes, x)
	s := NewStore()
	s.Install(res.Table, snap)
	g.SetDeltaObserver(s.NoteDelta)

	rng := tensor.NewRNG(17)
	soon := time.Now().Add(time.Millisecond)
	for e := 0; e < 12; e++ {
		u := rng.Intn(40)
		v := rng.Intn(40)
		if u == v {
			continue
		}
		exp := never
		if e%3 == 0 {
			exp = soon // will be pruned below, firing removal deltas
		}
		_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(3)),
			graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, exp)
	}
	time.Sleep(2 * time.Millisecond)
	g.Prune(time.Now())
	if s.PendingDeltas() == 0 {
		t.Fatal("delta observer saw no updates")
	}
	snap2 := g.Snapshot()
	s.Flush(snap2) // mark-before-publish

	want := fullScores(t, m, snap2, nodes, x)
	hits, dirty := 0, 0
	for i, u := range nodes {
		prob, r := s.TryServe(snap2, u, m)
		switch r {
		case Hit:
			hits++
			if d := math.Abs(prob - want[i]); d > embedTol {
				t.Fatalf("node %d served stale: embed %v, full %v (diff %g)", u, prob, want[i], d)
			}
		case Dirty:
			dirty++
		default:
			t.Fatalf("node %d: unexpected result %v", u, r)
		}
	}
	if dirty == 0 {
		t.Fatal("no node went dirty after edge deltas")
	}
	if res.Table.DirtyCount() == 0 {
		t.Fatal("dirty gauge is zero after deltas")
	}
	t.Logf("hits=%d dirty=%d", hits, dirty)

	// Refresh repairs the dirty set: everything serves again and matches
	// the post-delta full scores within tolerance.
	st := s.Refresh(snap2, sweep.Options{Workers: 2})
	if st.Dirty == 0 || st.Ball < st.Dirty || st.Cleared != st.Dirty {
		t.Fatalf("refresh stats %+v", st)
	}
	if res.Table.DirtyCount() != 0 {
		t.Fatalf("dirty rows remain after refresh: %d", res.Table.DirtyCount())
	}
	for i, u := range nodes {
		prob, r := s.TryServe(snap2, u, m)
		if r != Hit {
			t.Fatalf("node %d after refresh: result %v", u, r)
		}
		if d := math.Abs(prob - want[i]); d > embedTol {
			t.Fatalf("node %d after refresh: embed %v, full %v (diff %g)", u, prob, want[i], d)
		}
	}

	// Older snapshots must refuse after the refresh moved the epoch.
	if _, r := s.TryServe(snap, nodes[0], m); r != Fallback {
		t.Fatalf("pre-refresh snapshot served %v, want Fallback", r)
	}
}

// TestRandomizedDirtyPropagation drives randomized edge-update rounds —
// with a concurrent ingest goroutine for the race detector — and after
// every flushed snapshot checks the invariant end to end: no
// reachable-but-unmarked node, i.e. every Hit equals the current
// full-graph score. Periodic refreshes interleave with the updates.
func TestRandomizedDirtyPropagation(t *testing.T) {
	g, snap, x, nodes := testWorld(11, 30, 2, 5)
	m := testModels(5, 2)[0] // GCN: self-loop aggregation path
	res := buildTable(t, m, snap, nodes, x)
	s := NewStore()
	s.Install(res.Table, snap)
	g.SetDeltaObserver(s.NoteDelta)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // background ingest: hammers NoteDelta and markBall under -race
		defer wg.Done()
		rng := tensor.NewRNG(99)
		for {
			select {
			case <-done:
				return
			default:
			}
			u, v := rng.Intn(30), rng.Intn(30)
			if u == v {
				continue
			}
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(2)),
				graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
		}
	}()
	defer wg.Wait()
	defer close(done)

	rng := tensor.NewRNG(41)
	for round := 0; round < 6; round++ {
		for e := 0; e < 5; e++ {
			u, v := rng.Intn(30), rng.Intn(30)
			if u == v {
				continue
			}
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(2)),
				graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
		}
		cur := g.Snapshot()
		s.Flush(cur)
		want := fullScores(t, m, cur, nodes, x)
		for i, u := range nodes {
			prob, r := s.TryServe(cur, u, m)
			if r == Hit {
				if d := math.Abs(prob - want[i]); d > embedTol {
					t.Fatalf("round %d node %d: stale hit (diff %g)", round, u, d)
				}
			}
		}
		if round%2 == 1 {
			s.Refresh(cur, sweep.Options{Workers: 2})
		}
	}
}

// TestRebuildLogReplay covers the build-while-ingesting window: deltas
// that land between the build snapshot and Install must mark the NEW
// table dirty, so the freshly installed table cannot serve scores that
// predate those edges.
func TestRebuildLogReplay(t *testing.T) {
	g, snap, x, nodes := testWorld(13, 30, 2, 5)
	m := testModels(5, 2)[1] // GraphSAGE
	s := NewStore()
	g.SetDeltaObserver(s.NoteDelta)

	s.BeginRebuild()
	res := buildTable(t, m, snap, nodes, x)
	// A delta lands after the build snapshot, before Install.
	if err := g.AddEdgeWeight(0, nodes[3], nodes[7], 1.0, never); err != nil {
		t.Fatal(err)
	}
	snap2 := g.Snapshot()
	s.Flush(snap2)
	s.Install(res.Table, snap2)

	if res.Table.DirtyCount() == 0 {
		t.Fatal("install did not replay the rebuild log")
	}
	if _, r := s.TryServe(snap2, nodes[3], m); r != Dirty {
		t.Fatalf("endpoint served %v, want Dirty", r)
	}
	want := fullScores(t, m, snap2, nodes, x)
	for i, u := range nodes {
		if prob, r := s.TryServe(snap2, u, m); r == Hit {
			if d := math.Abs(prob - want[i]); d > embedTol {
				t.Fatalf("node %d: stale hit after install (diff %g)", u, d)
			}
		}
	}
}
