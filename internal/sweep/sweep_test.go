package sweep

import (
	"math"
	"sync"
	"testing"
	"time"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/tensor"
)

var never = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// testWorld builds a live multigraph (kept mutable for the isolation
// test), freezes a snapshot, and compiles the full-graph batch whose row
// i is node i — the same shape the eval harness and the BN server feed
// the sweep engine.
func testWorld(seed uint64, n, types, dim int) (*graph.Graph, *graph.Snapshot, *gnn.Batch, *tensor.Matrix, []graph.NodeID) {
	rng := tensor.NewRNG(seed | 1)
	g := graph.New(types)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i)) // isolated nodes stay scoreable
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
	b := gnn.NewBatch(graph.FullSubgraph(snap, graph.FullOptions{Nodes: nodes}), x)
	return g, snap, b, x, nodes
}

// testModels returns every sweep-capable model family: the three
// baselines plus all four HAG ablation variants.
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

// TestSweepMatchesBatchScores pins the shard-parallel sweep to the
// per-batch gnn.Scores path bitwise, serial and parallel, for every
// model family: both run the identical Infer kernels, so the scores —
// and every metric derived from them — cannot drift.
func TestSweepMatchesBatchScores(t *testing.T) {
	_, _, b, _, _ := testWorld(3, 40, 3, 6)
	for _, m := range testModels(6, 3) {
		want := gnn.Scores(m, b)
		for _, w := range []int{1, 4} {
			got, st := Scores(m, b, Options{Workers: w})
			if st.Workers != w || st.Nodes != b.NumNodes || len(st.ShardCompute) != w {
				t.Fatalf("%s workers=%d: stats %+v", m.Name(), w, st)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d node %d: sweep %v, batch %v",
						m.Name(), w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSweepMatchesPerNodeScore pins the full-graph sweep to the online
// serving path — a per-node gnn.Score over a sampled computation
// subgraph — within 1e-12 at every node for every model family. The
// subgraph radius equals the model depth, so the two paths compute the
// same function; only subgraph-local index order (which permutes
// within-row summation) separates them.
func TestSweepMatchesPerNodeScore(t *testing.T) {
	_, snap, b, x, nodes := testWorld(5, 30, 3, 6)
	for _, m := range testModels(6, 3) {
		got, _ := Scores(m, b, Options{Workers: 4})
		for i, u := range nodes {
			sg := graph.SampleView(snap, u, graph.SampleOptions{Hops: 2})
			xs := tensor.New(len(sg.Nodes), x.Cols)
			for li, id := range sg.Nodes {
				copy(xs.Row(li), x.Row(int(id)))
			}
			want := gnn.Score(m, gnn.NewBatch(sg, xs))
			if math.Abs(got[i]-want) > 1e-12 {
				t.Fatalf("%s node %d: sweep %v, per-node %v (diff %g)",
					m.Name(), u, got[i], want, math.Abs(got[i]-want))
			}
		}
	}
}

// TestSweepSnapshotIsolation runs sweeps over a compiled batch while
// writers mutate the live graph concurrently: the batch was compiled
// from an immutable snapshot, so every sweep must reproduce the
// pre-mutation scores bitwise. Run under -race this also proves the
// engine shares no state with the ingest path.
func TestSweepSnapshotIsolation(t *testing.T) {
	g, _, b, _, _ := testWorld(7, 40, 3, 6)
	models := testModels(6, 3)
	baseline := make([][]float64, len(models))
	for k, m := range models {
		baseline[k] = gnn.Scores(m, b)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := tensor.NewRNG(99)
		for {
			select {
			case <-done:
				return
			default:
			}
			u := rng.Intn(60)
			v := rng.Intn(60)
			if u == v {
				continue
			}
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(3)),
				graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.1, never)
		}
	}()
	defer wg.Wait()
	defer close(done)
	for rep := 0; rep < 3; rep++ {
		for k, m := range models {
			got, _ := Scores(m, b, Options{Workers: 4})
			for i := range baseline[k] {
				if got[i] != baseline[k][i] {
					t.Fatalf("%s rep %d node %d: score changed under concurrent ingest", m.Name(), rep, i)
				}
			}
		}
	}
}

// TestRunEmitCoverage checks the streaming contract: emit receives
// disjoint ranges that exactly cover [0, n), each with one probability
// per row, and the stats account for every shard.
func TestRunEmitCoverage(t *testing.T) {
	_, _, b, _, _ := testWorld(17, 50, 3, 6)
	m := testModels(6, 3)[0]
	prog := m.BuildSweep(b)
	defer prog.Release()
	var mu sync.Mutex
	seen := make([]int, b.NumNodes)
	st := Run(prog, Options{Workers: 4, RowCost: EdgeCosts(b)}, func(lo, hi int, probs []float64) {
		if len(probs) != hi-lo {
			t.Errorf("emit(%d,%d) carried %d probs", lo, hi, len(probs))
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		mu.Unlock()
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d emitted %d times", i, c)
		}
	}
	if st.Steps != len(prog.Steps) || st.Workers != 4 || len(st.ShardCompute) != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func checkBounds(t *testing.T, bounds []int, n, k int) {
	t.Helper()
	if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != n {
		t.Fatalf("bad bounds %v for n=%d k=%d", bounds, n, k)
	}
	for i := 1; i <= k; i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("non-monotone bounds %v", bounds)
		}
	}
}

// TestPartition checks the shard boundary invariants for even and
// cost-weighted splits, including k > n and a pathologically heavy row.
func TestPartition(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{10, 3}, {1, 4}, {100, 7}, {5, 5}, {32, 1}} {
		checkBounds(t, partition(tc.n, tc.k, nil), tc.n, tc.k)
	}
	cost := make([]int, 100)
	for i := range cost {
		cost[i] = 1
	}
	cost[0] = 100
	bounds := partition(100, 4, cost)
	checkBounds(t, bounds, 100, 4)
	if bounds[1] >= 25 {
		t.Fatalf("heavy head row not isolated: %v", bounds)
	}
	rng := tensor.NewRNG(13)
	for i := range cost {
		cost[i] = rng.Intn(50)
	}
	checkBounds(t, partition(100, 8, cost), 100, 8)
}

// TestEdgeCosts checks the per-row cost model: a constant per row plus
// the row's entries in every aggregation matrix compiled on the batch.
func TestEdgeCosts(t *testing.T) {
	_, _, b, _, _ := testWorld(11, 20, 2, 4)
	for i, c := range EdgeCosts(b) {
		if c != 4 {
			t.Fatalf("row %d costs %d before any matrix is compiled, want 4", i, c)
		}
	}
	merged, typed := b.CSR(gnn.MergedMean), b.TypedMeanCSR(0)
	if merged.NNZ() != len(mergedEdges(b)) {
		t.Fatalf("merged matrix has %d entries, want the %d merged edges", merged.NNZ(), len(mergedEdges(b)))
	}
	cost := EdgeCosts(b)
	if len(cost) != b.NumNodes {
		t.Fatalf("cost length %d, want %d", len(cost), b.NumNodes)
	}
	sum := 0
	for i, c := range cost {
		rows := merged.RowPtr[i+1] - merged.RowPtr[i] + typed.RowPtr[i+1] - typed.RowPtr[i]
		if c != 4+rows {
			t.Fatalf("row %d costs %d, want 4 + %d entries", i, c, rows)
		}
		sum += c
	}
	if want := 4*b.NumNodes + merged.NNZ() + typed.NNZ(); sum != want {
		t.Fatalf("total cost %d, want %d", sum, want)
	}
}
