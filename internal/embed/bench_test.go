package embed

import (
	"runtime"
	"testing"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// benchWorld is the shared benchmark fixture: a 400-node world with the
// full HAG serving model (the paper's deployed variant), its embedding
// table installed and fully clean.
func benchWorld(b *testing.B) (*graph.Graph, *graph.Snapshot, *tensor.Matrix, []graph.NodeID, gnn.Model, *Store) {
	b.Helper()
	g, snap, x, nodes := testWorld(21, 400, 3, 8)
	m := testModels(8, 3)[3] // full HAG
	ids := append([]graph.NodeID(nil), nodes...)
	xc := tensor.New(x.Rows, x.Cols)
	copy(xc.Data, x.Data)
	res, err := Build(snap, ids, xc, m, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := NewStore()
	s.Install(res.Table, snap)
	return g, snap, x, nodes, m, s
}

// BenchmarkEmbedServe measures the lambda tier's serve path: one
// TryServe on a clean node. cold invalidates the row's score memo
// before each op, so every op pays the star gather, final aggregation
// layer, head and sigmoid — the first hit on a row after a refresh.
// warm serves every row from its memo — every later hit. These are the
// ns/op the BENCH_embed.json speedups compare against the per-audit
// inference paths below.
func BenchmarkEmbedServe(b *testing.B) {
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			_, snap, _, nodes, m, s := benchWorld(b)
			tab := s.Table()
			for _, u := range nodes {
				s.TryServe(snap, u, m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := nodes[i%len(nodes)]
				if !warm {
					tab.memo[tab.Row(u)].Store(nil)
				}
				if _, r := s.TryServe(snap, u, m); r != Hit {
					b.Fatalf("result %v, want Hit", r)
				}
			}
		})
	}
}

// auditBatch mirrors the prediction server's full path for one target:
// sample the 2-hop computation subgraph from the snapshot, gather its
// feature rows, and compile a batch.
func auditBatch(snap *graph.Snapshot, x *tensor.Matrix, u graph.NodeID) *gnn.Batch {
	sg := snap.Sample(u, graph.SampleOptions{Hops: 2})
	xa := tensor.New(len(sg.Nodes), x.Cols)
	for i, id := range sg.Nodes {
		copy(xa.Row(i), x.Row(int(id)))
	}
	return gnn.NewBatch(sg, xa)
}

// BenchmarkEmbedTargetInfer is the comparator the embedding tier
// replaces: per-audit subgraph sampling + batch compile + the tape-free
// InferTarget score, exactly what predictFull pays per request.
func BenchmarkEmbedTargetInfer(b *testing.B) {
	_, snap, x, nodes, m, _ := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := auditBatch(snap, x, nodes[i%len(nodes)])
		gnn.Score(m, batch)
		batch.Release()
	}
}

// BenchmarkEmbedTapeScore is the same audit on the tape-backed
// reference path (no Fwd reuse, full autodiff bookkeeping).
func BenchmarkEmbedTapeScore(b *testing.B) {
	_, snap, x, nodes, m, _ := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := auditBatch(snap, x, nodes[i%len(nodes)])
		gnn.TapeScore(m, batch)
		batch.Release()
	}
}

// BenchmarkEmbedRefresh measures the incremental refresh sweep as a
// function of the dirty fraction: each iteration marks pct% of the live
// table's rows dirty and repairs them into a new table. The ball (rows
// actually re-embedded) exceeds the marked set by the (L−1)-hop
// closure, which is the point — the metric is the cost of keeping the
// table clean at a given churn rate, reported as refreshed rows/op.
func BenchmarkEmbedRefresh(b *testing.B) {
	for _, pct := range []int{1, 10, 50} {
		b.Run(sprintfPct(pct), func(b *testing.B) {
			_, _, _, nodes, _, s := benchWorld(b)
			step := 100 / pct
			var refreshed int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tab := s.Table() // each refresh installs a new table
				for r := 0; r < len(nodes); r += step {
					tab.markRow(int32(r))
				}
				b.StartTimer()
				st := s.Refresh()
				refreshed += int64(st.Ball)
			}
			if b.N > 0 {
				b.ReportMetric(float64(refreshed)/float64(b.N), "rows/op")
			}
		})
	}
}

// BenchmarkCompileStars cuts every star of a 1,000-node table once per
// op, serially, from a batch whose matrices are already compiled, as
// Build cuts them after its forward: the star work a Build adds.
func BenchmarkCompileStars(b *testing.B) {
	_, snap, _, nodes := testWorld(21, 1000, 3, 8)
	m := testModels(8, 3)[3] // full HAG
	batch := gnn.FullBatch(snap, nil, graph.FullOptions{Nodes: nodes})
	defer batch.Release()
	stars := make([]*gnn.EmbedStar, len(nodes))
	put := func(r int, s *gnn.EmbedStar) { stars[r] = s }
	gnn.CutStars(m, batch, nil, nil, put) // compiles the matrices
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gnn.CutStars(m, batch, nil, nil, put)
	}
}

func sprintfPct(pct int) string {
	switch pct {
	case 1:
		return "dirty-1pct"
	case 10:
		return "dirty-10pct"
	case 50:
		return "dirty-50pct"
	}
	return "dirty"
}
