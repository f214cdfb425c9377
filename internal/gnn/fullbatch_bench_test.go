package gnn_test

import (
	"fmt"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/datagen"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/sweep"
)

// benchWorld returns the BN of the serving-shaped world (datagen.Tiny
// over 60 days, 4–8 sessions per user, seed 1) at the given user count.
func benchWorld(b *testing.B, users int) *graph.Snapshot {
	b.Helper()
	cfg := datagen.Tiny()
	cfg.Users = users
	cfg.Duration = 60 * 24 * time.Hour
	cfg.SessionsNormalMin, cfg.SessionsNormalMax = 4, 8
	cfg.SessionsFraudMin, cfg.SessionsFraudMax = 4, 8
	cfg.Seed = 1
	data := datagen.Generate(cfg)
	g := graph.New(behavior.NumTypes)
	builder, err := bn.NewBuilder(bn.Config{}, data.Store(), g, data.Start)
	if err != nil {
		b.Fatal(err)
	}
	builder.BuildRange(data.Start, data.End.Add(24*time.Hour))
	return g.Snapshot()
}

// BenchmarkFullBatch compiles what a HAG sweep reads of a full-graph
// batch, every per-type matrix and the row costs, two ways: FullBatch
// with the snapshot's row writer ("snapshot"), and the edge-list
// reference ("edgelist": FullSubgraph, NewBatch, and the merged matrix,
// whose sorted edge list the row costs were once counted from).
func BenchmarkFullBatch(b *testing.B) {
	for _, users := range []int{1000, 10000} {
		snap := benchWorld(b, users)
		opts := graph.FullOptions{Nodes: snap.Nodes()}
		b.Logf("%d users: %d nodes, %d typed edges", users, snap.NumNodes(), snap.NumEdges())
		b.Run(fmt.Sprintf("snapshot/users=%d", users), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch := gnn.FullBatch(snap, nil, opts)
				for t := 0; t < snap.NumEdgeTypes(); t++ {
					batch.TypedMeanCSR(t)
				}
				sweep.EdgeCosts(batch)
				batch.Release()
			}
		})
		b.Run(fmt.Sprintf("edgelist/users=%d", users), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch := gnn.NewBatch(graph.FullSubgraph(snap, opts), nil)
				for t := 0; t < snap.NumEdgeTypes(); t++ {
					batch.TypedMeanCSR(t)
				}
				batch.CSR(gnn.MergedMean)
				sweep.EdgeCosts(batch)
				batch.Release()
			}
		})
	}
}
