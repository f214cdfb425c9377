package graph

import (
	"sync"
	"testing"
	"time"

	"turbo/internal/tensor"
)

// TestConcurrentMutationAndReads hammers the sharded store from many
// goroutines at once — pair writers accumulating edges, group writers
// whose groups lock overlapping sets of shards, a pruner expiring
// them, readers publishing snapshots to sample subgraphs and walk hops
// and reading the live counters, and a snapshotter republishing epochs
// — and then checks counter/adjacency consistency.
// Run with -race; this is the regression test for the shard locking
// protocol.
func TestConcurrentMutationAndReads(t *testing.T) {
	g := New(4)
	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	const (
		writers  = 4
		groupers = 2
		readers  = 4
		nodes    = 200
		rounds   = 400
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := tensor.NewRNG(seed)
			for i := 0; i < rounds; i++ {
				u := NodeID(rng.Intn(nodes))
				v := NodeID(rng.Intn(nodes))
				if u == v {
					continue
				}
				exp := base.Add(time.Duration(rng.Intn(96)) * time.Hour)
				_ = g.AddEdgeWeight(EdgeType(rng.Intn(4)), u, v, rng.Float64()+0.01, exp)
			}
		}(uint64(w + 1))
	}

	for w := 0; w < groupers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := tensor.NewRNG(seed)
			for i := 0; i < rounds/4; i++ {
				group := randomGroup(rng, 2+rng.Intn(15), nodes)
				exp := base.Add(time.Duration(rng.Intn(96)) * time.Hour)
				if err := g.AddGroupWeight(EdgeType(rng.Intn(4)), group, 1/float64(len(group)), exp); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(50 + w))
	}

	wg.Add(1)
	go func() { // pruner
		defer wg.Done()
		for i := 0; i < 20; i++ {
			g.Prune(base.Add(time.Duration(i*4) * time.Hour))
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := tensor.NewRNG(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := NodeID(rng.Intn(nodes))
				s := g.Snapshot()
				s.Sample(u, SampleOptions{Hops: 2, MaxNeighbors: 8})
				s.NormalizedWeight(EdgeType(rng.Intn(4)), u, NodeID(rng.Intn(nodes)))
				s.FraudRatioByHop(u, 2, -1, func(n NodeID) bool { return n%2 == 0 })
				g.Stats()
				g.ShardSizes()
			}
		}(uint64(100 + r))
	}

	wg.Add(1)
	go func() { // snapshotter: publish epochs while writes are in flight
		defer wg.Done()
		var last uint64
		for i := 0; i < 30; i++ {
			s := g.Snapshot()
			if s.Epoch() <= last {
				t.Error("snapshot epoch went backwards")
				return
			}
			last = s.Epoch()
			// A snapshot must be internally consistent even mid-write:
			// NumEdges equals the materialized edge list length.
			if len(s.Edges()) != s.NumEdges() {
				t.Errorf("snapshot inconsistent: %d edges listed, counter %d", len(s.Edges()), s.NumEdges())
				return
			}
		}
	}()

	// Wait for writers+groupers+pruner+snapshotter, then release readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done

	// Quiescent consistency: counters match a full walk.
	if got, want := len(g.Edges()), g.NumEdges(); got != want {
		t.Fatalf("edge counter drifted: walk %d counter %d", got, want)
	}
	byType := make([]int, 4)
	for _, e := range g.Edges() {
		byType[e.Type]++
	}
	for typ, c := range g.EdgeCountByType() {
		if byType[typ] != c {
			t.Fatalf("type %d counter drifted: walk %d counter %d", typ, byType[typ], c)
		}
	}
	// Degree caches match a fresh sum.
	s := g.Snapshot()
	for _, u := range g.Nodes() {
		for typ := 0; typ < 4; typ++ {
			var sum float64
			for _, nb := range s.NeighborsByType(u, EdgeType(typ)) {
				sum += nb.Weight
			}
			if d := s.TypedWeightedDegree(u, EdgeType(typ)); !close2(d, sum) {
				t.Fatalf("degree cache drifted at node %d type %d: cache %v sum %v", u, typ, d, sum)
			}
		}
	}
}

func close2(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
