package graph

import (
	"math"
	"slices"
	"testing"
	"time"

	"turbo/internal/tensor"
)

// pairModel is the naive reference for the group write: a map per
// typed edge and per typed degree, updated by sequential += in call
// order, one pair at a time.
type pairModel struct {
	edges map[[3]uint32]*Edge // keyed by {type, U, V} with U < V
	deg   map[[2]uint32]float64
	nodes map[NodeID]bool
	fired map[[2]NodeID]int
}

func newPairModel() *pairModel {
	return &pairModel{edges: map[[3]uint32]*Edge{}, deg: map[[2]uint32]float64{},
		nodes: map[NodeID]bool{}, fired: map[[2]NodeID]int{}}
}

func (m *pairModel) add(t EdgeType, u, v NodeID, w float64, exp time.Time) {
	a, b := min(u, v), max(u, v)
	k := [3]uint32{uint32(t), uint32(a), uint32(b)}
	e := m.edges[k]
	if e == nil {
		e = &Edge{Type: t, U: a, V: b, ExpireAt: exp}
		m.edges[k] = e
	}
	e.Weight += w
	if exp.After(e.ExpireAt) {
		e.ExpireAt = exp
	}
	m.deg[[2]uint32{uint32(u), uint32(t)}] += w
	m.deg[[2]uint32{uint32(v), uint32(t)}] += w
	m.nodes[u], m.nodes[v] = true, true
	m.fired[[2]NodeID{a, b}]++
}

// checkAgainstModel compares g with m bit for bit: every edge's weight
// bits and expiry, every typed degree, the counters, and the multiset of
// delta-observer pairs.
func checkAgainstModel(t *testing.T, g *Graph, m *pairModel, fired map[[2]NodeID]int, numTypes int) {
	t.Helper()
	want := make([]Edge, 0, len(m.edges))
	byType := make([]int, numTypes)
	for _, e := range m.edges {
		want = append(want, *e)
		byType[e.Type]++
	}
	slices.SortFunc(want, func(a, b Edge) int {
		if a.Type != b.Type {
			return int(a.Type) - int(b.Type)
		}
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("%d edges, model has %d", len(got), len(want))
	}
	for i := range got {
		x, y := got[i], want[i]
		if x.Type != y.Type || x.U != y.U || x.V != y.V ||
			math.Float64bits(x.Weight) != math.Float64bits(y.Weight) || x.ExpireAt != y.ExpireAt {
			t.Fatalf("edge %d: graph %+v model %+v", i, x, y)
		}
	}
	if g.NumNodes() != len(m.nodes) || g.NumEdges() != len(want) || !slices.Equal(g.EdgeCountByType(), byType) {
		t.Fatalf("counts: graph %+v, model %d nodes %d edges %v", g.Stats(), len(m.nodes), len(want), byType)
	}
	s := g.Snapshot()
	for u := range m.nodes {
		for typ := 0; typ < numTypes; typ++ {
			d, wd := s.TypedWeightedDegree(u, EdgeType(typ)), m.deg[[2]uint32{uint32(u), uint32(typ)}]
			if math.Float64bits(d) != math.Float64bits(wd) {
				t.Fatalf("degree of %d type %d: graph %v model %v", u, typ, d, wd)
			}
		}
	}
	if len(fired) != len(m.fired) {
		t.Fatalf("observer saw %d distinct pairs, model %d", len(fired), len(m.fired))
	}
	for p, c := range m.fired {
		if fired[p] != c {
			t.Fatalf("observer fired %d times for %v, model %d", fired[p], p, c)
		}
	}
}

// TestAddGroupWeightMatchesPairModel drives random group and pair writes
// — fresh nodes, pre-existing edges, repeated groups, groups of 2 and 64
// spread over every shard — and checks the graph against the pair model
// bit for bit after every batch.
func TestAddGroupWeightMatchesPairModel(t *testing.T) {
	const numTypes = 3
	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	for seed := uint64(1); seed <= 3; seed++ {
		rng := tensor.NewRNG(seed)
		g, m := New(numTypes), newPairModel()
		fired := map[[2]NodeID]int{}
		g.SetDeltaObserver(func(u, v NodeID) { fired[[2]NodeID{min(u, v), max(u, v)}]++ })
		var past [][]NodeID
		for op := 0; op < 400; op++ {
			// The ID range grows, so later groups mix fresh nodes into
			// rows that already hold edges.
			span := 40 + op
			typ := EdgeType(rng.Intn(numTypes))
			exp := base.Add(time.Duration(rng.Intn(48)) * time.Hour)
			if rng.Intn(4) == 0 { // a plain pair write, either endpoint order
				u, v := NodeID(rng.Intn(span)), NodeID(rng.Intn(span))
				if u == v {
					continue
				}
				w := rng.Float64() + 0.01
				if err := g.AddEdgeWeight(typ, u, v, w, exp); err != nil {
					t.Fatal(err)
				}
				m.add(typ, u, v, w, exp)
				continue
			}
			var nodes []NodeID
			switch r := rng.Intn(10); {
			case r == 0 && len(past) > 0:
				nodes = past[rng.Intn(len(past))]
			case r == 1:
				nodes = randomGroup(rng, 2, span)
			case r == 2:
				nodes = randomGroup(rng, 64, span+64)
			default:
				nodes = randomGroup(rng, 3+rng.Intn(14), span)
			}
			past = append(past, nodes)
			w := 1 / float64(len(nodes))
			if err := g.AddGroupWeight(typ, nodes, w, exp); err != nil {
				t.Fatal(err)
			}
			for x := range nodes {
				for y := x + 1; y < len(nodes); y++ {
					m.add(typ, nodes[x], nodes[y], w, exp)
				}
			}
			if op%100 == 99 {
				checkAgainstModel(t, g, m, fired, numTypes)
			}
		}
		checkAgainstModel(t, g, m, fired, numTypes)
	}
}

// randomGroup draws n distinct node IDs below span, ascending.
func randomGroup(rng *tensor.RNG, n, span int) []NodeID {
	seen := map[NodeID]bool{}
	nodes := make([]NodeID, 0, n)
	for len(nodes) < n {
		u := NodeID(rng.Intn(span))
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	slices.Sort(nodes)
	return nodes
}

// TestAddGroupWeightRejectsBeforeWriting: a malformed group is refused
// whole — nothing registered, no edge, no degree, no observer call.
func TestAddGroupWeightRejectsBeforeWriting(t *testing.T) {
	g := New(2)
	if err := g.AddGroupWeight(1, []NodeID{1, 2, 3}, 0.5, never); err != nil {
		t.Fatal(err)
	}
	fires := 0
	g.SetDeltaObserver(func(u, v NodeID) { fires++ })
	before, edges := g.Stats(), g.Edges()
	for name, call := range map[string]func() error{
		"unsorted":          func() error { return g.AddGroupWeight(0, []NodeID{7, 5, 9}, 0.5, never) },
		"duplicate":         func() error { return g.AddGroupWeight(0, []NodeID{5, 7, 7, 9}, 0.5, never) },
		"one node":          func() error { return g.AddGroupWeight(0, []NodeID{5}, 0.5, never) },
		"no nodes":          func() error { return g.AddGroupWeight(0, nil, 0.5, never) },
		"zero weight":       func() error { return g.AddGroupWeight(0, []NodeID{5, 7}, 0, never) },
		"negative":          func() error { return g.AddGroupWeight(0, []NodeID{5, 7}, -1, never) },
		"NaN":               func() error { return g.AddGroupWeight(0, []NodeID{5, 7}, math.NaN(), never) },
		"Inf":               func() error { return g.AddGroupWeight(0, []NodeID{5, 7}, math.Inf(1), never) },
		"type out of range": func() error { return g.AddGroupWeight(2, []NodeID{5, 7}, 0.5, never) },
		"existing rows":     func() error { return g.AddGroupWeight(1, []NodeID{1, 3, 2}, 0.5, never) },
	} {
		if call() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	after := g.Stats()
	if after.Nodes != before.Nodes || after.Edges != before.Edges || !slices.Equal(after.EdgesByType, before.EdgesByType) ||
		!slices.Equal(g.Edges(), edges) || fires != 0 {
		t.Fatalf("a rejected group wrote: stats %+v → %+v, %d observer calls", before, after, fires)
	}
	s := g.Snapshot()
	for _, u := range []NodeID{1, 2, 3} {
		if d := s.TypedWeightedDegree(u, 1); d != 1 {
			t.Fatalf("degree of %d is %v, want 1", u, d)
		}
	}
}
