package bn

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/graph"
)

var t0 = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

func mk(u behavior.UserID, typ behavior.Type, val string, offset time.Duration) behavior.Log {
	return behavior.Log{User: u, Type: typ, Value: val, Time: t0.Add(offset)}
}

func newBuilder(t *testing.T, cfg Config, logs []behavior.Log) *Builder {
	t.Helper()
	store := behavior.NewStore()
	store.AppendBatch(logs)
	g := graph.New(behavior.NumTypes)
	b, err := NewBuilder(cfg, store, g, t0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDefaultWindowsHierarchy(t *testing.T) {
	ws := DefaultWindows()
	if len(ws) != 13 {
		t.Fatalf("want 13 windows (1h..12h, 1d), got %d", len(ws))
	}
	if ws[0] != time.Hour || ws[11] != 12*time.Hour || ws[12] != 24*time.Hour {
		t.Fatalf("windows %v", ws)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatal("windows must ascend")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	bad := Config{Windows: []time.Duration{2 * time.Hour, time.Hour}}
	if err := bad.Validate(); err == nil {
		t.Fatal("descending windows accepted")
	}
	bad = Config{Windows: []time.Duration{-time.Hour}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative window accepted")
	}
	bad = Config{TTL: -time.Hour}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative TTL accepted")
	}
	if _, err := NewBuilder(bad, behavior.NewStore(), graph.New(1), t0); err == nil {
		t.Fatal("NewBuilder accepted invalid config")
	}
}

// TestInverseWeightToyExample reproduces the Fig. 3 example: four users
// sharing one value inside a 1-hour epoch produce a clique whose edges
// each weigh 1/4.
func TestInverseWeightToyExample(t *testing.T) {
	var logs []behavior.Log
	for u := 0; u < 4; u++ {
		logs = append(logs, mk(behavior.UserID(u), behavior.IPv4, "wifi", time.Duration(u*10)*time.Minute))
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour}}, logs)
	b.Advance(t0.Add(time.Hour))
	g := b.Graph()
	if g.NumEdges() != 6 { // C(4,2) clique
		t.Fatalf("edges %d want 6", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if math.Abs(e.Weight-0.25) > 1e-12 {
			t.Fatalf("edge weight %v want 1/4", e.Weight)
		}
	}
}

// TestHierarchicalWindowsSumWeights: a co-occurrence within 1 hour is
// counted by both the 1-hour and 2-hour windows, so its weight exceeds a
// co-occurrence only visible to the larger window (the paper's
// "temporally tighter relations weigh more").
func TestHierarchicalWindowsSumWeights(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", 10*time.Minute),
		mk(2, behavior.IPv4, "x", 20*time.Minute), // within 1h of user 1
		mk(3, behavior.IPv4, "x", 90*time.Minute), // only shares the 2h epoch
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour, 2 * time.Hour}}, logs)
	b.BuildRange(t0, t0.Add(2*time.Hour))
	g := b.Graph().Snapshot()
	wTight := g.EdgeWeight(graph.EdgeType(behavior.IPv4), 1, 2)
	wLoose := g.EdgeWeight(graph.EdgeType(behavior.IPv4), 1, 3)
	// Tight pair: 1/2 (1h epoch, group {1,2}) + 1/3 (2h epoch, group
	// {1,2,3}) = 5/6. Loose pair: only 1/3.
	if math.Abs(wTight-5.0/6.0) > 1e-12 {
		t.Fatalf("tight weight %v want 5/6", wTight)
	}
	if math.Abs(wLoose-1.0/3.0) > 1e-12 {
		t.Fatalf("loose weight %v want 1/3", wLoose)
	}
	if wTight <= wLoose {
		t.Fatal("hierarchical windows must favor temporally tight relations")
	}
}

func TestUniformWeightsAblation(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", time.Minute),
		mk(2, behavior.IPv4, "x", 2*time.Minute),
		mk(3, behavior.IPv4, "x", 3*time.Minute),
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour}, UniformWeights: true}, logs)
	b.Advance(t0.Add(time.Hour))
	for _, e := range b.Graph().Edges() {
		if e.Weight != 1 {
			t.Fatalf("uniform weight %v want 1", e.Weight)
		}
	}
}

func TestMaxGroupSizeSkipsHugeCliques(t *testing.T) {
	var logs []behavior.Log
	for u := 0; u < 10; u++ {
		logs = append(logs, mk(behavior.UserID(u), behavior.WiFiMAC, "public", time.Duration(u)*time.Minute))
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour}, MaxGroupSize: 5}, logs)
	b.Advance(t0.Add(time.Hour))
	if b.Graph().NumEdges() != 0 {
		t.Fatalf("group over cap should be skipped, got %d edges", b.Graph().NumEdges())
	}
}

func TestSameUserRepeatsDoNotSelfConnect(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", time.Minute),
		mk(1, behavior.IPv4, "x", 2*time.Minute),
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour}}, logs)
	b.Advance(t0.Add(time.Hour))
	if b.Graph().NumEdges() != 0 {
		t.Fatal("single user must not create edges")
	}
}

func TestEpochBoundariesSeparateGroups(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", 30*time.Minute),
		mk(2, behavior.IPv4, "x", 90*time.Minute), // next 1h epoch
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour}}, logs)
	b.BuildRange(t0, t0.Add(2*time.Hour))
	if b.Graph().NumEdges() != 0 {
		t.Fatal("users in different epochs must not connect")
	}
}

func TestAdvanceMatchesBuildRange(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", 10*time.Minute),
		mk(2, behavior.IPv4, "x", 20*time.Minute),
		mk(2, behavior.GPS100, "cell", 3*time.Hour),
		mk(3, behavior.GPS100, "cell", 3*time.Hour+30*time.Minute),
		mk(1, behavior.DeviceID, "dev", 26*time.Hour),
		mk(3, behavior.DeviceID, "dev", 27*time.Hour),
	}
	cfg := Config{Windows: []time.Duration{time.Hour, 4 * time.Hour}}

	batch := newBuilder(t, cfg, logs)
	batch.BuildRange(t0, t0.Add(48*time.Hour))

	stream := newBuilder(t, cfg, logs)
	for hour := 1; hour <= 48; hour++ {
		stream.Advance(t0.Add(time.Duration(hour) * time.Hour))
	}

	be, se := batch.Graph().Edges(), stream.Graph().Edges()
	if len(be) != len(se) {
		t.Fatalf("edge counts differ: batch %d vs stream %d", len(be), len(se))
	}
	for i := range be {
		if be[i].U != se[i].U || be[i].V != se[i].V || be[i].Type != se[i].Type ||
			math.Abs(be[i].Weight-se[i].Weight) > 1e-12 {
			t.Fatalf("edge %d differs: %+v vs %+v", i, be[i], se[i])
		}
	}
}

func TestAdvanceJobCountsAndScheduling(t *testing.T) {
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour, 2 * time.Hour}}, nil)
	jobs := b.Advance(t0.Add(4 * time.Hour))
	// 4 one-hour epochs + 2 two-hour epochs.
	if jobs != 6 {
		t.Fatalf("jobs %d want 6", jobs)
	}
	if b.NextEpochStart(0) != t0.Add(4*time.Hour) {
		t.Fatalf("next 1h epoch %v", b.NextEpochStart(0))
	}
	// No time passed: no new jobs.
	if jobs = b.Advance(t0.Add(4 * time.Hour)); jobs != 0 {
		t.Fatalf("idle advance ran %d jobs", jobs)
	}
	// Partial epoch not processed until fully elapsed.
	if jobs = b.Advance(t0.Add(4*time.Hour + 30*time.Minute)); jobs != 0 {
		t.Fatalf("partial epoch processed: %d", jobs)
	}
}

func TestAdvancePrunesTTL(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", 10*time.Minute),
		mk(2, behavior.IPv4, "x", 20*time.Minute),
	}
	cfg := Config{Windows: []time.Duration{time.Hour}, TTL: 24 * time.Hour}
	b := newBuilder(t, cfg, logs)
	b.Advance(t0.Add(2 * time.Hour))
	if b.Graph().NumEdges() != 1 {
		t.Fatalf("edge not built: %d", b.Graph().NumEdges())
	}
	// Edge expires at epochEnd (1h) + TTL (24h) = 25h.
	b.Advance(t0.Add(26 * time.Hour))
	if b.Graph().NumEdges() != 0 {
		t.Fatal("TTL-expired edge survived Advance")
	}
}

func TestBuildRangeRespectsTimeBounds(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", 10*time.Minute),
		mk(2, behavior.IPv4, "x", 20*time.Minute),
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour}}, logs)
	// Build over a range that excludes the logs entirely.
	b.BuildRange(t0.Add(5*time.Hour), t0.Add(10*time.Hour))
	if b.Graph().NumEdges() != 0 {
		t.Fatal("logs outside range produced edges")
	}
}

func TestCollectStats(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", 10*time.Minute),
		mk(2, behavior.IPv4, "x", 20*time.Minute),
		mk(1, behavior.DeviceID, "d", 30*time.Minute),
		mk(3, behavior.DeviceID, "d", 40*time.Minute),
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour}}, logs)
	b.Advance(t0.Add(time.Hour))
	st := CollectStats(b.Graph().Snapshot(), func(n graph.NodeID) bool { return n == 1 })
	if st.Nodes != 3 || st.Edges != 2 || st.Types != 2 || st.Positives != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.EdgesByType["IPv4"] != 1 || st.EdgesByType["DeviceId"] != 1 {
		t.Fatalf("per-type stats %v", st.EdgesByType)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestEdgeTypeEqualsBehaviorType(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.GPSDev, "addr", time.Minute),
		mk(2, behavior.GPSDev, "addr", 2*time.Minute),
	}
	b := newBuilder(t, Config{Windows: []time.Duration{time.Hour}}, logs)
	b.Advance(t0.Add(time.Hour))
	es := b.Graph().Edges()
	if len(es) != 1 || es[0].Type != graph.EdgeType(behavior.GPSDev) {
		t.Fatalf("edge type mismatch: %+v", es)
	}
}

// TestBuildRangeIsDeterministic builds the same logs eight times: users
// 1 and 2 share forty values of one type in groups of different sizes,
// so their edge weight sums forty different terms, and every pass must
// sum them in the same order — every typed weight and degree bitwise
// equal.
func TestBuildRangeIsDeterministic(t *testing.T) {
	var logs []behavior.Log
	for j := 0; j < 40; j++ {
		val, at := fmt.Sprintf("v%02d", j), time.Duration(j)*time.Minute
		logs = append(logs, mk(1, behavior.IPv4, val, at), mk(2, behavior.IPv4, val, at))
		for e := 0; e < j%7; e++ {
			logs = append(logs, mk(behavior.UserID(100+10*j+e), behavior.IPv4, val, at))
		}
	}
	cfg := Config{Windows: []time.Duration{time.Hour, 4 * time.Hour}}
	adjacency := func() graph.Adjacency {
		b := newBuilder(t, cfg, logs)
		b.BuildRange(t0, t0.Add(4*time.Hour))
		return b.Graph().Snapshot().TypedAdjacency(graph.EdgeType(behavior.IPv4))
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	want := adjacency()
	for pass := 1; pass < 8; pass++ {
		got := adjacency()
		if !slices.Equal(got.Nbr, want.Nbr) || !slices.Equal(bits(got.Wts), bits(want.Wts)) || !slices.Equal(bits(got.Deg), bits(want.Deg)) {
			t.Fatalf("pass %d: typed adjacency differs from the first pass's", pass)
		}
	}
}
