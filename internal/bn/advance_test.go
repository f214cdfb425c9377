package bn

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/datagen"
	"turbo/internal/graph"
)

// oracle is the epoch-major construction Advance replaced, kept as the
// reference: one job per (window, epoch) in window-then-epoch order,
// each scanning every key for the logs inside its epoch (Algorithm 1 as
// written). It only uses the store's public point queries, so it shares
// no code with Builder.addKey.
type oracle struct {
	cfg         Config
	store       *behavior.Store
	g           *graph.Graph
	next        []time.Time
	jobs        int64
	edgeUpdates int64
	overCap     int // groups skipped by MaxGroupSize
}

func newOracle(cfg Config, store *behavior.Store, origin time.Time) *oracle {
	cfg = cfg.withDefaults()
	o := &oracle{cfg: cfg, store: store, g: graph.New(behavior.NumTypes)}
	for range cfg.Windows {
		o.next = append(o.next, origin)
	}
	return o
}

func (o *oracle) advance(now time.Time) {
	keys := o.store.Keys()
	for i, w := range o.cfg.Windows {
		for !o.next[i].Add(w).After(now) {
			o.processEpoch(keys, w, o.next[i])
			o.next[i] = o.next[i].Add(w)
			o.jobs++
		}
	}
	o.g.Prune(now)
}

func (o *oracle) processEpoch(keys []behavior.Key, w time.Duration, start time.Time) {
	end := start.Add(w)
	expire := end.Add(o.cfg.TTL)
	for _, k := range keys {
		var users []behavior.UserID
		for _, l := range o.store.KeyLogsBetween(k, start, end) {
			if !slices.Contains(users, l.User) {
				users = append(users, l.User)
			}
		}
		n := len(users)
		if n > o.cfg.MaxGroupSize {
			o.overCap++
		}
		if n < 2 || n > o.cfg.MaxGroupSize {
			continue
		}
		weight := 1.0
		if !o.cfg.UniformWeights {
			weight = 1.0 / float64(n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				_ = o.g.AddEdgeWeight(graph.EdgeType(k.Type), graph.NodeID(users[i]), graph.NodeID(users[j]), weight, expire)
			}
		}
		o.edgeUpdates += int64(n * (n - 1) / 2)
	}
}

// weightTol is the pinned tolerance between a key-major and an
// epoch-major build: both add the same 1/N terms onto an edge, but in a
// different order (and across keys in map order), so sums agree to
// rounding, not bitwise.
const weightTol = 1e-12

func checkMatchesOracle(t *testing.T, b *Builder, o *oracle) {
	t.Helper()
	be, oe := b.Graph().Edges(), o.g.Edges()
	if len(be) != len(oe) {
		t.Fatalf("edge counts differ: builder %d vs oracle %d", len(be), len(oe))
	}
	for i := range be {
		x, y := be[i], oe[i]
		if x.Type != y.Type || x.U != y.U || x.V != y.V || !x.ExpireAt.Equal(y.ExpireAt) ||
			math.Abs(x.Weight-y.Weight) > weightTol {
			t.Fatalf("edge %d differs: builder %+v vs oracle %+v", i, x, y)
		}
	}
	if st := b.Stats(); st.Jobs != o.jobs || st.EdgeUpdates != o.edgeUpdates {
		t.Fatalf("stats differ: builder jobs %d updates %d vs oracle jobs %d updates %d",
			st.Jobs, st.EdgeUpdates, o.jobs, o.edgeUpdates)
	}
	if got := b.NextEpochs(); !slices.EqualFunc(got, o.next, time.Time.Equal) {
		t.Fatalf("cursors differ: builder %v vs oracle %v", got, o.next)
	}
}

// benchWorld is the benchmark's W1k recipe (benchmark/world.go) at a
// chosen size: same session density, so logs grow linearly with users.
func benchWorld(users, days int) *datagen.Dataset {
	cfg := datagen.Tiny()
	cfg.Users = users
	cfg.Duration = time.Duration(days) * 24 * time.Hour
	cfg.SessionsNormalMin, cfg.SessionsNormalMax = 4, 8
	cfg.SessionsFraudMin, cfg.SessionsFraudMax = 4, 8
	cfg.Seed = 1
	return datagen.Generate(cfg)
}

func builderOn(tb testing.TB, cfg Config, store *behavior.Store, origin time.Time) *Builder {
	tb.Helper()
	b, err := NewBuilder(cfg, store, graph.New(behavior.NumTypes), origin)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// equivalenceConfig is the default 13-window hierarchy with a group cap
// low enough that the seeded world's public hotspots exceed it.
var equivalenceConfig = Config{MaxGroupSize: 6}

func TestAdvanceBulkMatchesEpochMajorOracle(t *testing.T) {
	data := benchWorld(300, 20)
	store := data.Store()
	b := builderOn(t, equivalenceConfig, store, data.Start)
	o := newOracle(equivalenceConfig, store, data.Start)
	now := data.End.Add(2 * time.Hour)
	if jobs := b.Advance(now); int64(jobs) != b.Stats().Jobs {
		t.Fatalf("Advance returned %d jobs, Stats says %d", jobs, b.Stats().Jobs)
	}
	o.advance(now)
	checkMatchesOracle(t, b, o)
	if b.Graph().NumEdges() == 0 || o.overCap == 0 {
		t.Fatalf("world too thin to test anything: %d edges, %d groups over the cap", b.Graph().NumEdges(), o.overCap)
	}
}

// TestAdvanceTicksMatchEpochMajorOracle drives hourly ticks with logs
// arriving between them. Every 25th log arrives three hours late: by
// then its 1 h, 2 h and (mostly) 3 h epochs have been processed without
// it, but its 12 h and 24 h epochs usually have not, so it must count in
// exactly the windows the epoch-major scheduler would still catch.
func TestAdvanceTicksMatchEpochMajorOracle(t *testing.T) {
	data := benchWorld(300, 20)
	type arrival struct {
		at  time.Time
		log behavior.Log
	}
	arrivals := make([]arrival, len(data.Logs))
	for i, l := range data.Logs {
		arrivals[i] = arrival{l.Time, l}
		if i%25 == 0 {
			arrivals[i].at = l.Time.Add(3 * time.Hour)
		}
	}
	slices.SortStableFunc(arrivals, func(a, b arrival) int { return a.at.Compare(b.at) })

	store := behavior.NewStore()
	b := builderOn(t, equivalenceConfig, store, data.Start)
	o := newOracle(equivalenceConfig, store, data.Start)
	next := 0
	for now := data.Start.Add(time.Hour); !now.After(data.End.Add(26 * time.Hour)); now = now.Add(time.Hour) {
		for ; next < len(arrivals) && arrivals[next].at.Before(now); next++ {
			store.Append(arrivals[next].log)
		}
		b.Advance(now)
		o.advance(now)
	}
	if next != len(arrivals) {
		t.Fatalf("ingested %d of %d logs", next, len(arrivals))
	}
	checkMatchesOracle(t, b, o)

	// The late logs changed the outcome: a bulk build over the full
	// store, which sees them in every window, groups differently.
	bulk := builderOn(t, equivalenceConfig, store, data.Start)
	bulk.Advance(data.End.Add(26 * time.Hour))
	if bulk.Stats().EdgeUpdates == b.Stats().EdgeUpdates {
		t.Fatalf("late logs missed no epoch: bulk and ticked both made %d updates", b.Stats().EdgeUpdates)
	}
}

// TestAdvanceAcrossIdleGap: the cost and the result of catching up do
// not depend on how many empty epochs went by. turbo-server's first
// tick is Advance(time.Now()) on a world anchored years back.
func TestAdvanceAcrossIdleGap(t *testing.T) {
	const gapHours = 10 * 365 * 24
	logs := []behavior.Log{
		mk(1, behavior.IPv4, "x", 10*time.Minute),
		mk(2, behavior.IPv4, "x", 20*time.Minute),
		mk(3, behavior.IPv4, "x", 5*time.Hour),
	}
	// A TTL longer than the gap keeps the edges alive to be compared.
	cfg := Config{TTL: 2 * gapHours * time.Hour}
	now := t0.Add(gapHours*time.Hour + 30*time.Minute)

	b := newBuilder(t, cfg, logs)
	jobs := b.Advance(now)
	want := gapHours / 24
	for h := 1; h <= 12; h++ {
		want += gapHours / h
	}
	if jobs != want || b.Stats().Jobs != int64(want) {
		t.Fatalf("jobs %d (stats %d) want %d", jobs, b.Stats().Jobs, want)
	}
	for i, w := range b.Config().Windows {
		c := b.NextEpochStart(i)
		if c.Sub(t0)%w != 0 || c.After(now) || !c.Add(w).After(now) {
			t.Fatalf("window %v cursor %v is not the last grid point at or before %v", w, c, now)
		}
	}
	if b.Advance(now) != 0 {
		t.Fatal("second Advance at the same instant ran jobs")
	}

	ticked := newBuilder(t, cfg, logs)
	for h := 1; h <= 48; h++ {
		ticked.Advance(t0.Add(time.Duration(h) * time.Hour))
	}
	be, te := b.Graph().Edges(), ticked.Graph().Edges()
	if len(be) != 3 || len(te) != 3 {
		t.Fatalf("edges: gap %d ticked %d want 3", len(be), len(te))
	}
	for i := range be {
		if be[i].U != te[i].U || be[i].V != te[i].V || !be[i].ExpireAt.Equal(te[i].ExpireAt) ||
			math.Abs(be[i].Weight-te[i].Weight) > weightTol {
			t.Fatalf("edge %d differs: gap %+v vs ticked %+v", i, be[i], te[i])
		}
	}
}

// forBenchSizes runs fn on the W1k recipe at 1k, 10k and 100k users.
func forBenchSizes(b *testing.B, fn func(b *testing.B, data *datagen.Dataset)) {
	for _, users := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("users=%dk", users/1000), func(b *testing.B) {
			if testing.Short() && users > 10000 {
				b.Skip("100k users: a minute of datagen and a gigabyte of logs")
			}
			fn(b, benchWorld(users, 60))
		})
	}
}

// BenchmarkAdvanceBulk is the set-up catch-up at three world sizes:
// one Advance over 60 days of logs on a fresh graph. ns/log flat across
// the rows is Advance linear in logs.
func BenchmarkAdvanceBulk(b *testing.B) {
	forBenchSizes(b, func(b *testing.B, data *datagen.Dataset) {
		store := data.Store()
		jobs := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jobs = builderOn(b, Config{}, store, data.Start).Advance(data.End.Add(2 * time.Hour))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data.Logs)), "ns/log")
		b.ReportMetric(float64(jobs), "jobs")
		b.ReportMetric(float64(len(data.Logs)), "logs")
	})
}

// BenchmarkAdvanceTick is one hourly tick with no new logs on the built
// world: the key walk a time-bucketed store index would remove, plus
// Prune. The TTL is out of reach so every tick walks the same graph.
func BenchmarkAdvanceTick(b *testing.B) {
	forBenchSizes(b, func(b *testing.B, data *datagen.Dataset) {
		store := data.Store()
		bld := builderOn(b, Config{TTL: 100 * 365 * 24 * time.Hour}, store, data.Start)
		now := data.End.Add(2 * time.Hour)
		bld.Advance(now)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = now.Add(time.Hour)
			bld.Advance(now)
		}
		b.ReportMetric(float64(len(store.Keys())), "keys")
	})
}
