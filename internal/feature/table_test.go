package feature

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/store"
)

// reference is what the table must serve for u at cutoff: the stored
// profile followed by StatFeatures.
func reference(t *testing.T, svc *Service, u behavior.UserID, cutoff time.Time) []float64 {
	t.Helper()
	p, err := svc.Profile(u)
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]float64(nil), p...), svc.StatFeatures(u, cutoff)...)
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// affineNorm is a normalizer in the shape of eval.Normalizer.Apply: a
// fresh slice, the input untouched.
func affineNorm(scale, shift float64) *Norm {
	return NewNorm(func(vec []float64) []float64 {
		out := make([]float64, len(vec))
		for j, v := range vec {
			out[j] = v*scale + shift
		}
		return out
	})
}

// taggedNorm prefixes the raw row with tag, so a served vector names the
// normalizer it went through and still carries the raw row.
func taggedNorm(tag float64) *Norm {
	return NewNorm(func(vec []float64) []float64 { return append([]float64{tag}, vec...) })
}

// applied is what a gather through norm must serve for the raw row.
func applied(norm *Norm, raw []float64) []float64 {
	if norm == nil {
		return raw
	}
	return norm.Apply(raw)
}

// randomLog draws a log on a 15-minute grid, so cutoffs and log times
// often sit exactly on each other and on window boundaries, in any
// order relative to what is already stored.
func randomLog(rng *rand.Rand, users int) behavior.Log {
	types := []behavior.Type{behavior.DeviceID, behavior.IPv4, behavior.GPS100, behavior.IMEI}
	return behavior.Log{
		User:  behavior.UserID(1 + rng.Intn(users)),
		Type:  types[rng.Intn(len(types))],
		Value: fmt.Sprintf("v%d", rng.Intn(4)),
		Time:  t0.Add(time.Duration(rng.Intn(400)) * 15 * time.Minute),
	}
}

// TestTableExactUnderRandomInterleavings interleaves every write the
// table's stamp must see (Append, AppendBatch, DropBefore, PutProfile,
// InvalidateUser) with gathers at rising, falling and repeated cutoffs,
// each through one of two normalizers or none, and checks every served
// row bitwise against Apply(Profile ⊕ StatFeatures) for the normalizer
// asked for: a row's memo of one normalizer is never served for the
// other.
func TestTableExactUnderRandomInterleavings(t *testing.T) {
	const users = 6
	norms := []*Norm{nil, affineNorm(1.0/3, -0.5), affineNorm(-2, 7)}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		logs := behavior.NewStore()
		svc := NewService(Config{}, logs)
		for u := behavior.UserID(1); u <= users; u++ {
			if err := svc.PutProfile(u, []float64{float64(u), 0}); err != nil {
				t.Fatal(err)
			}
		}
		cutoff := t0.Add(50 * time.Hour)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(12); {
			case op < 2:
				logs.Append(randomLog(rng, users))
			case op == 2:
				batch := make([]behavior.Log, 1+rng.Intn(6))
				for i := range batch {
					batch[i] = randomLog(rng, users)
				}
				logs.AppendBatch(batch)
			case op == 3 && rng.Intn(4) == 0:
				logs.DropBefore(t0.Add(time.Duration(rng.Intn(60)) * time.Hour))
			case op == 4:
				u := behavior.UserID(1 + rng.Intn(users))
				if err := svc.PutProfile(u, []float64{float64(u), float64(step)}); err != nil {
					t.Fatal(err)
				}
			case op == 5:
				svc.InvalidateUser(behavior.UserID(1 + rng.Intn(users)))
			default:
				switch rng.Intn(6) {
				case 0: // rising
					cutoff = cutoff.Add(time.Duration(rng.Intn(12)) * 15 * time.Minute)
				case 1: // falling
					cutoff = cutoff.Add(-time.Duration(rng.Intn(12)) * 15 * time.Minute)
				case 2: // anywhere on the grid
					cutoff = t0.Add(time.Duration(rng.Intn(440)) * 15 * time.Minute)
				case 3: // anywhere off it
					cutoff = t0.Add(time.Duration(rng.Int63n(int64(110 * time.Hour))))
				case 4: // a nanosecond either side of where it was
					cutoff = cutoff.Add(time.Duration(rng.Intn(3) - 1))
				}
				batch := make([]behavior.UserID, 1+rng.Intn(2*users))
				for i := range batch {
					batch[i] = behavior.UserID(1 + rng.Intn(users))
				}
				k := rng.Intn(len(norms))
				n, err := svc.Gather(context.Background(), batch, cutoff, norms[k], func(i int, vec []float64) {
					if want := applied(norms[k], reference(t, svc, batch[i], cutoff)); !bitwiseEqual(vec, want) {
						t.Fatalf("seed %d step %d: user %d at %v through norm %d served %v, want %v", seed, step, batch[i], cutoff, k, vec, want)
					}
				})
				if err != nil || n != len(batch) {
					t.Fatalf("seed %d step %d: gather served %d of %d: %v", seed, step, n, len(batch), err)
				}
			}
		}
		if hits, _ := svc.CacheStats(); hits == 0 {
			t.Fatalf("seed %d: the table never served a stored row", seed)
		}
	}
}

// TestTableServesBurstAfterCachedRead is the freshness case: a read
// stores u's row, a burst of logs lands for u inside the windows, and
// the next read at the same cutoff must count the burst.
func TestTableServesBurstAfterCachedRead(t *testing.T) {
	logs := behavior.NewStore()
	logs.Append(mk(1, behavior.DeviceID, "d0", 90*time.Hour))
	svc := NewService(Config{}, logs)
	if err := svc.PutProfile(1, []float64{7}); err != nil {
		t.Fatal(err)
	}
	cutoff := t0.Add(100 * time.Hour)
	if _, err := svc.Vector(1, cutoff); err != nil {
		t.Fatal(err)
	}
	var burst []behavior.Log
	for i := 0; i < 5; i++ {
		burst = append(burst, mk(1, behavior.DeviceID, fmt.Sprintf("d%d", i+1), 99*time.Hour+time.Duration(i)*time.Minute))
	}
	logs.AppendBatch(burst)
	got, err := svc.Vector(1, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64{7}, svc.StatFeatures(1, cutoff)...)
	if !bitwiseEqual(got, want) {
		t.Fatalf("after the burst served %v, want %v", got, want)
	}
	if got[1] != 5 { // five logs in the 1 h window
		t.Fatalf("1h log count %v, want 5", got[1])
	}
}

// TestGatherStopsAtLowestFailingRow pins the error contract the audit's
// attribution relies on: rows before the first failure are served, the
// failing index is reported, and the error is the profile lookup's.
func TestGatherStopsAtLowestFailingRow(t *testing.T) {
	svc := newSvc(Config{}, nil)
	for _, u := range []behavior.UserID{1, 2, 4} {
		if err := svc.PutProfile(u, []float64{float64(u)}); err != nil {
			t.Fatal(err)
		}
	}
	var served []int
	n, err := svc.Gather(context.Background(), []behavior.UserID{1, 2, 3, 4, 5}, t0, nil, func(i int, _ []float64) { served = append(served, i) })
	if n != 2 || !errors.Is(err, store.ErrNotFound) || len(served) != 2 {
		t.Fatalf("gather served %v, stopped at %d with %v; want rows 0-1 then not-found at 2", served, n, err)
	}
	vecs, errs := svc.VectorsCtx(context.Background(), []behavior.UserID{1, 3, 4, 5}, t0)
	if vecs[0] == nil || errs[1] == nil || vecs[2] == nil || errs[3] == nil {
		t.Fatalf("bulk path lost its per-user contract: %v %v", vecs, errs)
	}
}

// TestGatherDuringPutProfile parks a PutProfile between its profile
// write and its version move and gathers the user meanwhile. A read that
// starts there already sees the new profile, so the gather must not serve
// the row built on the old one, whether it answers while the write is
// parked or waits for it. This is the interleaving behind the rare
// failures of TestTableExactUnderConcurrentIngest, made to happen on
// every run.
func TestGatherDuringPutProfile(t *testing.T) {
	svc := NewService(Config{}, behavior.NewStore())
	const u = behavior.UserID(1)
	cutoff := t0.Add(time.Hour)
	if err := svc.PutProfile(u, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Vector(u, cutoff); err != nil { // the table now holds a row on profile 1
		t.Fatal(err)
	}
	written, release := make(chan struct{}), make(chan struct{})
	afterProfileWrite = func(behavior.UserID) {
		close(written)
		<-release
	}
	defer func() { afterProfileWrite = nil }()
	put := make(chan error, 1)
	go func() { put <- svc.PutProfile(u, []float64{2}) }()
	<-written
	if p, err := svc.Profile(u); err != nil || p[0] != 2 {
		t.Fatalf("profile read during the parked PutProfile: %v, %v; want [2]", p, err)
	}
	gathered := make(chan []float64, 1)
	go func() {
		v, err := svc.Vector(u, cutoff)
		if err != nil {
			v = []float64{math.NaN()}
		}
		gathered <- v
	}()
	var v []float64
	select {
	case v = <-gathered:
	case <-time.After(200 * time.Millisecond): // the gather waits for the write
	}
	close(release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if v == nil {
		v = <-gathered
	}
	if v[0] != 2 {
		t.Fatalf("gather served profile %v after profile 2 was readable", v[0])
	}
}

// TestTableExactUnderConcurrentIngest runs gathers against concurrent
// Append, AppendBatch and PutProfile (run with -race). Logs only grow
// and profiles only count up, so a served row must lie between what the
// store held before its gather and after it; once writers stop, every
// row must be exact again.
func TestTableExactUnderConcurrentIngest(t *testing.T) {
	gatherUnderConcurrentIngest(t, []*Norm{nil})
}

// TestTableExactNormsUnderConcurrentIngest is the same race with the
// readers gathering through two normalizers and none in turn, so rows
// are rebuilt and their memos replaced while other readers serve them:
// every served vector must come from the normalizer asked for, over a
// raw row within the same bounds.
func TestTableExactNormsUnderConcurrentIngest(t *testing.T) {
	gatherUnderConcurrentIngest(t, []*Norm{taggedNorm(-1), taggedNorm(-2), nil})
}

// gatherUnderConcurrentIngest is the concurrent-ingest race, reader r's
// rep-th gather going through norms[(r+rep)%len(norms)]; a norm must be
// nil or a taggedNorm.
func gatherUnderConcurrentIngest(t *testing.T, norms []*Norm) {
	t.Helper()
	const users = 4
	logs := behavior.NewStore()
	svc := NewService(Config{}, logs)
	for u := behavior.UserID(1); u <= users; u++ {
		if err := svc.PutProfile(u, []float64{0}); err != nil {
			t.Fatal(err)
		}
	}
	cutoff := t0.Add(100 * time.Hour)
	all := []behavior.UserID{1, 2, 3, 4, 1, 3}
	count := func(u behavior.UserID) float64 {
		return float64(len(logs.UserLogsBetween(u, cutoff.Add(-72*time.Hour), cutoff)))
	}
	version := func(u behavior.UserID) float64 { p, _ := svc.Profile(u); return p[0] }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l := randomLog(rng, users)
				if w == 0 {
					logs.Append(l)
				} else {
					logs.AppendBatch([]behavior.Log{l, randomLog(rng, users)})
				}
				if w == 0 && i%8 == 0 {
					u := behavior.UserID(1 + rng.Intn(users))
					_ = svc.PutProfile(u, []float64{version(u) + 1})
				}
			}
		}(w)
	}
	errc := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			for rep := 0; rep < 300; rep++ {
				norm := norms[(r+rep)%len(norms)]
				lo := make([][2]float64, len(all))
				for i, u := range all {
					lo[i] = [2]float64{version(u), count(u)}
				}
				got := make([][]float64, len(all))
				if _, err := svc.Gather(context.Background(), all, cutoff, norm, func(i int, vec []float64) { got[i] = vec }); err != nil {
					errc <- err
					return
				}
				for i, u := range all {
					raw := got[i]
					if norm != nil {
						if tag := norm.Apply(nil)[0]; raw[0] != tag {
							errc <- fmt.Errorf("user %d: gather through norm %v served norm %v's vector", u, tag, raw[0])
							return
						}
						raw = raw[1:]
					}
					hi := [2]float64{version(u), count(u)}
					if v, n := raw[0], raw[1+8]; v < lo[i][0] || v > hi[0] || n < lo[i][1] || n > hi[1] {
						errc <- fmt.Errorf("user %d: served profile %v / 72h logs %v outside [%v, %v]", u, v, n, lo[i], hi)
						return
					}
				}
			}
			errc <- nil
		}(r)
	}
	for r := 0; r < 2; r++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, norm := range norms {
		if _, err := svc.Gather(context.Background(), all, cutoff, norm, func(i int, got []float64) {
			if want := applied(norm, reference(t, svc, all[i], cutoff)); !bitwiseEqual(got, want) {
				t.Fatalf("after ingest stopped, user %d served %v, want %v", all[i], got, want)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatherMemoizesPerNorm pins what the row memo saves: a warm row
// hands over one normalizer's output without calling it again (the same
// slice), a second normalizer replaces the memo, a raw gather leaves it,
// a rebuilt row calls the normalizer afresh, and the cold path calls it
// on every gather.
func TestGatherMemoizesPerNorm(t *testing.T) {
	calls := 0
	counting := func(scale float64) *Norm {
		inner := affineNorm(scale, 0)
		return NewNorm(func(vec []float64) []float64 { calls++; return inner.Apply(vec) })
	}
	a, b := counting(2), counting(3)
	cutoff := t0.Add(2 * time.Hour)
	for _, cfg := range []Config{{}, {DisableCache: true}} {
		logs := behavior.NewStore()
		logs.Append(mk(1, behavior.DeviceID, "d0", time.Hour))
		svc := NewService(cfg, logs)
		if err := svc.PutProfile(1, []float64{1}); err != nil {
			t.Fatal(err)
		}
		gather := func(norm *Norm) []float64 {
			var got []float64
			if _, err := svc.Gather(context.Background(), []behavior.UserID{1}, cutoff, norm, func(_ int, v []float64) { got = v }); err != nil {
				t.Fatal(err)
			}
			served := calls
			if want := applied(norm, reference(t, svc, 1, cutoff)); !bitwiseEqual(got, want) {
				t.Fatalf("%+v: served %v, want %v", cfg, got, want)
			}
			calls = served
			return got
		}
		calls = 0
		first, second := gather(a), gather(a)
		gather(b)
		gather(nil)
		gather(b)
		logs.Append(mk(1, behavior.IPv4, "i0", 90*time.Minute)) // moves the log version: the row is rebuilt
		gather(b)
		want := 3
		if cfg.DisableCache {
			want = 5
		} else if &first[0] != &second[0] {
			t.Fatal("a warm row's memo was recomputed, not handed over")
		}
		if calls != want {
			t.Fatalf("%+v: the normalizers ran %d times over six gathers, want %d", cfg, calls, want)
		}
	}
}
