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
// and checks every served row bitwise against Profile ⊕ StatFeatures.
func TestTableExactUnderRandomInterleavings(t *testing.T) {
	const users = 6
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
				n, err := svc.Gather(context.Background(), batch, cutoff, func(i int, vec []float64) {
					if want := reference(t, svc, batch[i], cutoff); !bitwiseEqual(vec, want) {
						t.Fatalf("seed %d step %d: user %d at %v served %v, want %v", seed, step, batch[i], cutoff, vec, want)
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
	n, err := svc.Gather(context.Background(), []behavior.UserID{1, 2, 3, 4, 5}, t0, func(i int, _ []float64) { served = append(served, i) })
	if n != 2 || !errors.Is(err, store.ErrNotFound) || len(served) != 2 {
		t.Fatalf("gather served %v, stopped at %d with %v; want rows 0-1 then not-found at 2", served, n, err)
	}
	vecs, errs := svc.VectorsCtx(context.Background(), []behavior.UserID{1, 3, 4, 5}, t0)
	if vecs[0] == nil || errs[1] == nil || vecs[2] == nil || errs[3] == nil {
		t.Fatalf("bulk path lost its per-user contract: %v %v", vecs, errs)
	}
}

// TestTableExactUnderConcurrentIngest runs gathers against concurrent
// Append, AppendBatch and PutProfile (run with -race). Logs only grow
// and profiles only count up, so a served row must lie between what the
// store held before its gather and after it; once writers stop, every
// row must be exact again.
func TestTableExactUnderConcurrentIngest(t *testing.T) {
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
		go func() {
			for rep := 0; rep < 300; rep++ {
				lo := make([][2]float64, len(all))
				for i, u := range all {
					lo[i] = [2]float64{version(u), count(u)}
				}
				got := make([][]float64, len(all))
				if _, err := svc.Gather(context.Background(), all, cutoff, func(i int, vec []float64) { got[i] = vec }); err != nil {
					errc <- err
					return
				}
				for i, u := range all {
					hi := [2]float64{version(u), count(u)}
					if v, n := got[i][0], got[i][1+8]; v < lo[i][0] || v > hi[0] || n < lo[i][1] || n > hi[1] {
						errc <- fmt.Errorf("user %d: served profile %v / 72h logs %v outside [%v, %v]", u, v, n, lo[i], hi)
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for r := 0; r < 2; r++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, u := range all {
		got, err := svc.Vector(u, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(t, svc, u, cutoff); !bitwiseEqual(got, want) {
			t.Fatalf("after ingest stopped, user %d served %v, want %v", u, got, want)
		}
	}
}
