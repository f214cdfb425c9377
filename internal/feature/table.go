package feature

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"turbo/internal/behavior"
)

// table.go is the warm path: a table of exact rows. A row holds one
// user's X_u⊕X_τ⊕X_s and the stamp that proves it still equals
// Profile(u) ⊕ StatFeatures(u, cutoff):
//
//   - the user's log version (behavior.Store moves it on every Append,
//     AppendBatch and DropBefore that touches the user), read in the same
//     locked scan that computed X_s;
//   - the user's profile version (PutProfile and InvalidateUser move
//     it), read before the profile itself, so a concurrent write can
//     only cause a recompute, never a stale row;
//   - the event-time interval [lo, hi) of cutoffs over which every window
//     counts the same logs as at the cutoff the row was built at: it ends
//     when the user's next log enters or a window's oldest counted log
//     leaves, and starts after the newest counted log, or where a
//     window's newest older log would enter.
//
// A row that fails any part of its stamp is rebuilt; there is no TTL.
//
// A row also memoizes one normalizer's output of its vector: the serving
// model's input, so a gather through that normalizer neither recomputes
// nor allocates it (see Norm).

// row is one user's vector with its stamp. Its vector and stamp are
// never mutated once stored; only the memo moves.
type row struct {
	vec     []float64
	logs    uint64 // behavior.Store log version the X_s scan saw
	profile uint64 // profile version read before the profile
	lo, hi  int64  // valid cutoffs, Unix ns, half-open
	normed  atomic.Pointer[normedVec]
}

// normedVec is norm.Apply(vec) of the row that holds it. Holding norm
// keeps its address from being reused while the memo refers to it.
type normedVec struct {
	norm *Norm
	vec  []float64
}

// input returns what a gather through norm hands over for r: the raw
// vector for a nil norm, otherwise norm's output of it, memoized. A memo
// of another Norm is replaced, never served: the vector is immutable and
// Apply a pure function of it, so the memo is bitwise Apply(vec).
func (r *row) input(norm *Norm) []float64 {
	if norm == nil {
		return r.vec
	}
	if m := r.normed.Load(); m != nil && m.norm == norm {
		return m.vec
	}
	m := &normedVec{norm: norm, vec: norm.Apply(r.vec)}
	r.normed.Store(m)
	return m.vec
}

// slot is a user's current profile version and the newest row built on
// it; a row built on an older profile version is never stored.
type slot struct {
	profile uint64
	row     *row
}

type table struct {
	mu    sync.RWMutex
	slots map[behavior.UserID]slot
	seq   uint64 // last profile version handed out

	hits, misses atomic.Int64

	scratch sync.Pool // *gatherScratch
}

// gatherScratch holds one gather's snapshot of slots and log versions.
type gatherScratch struct {
	slots []slot
	vers  []uint64
}

// bump moves u's profile version and drops its row.
func (t *table) bump(u behavior.UserID) {
	t.mu.Lock()
	t.bumpLocked(u)
	t.mu.Unlock()
}

// bumpLocked is bump with t.mu held.
func (t *table) bumpLocked(u behavior.UserID) {
	t.seq++
	t.slots[u] = slot{profile: t.seq}
}

// store keeps r as u's row unless u's profile moved while it was built.
func (t *table) store(u behavior.UserID, r *row) {
	t.mu.Lock()
	if sl := t.slots[u]; sl.profile == r.profile {
		t.slots[u] = slot{profile: r.profile, row: r}
	}
	t.mu.Unlock()
}

// Gather implements Source: one snapshot of the table's slots and of the
// store's log versions for all users, then per row either the stored
// vector (its stamp holds) or a rebuilt one, handed over through norm
// (row.input). With DisableCache every row takes the cold path, which
// applies norm per call and memoizes nothing. fn is called with no lock
// held.
func (s *Service) Gather(ctx context.Context, users []behavior.UserID, cutoff time.Time, norm *Norm, fn func(i int, vec []float64)) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.cfg.DisableCache {
		for i, u := range users {
			vec, err := s.coldVector(ctx, u, cutoff)
			if err != nil {
				return i, err
			}
			if norm != nil {
				vec = norm.Apply(vec)
			}
			fn(i, vec)
		}
		return len(users), nil
	}
	t := &s.table
	sc, _ := t.scratch.Get().(*gatherScratch)
	if sc == nil {
		sc = &gatherScratch{}
	}
	defer t.scratch.Put(sc)
	if cap(sc.slots) < len(users) {
		sc.slots = make([]slot, len(users))
		sc.vers = make([]uint64, len(users))
	}
	slots, vers := sc.slots[:len(users)], sc.vers[:len(users)]
	t.mu.RLock()
	for i, u := range users {
		slots[i] = t.slots[u]
	}
	t.mu.RUnlock()
	s.logs.Versions(users, vers)

	c := cutoff.UnixNano()
	var hits, misses int64
	defer func() {
		t.hits.Add(hits)
		t.misses.Add(misses)
	}()
	for i, u := range users {
		r := slots[i].row
		if r != nil && r.logs == vers[i] && r.lo <= c && c < r.hi {
			hits++
		} else {
			misses++
			var err error
			if r, err = s.build(ctx, u, cutoff, slots[i].profile); err != nil {
				return i, err
			}
		}
		fn(i, r.input(norm))
	}
	return len(users), nil
}

// build computes u's row at cutoff on profile version `profile` and
// stores it.
func (s *Service) build(ctx context.Context, u behavior.UserID, cutoff time.Time, profile uint64) (*row, error) {
	static, err := s.Profile(u)
	if err != nil {
		return nil, err
	}
	if err := s.dbRoundTrip(ctx, u); err != nil {
		return nil, err
	}
	r := &row{profile: profile}
	vec := append(make([]float64, 0, len(static)+NumStatFeatures()), static...)
	s.logs.ViewUser(u, func(logs []behavior.Log, version uint64) {
		r.logs = version
		r.vec, r.lo, r.hi = appendStats(vec, logs, cutoff)
	})
	s.table.store(u, r)
	return r, nil
}

// appendStats appends X_s at cutoff to dst, the numbers StatFeatures
// computes, from one backward pass over a user's time-sorted logs, and
// returns with it the interval [lo, hi) of cutoffs, in Unix ns, that
// count exactly the same logs in every window.
func appendStats(dst []float64, logs []behavior.Log, cutoff time.Time) (out []float64, lo, hi int64) {
	c := cutoff.UnixNano()
	end := sort.Search(len(logs), func(i int) bool { return logs[i].Time.UnixNano() >= c })
	lo, hi = math.MinInt64, math.MaxInt64
	if end > 0 { // the newest counted log must stay below the cutoff
		lo = logs[end-1].Time.UnixNano() + 1
	}
	if end < len(logs) { // the next log must stay at or above it
		hi = logs[end].Time.UnixNano() + 1
	}
	var seen map[behavior.Key]struct{}
	var devices, ips, cells int
	i := end - 1
	for _, w := range StatWindows {
		from := c - int64(w)
		for ; i >= 0 && logs[i].Time.UnixNano() >= from; i-- {
			l := &logs[i]
			if l.Type != behavior.DeviceID && l.Type != behavior.IPv4 && l.Type != behavior.GPS100 {
				continue
			}
			if seen == nil {
				seen = make(map[behavior.Key]struct{})
			}
			k := l.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			switch l.Type {
			case behavior.DeviceID:
				devices++
			case behavior.IPv4:
				ips++
			default:
				cells++
			}
		}
		if i >= 0 { // the newest log below the window must stay out of it
			lo = max(lo, logs[i].Time.UnixNano()+int64(w)+1)
		}
		if i+1 < end { // the oldest counted log must stay in it
			hi = min(hi, logs[i+1].Time.UnixNano()+int64(w)+1)
		}
		dst = append(dst, float64(end-1-i), float64(devices), float64(ips), float64(cells))
	}
	return dst, lo, hi
}
