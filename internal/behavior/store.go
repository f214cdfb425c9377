package behavior

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is a concurrency-safe in-memory behavior log store with two
// indexes: by user (for feature computation) and by (type, value) key
// (for BN edge construction). Logs are kept sorted by time within each
// index, which the BN builder and sliding-window feature counters rely
// on for range scans.
//
// Every change to a user's logs stamps the user with a fresh version
// from one store-wide sequence, so two equal versions always name the
// same log set; a user without logs has version 0. The feature table
// keys its exact rows on these versions.
type Store struct {
	mu      sync.RWMutex
	byUser  map[UserID][]Log
	byKey   map[Key][]Log
	version map[UserID]uint64
	seq     uint64
	count   int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byUser:  make(map[UserID][]Log),
		byKey:   make(map[Key][]Log),
		version: make(map[UserID]uint64),
	}
}

// touch stamps u's log set with a fresh version; s.mu must be held for
// writing.
func (s *Store) touch(u UserID) {
	s.seq++
	s.version[u] = s.seq
}

// Append adds one log to both indexes.
func (s *Store) Append(l Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byUser[l.User] = insertSorted(s.byUser[l.User], l)
	k := l.Key()
	s.byKey[k] = insertSorted(s.byKey[k], l)
	s.count++
	s.touch(l.User)
}

// AppendBatch bulk-loads many logs: entries are appended to both indexes
// and each touched slice is re-sorted once, which is far cheaper than
// per-log sorted insertion for large loads.
func (s *Store) AppendBatch(logs []Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	touchedUsers := make(map[UserID]struct{})
	touchedKeys := make(map[Key]struct{})
	for _, l := range logs {
		s.byUser[l.User] = append(s.byUser[l.User], l)
		k := l.Key()
		s.byKey[k] = append(s.byKey[k], l)
		touchedUsers[l.User] = struct{}{}
		touchedKeys[k] = struct{}{}
	}
	s.count += len(logs)
	for u := range touchedUsers {
		sortLogs(s.byUser[u])
		s.touch(u)
	}
	for k := range touchedKeys {
		sortLogs(s.byKey[k])
	}
}

// sortLogs restores time order after a bulk append; logs usually arrive
// in order, so the common case is one comparison pass and no sort.
func sortLogs(logs []Log) {
	byTime := func(a, b Log) int { return a.Time.Compare(b.Time) }
	if !slices.IsSortedFunc(logs, byTime) {
		slices.SortStableFunc(logs, byTime)
	}
}

// insertSorted keeps the slice ordered by time; logs usually arrive in
// order so the common case is a plain append.
func insertSorted(logs []Log, l Log) []Log {
	n := len(logs)
	if n == 0 || !l.Time.Before(logs[n-1].Time) {
		return append(logs, l)
	}
	i := sort.Search(n, func(i int) bool { return logs[i].Time.After(l.Time) })
	logs = append(logs, Log{})
	copy(logs[i+1:], logs[i:])
	logs[i] = l
	return logs
}

// Len returns the total number of stored logs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// UserCount returns how many distinct users have logs.
func (s *Store) UserCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byUser)
}

// Users returns the IDs of all users with at least one log, sorted.
func (s *Store) Users() []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]UserID, 0, len(s.byUser))
	for id := range s.byUser {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// UserLogs returns a copy of all logs of one user, ordered by time.
func (s *Store) UserLogs(u UserID) []Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Log(nil), s.byUser[u]...)
}

// Versions sets vers[i] to the log version of users[i], all under one
// read lock. vers must be at least as long as users.
func (s *Store) Versions(users []UserID, vers []uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, u := range users {
		vers[i] = s.version[u]
	}
}

// ViewUser calls fn with u's time-sorted logs and the version of that
// log set, under one read lock: fn must not retain or mutate the slice,
// nor call back into the store.
func (s *Store) ViewUser(u UserID, fn func(logs []Log, version uint64)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.byUser[u], s.version[u])
}

// UserLogsBetween returns the user's logs with Time in [from, to).
func (s *Store) UserLogsBetween(u UserID, from, to time.Time) []Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Log(nil), rangeScan(s.byUser[u], from, to)...)
}

// KeyLogsBetween returns logs sharing key k with Time in [from, to).
func (s *Store) KeyLogsBetween(k Key, from, to time.Time) []Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Log(nil), rangeScan(s.byKey[k], from, to)...)
}

// Keys returns every distinct (type, value) key, unordered.
func (s *Store) Keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := make([]Key, 0, len(s.byKey))
	for k := range s.byKey {
		ks = append(ks, k)
	}
	return ks
}

// KeysOfType returns every distinct key of behavior type t.
func (s *Store) KeysOfType(t Type) []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ks []Key
	for k := range s.byKey {
		if k.Type == t {
			ks = append(ks, k)
		}
	}
	return ks
}

// ForEachKey calls fn once per distinct (type, value) key with all of
// that key's logs ordered by time. The slice must not be mutated.
// Iteration order across keys is unspecified.
func (s *Store) ForEachKey(fn func(k Key, logs []Log)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, logs := range s.byKey {
		fn(k, logs)
	}
}

// ForEachKeyBetween calls fn once per key that has logs with Time in
// [from, to), handing it that time-sorted run of the key's logs without
// copying. Keys come in ascending (Type, Value) order, so a caller that
// sums across keys (the BN builder's edge weights) sums in the same
// order on every run; sorting costs O(m log m) in the m keys with logs
// in the span. The whole pass holds one read lock: fn must not retain or
// mutate the slice, nor call back into the store.
func (s *Store) ForEachKeyBetween(from, to time.Time, fn func(k Key, logs []Log)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []Key
	for k, logs := range s.byKey {
		if len(rangeScan(logs, from, to)) > 0 {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b Key) int {
		if a.Type != b.Type {
			return cmp.Compare(a.Type, b.Type)
		}
		return strings.Compare(a.Value, b.Value)
	})
	for _, k := range keys {
		fn(k, rangeScan(s.byKey[k], from, to))
	}
}

// rangeScan returns the sub-slice of time-sorted logs with Time in
// [from, to); it aliases logs.
func rangeScan(logs []Log, from, to time.Time) []Log {
	lo := sort.Search(len(logs), func(i int) bool { return !logs[i].Time.Before(from) })
	hi := lo + sort.Search(len(logs)-lo, func(i int) bool { return !logs[lo+i].Time.Before(to) })
	return logs[lo:hi]
}

// Dump returns a full copy of the store's logs, grouped by user in
// ascending user order with each user's logs in time order. The ordering
// is deterministic and AppendBatch-stable, so a checkpointed store
// restored via AppendBatch reproduces the original per-user log order
// exactly (internal/persist relies on this).
func (s *Store) Dump() []Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	users := make([]UserID, 0, len(s.byUser))
	for u := range s.byUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	out := make([]Log, 0, s.count)
	for _, u := range users {
		out = append(out, s.byUser[u]...)
	}
	return out
}

// DropBefore removes all logs older than cutoff and returns how many
// were removed. It keeps the store bounded for long-running servers.
func (s *Store) DropBefore(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for u, logs := range s.byUser {
		kept := dropOld(logs, cutoff)
		if len(kept) == len(logs) {
			continue
		}
		removed += len(logs) - len(kept)
		if len(kept) == 0 {
			delete(s.byUser, u)
			delete(s.version, u)
		} else {
			s.byUser[u] = kept
			s.touch(u)
		}
	}
	for k, logs := range s.byKey {
		kept := dropOld(logs, cutoff)
		if len(kept) == 0 {
			delete(s.byKey, k)
		} else {
			s.byKey[k] = kept
		}
	}
	s.count -= removed
	return removed
}

func dropOld(logs []Log, cutoff time.Time) []Log {
	i := sort.Search(len(logs), func(i int) bool { return !logs[i].Time.Before(cutoff) })
	if i == 0 {
		return logs
	}
	return append([]Log(nil), logs[i:]...)
}
