package behavior

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

func mk(u UserID, typ Type, val string, offset time.Duration) Log {
	return Log{User: u, Type: typ, Value: val, Time: t0.Add(offset)}
}

func TestTypeStringAndParseRoundtrip(t *testing.T) {
	for _, typ := range AllTypes() {
		parsed, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("parse %q: %v", typ.String(), err)
		}
		if parsed != typ {
			t.Fatalf("roundtrip %v -> %v", typ, parsed)
		}
	}
}

func TestParseTypeUnknown(t *testing.T) {
	if _, err := ParseType("nonsense"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTypeValid(t *testing.T) {
	if !DeviceID.Valid() || !Workplace.Valid() {
		t.Fatal("defined types must be valid")
	}
	if Type(200).Valid() {
		t.Fatal("type 200 must be invalid")
	}
	if Type(99).String() != "Type(99)" {
		t.Fatalf("unknown type string: %s", Type(99))
	}
}

func TestDeterministicTypes(t *testing.T) {
	det := map[Type]bool{DeviceID: true, IMEI: true, IMSI: true}
	for _, typ := range AllTypes() {
		if typ.Deterministic() != det[typ] {
			t.Fatalf("%v deterministic=%v", typ, typ.Deterministic())
		}
	}
}

func TestNumTypesMatchesNames(t *testing.T) {
	if NumTypes != 10 {
		t.Fatalf("Table I defines 10 behavior types, got %d", NumTypes)
	}
	if len(AllTypes()) != NumTypes {
		t.Fatal("AllTypes length mismatch")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Type: IPv4, Value: "1.2.3.4"}
	if k.String() != "IPv4:1.2.3.4" {
		t.Fatalf("key string %q", k.String())
	}
}

func TestStoreAppendAndUserLogsSorted(t *testing.T) {
	s := NewStore()
	s.Append(mk(1, IPv4, "a", 2*time.Hour))
	s.Append(mk(1, IPv4, "a", 1*time.Hour)) // out of order
	s.Append(mk(1, IPv4, "b", 3*time.Hour))
	logs := s.UserLogs(1)
	if len(logs) != 3 {
		t.Fatalf("want 3 logs, got %d", len(logs))
	}
	for i := 1; i < len(logs); i++ {
		if logs[i].Time.Before(logs[i-1].Time) {
			t.Fatal("user logs not sorted")
		}
	}
}

func TestStoreLenAndUserCount(t *testing.T) {
	s := NewStore()
	s.Append(mk(1, IPv4, "a", 0))
	s.Append(mk(2, IPv4, "a", 0))
	s.Append(mk(1, GPS, "g", time.Hour))
	if s.Len() != 3 || s.UserCount() != 2 {
		t.Fatalf("len=%d users=%d", s.Len(), s.UserCount())
	}
	users := s.Users()
	if len(users) != 2 || users[0] != 1 || users[1] != 2 {
		t.Fatalf("users %v", users)
	}
}

func TestUserLogsBetween(t *testing.T) {
	s := NewStore()
	for h := 0; h < 10; h++ {
		s.Append(mk(1, IPv4, "a", time.Duration(h)*time.Hour))
	}
	got := s.UserLogsBetween(1, t0.Add(2*time.Hour), t0.Add(5*time.Hour))
	if len(got) != 3 {
		t.Fatalf("want 3 logs in [2h,5h), got %d", len(got))
	}
	if got[0].Time != t0.Add(2*time.Hour) {
		t.Fatal("range start should be inclusive")
	}
}

func TestKeyLogsBetweenAcrossUsers(t *testing.T) {
	s := NewStore()
	s.Append(mk(1, WiFiMAC, "router", time.Hour))
	s.Append(mk(2, WiFiMAC, "router", 2*time.Hour))
	s.Append(mk(3, WiFiMAC, "other", time.Hour))
	got := s.KeyLogsBetween(Key{WiFiMAC, "router"}, t0, t0.Add(3*time.Hour))
	if len(got) != 2 {
		t.Fatalf("want 2 shared-router logs, got %d", len(got))
	}
}

func TestKeysOfType(t *testing.T) {
	s := NewStore()
	s.Append(mk(1, IPv4, "a", 0))
	s.Append(mk(1, IPv4, "b", 0))
	s.Append(mk(1, GPS, "g", 0))
	if n := len(s.KeysOfType(IPv4)); n != 2 {
		t.Fatalf("want 2 IPv4 keys, got %d", n)
	}
	if n := len(s.Keys()); n != 3 {
		t.Fatalf("want 3 keys total, got %d", n)
	}
}

func TestForEachKeyBetweenGroupsByKey(t *testing.T) {
	s := NewStore()
	s.Append(mk(1, IPv4, "a", time.Hour))
	s.Append(mk(2, IPv4, "a", 2*time.Hour))
	s.Append(mk(3, IPv4, "a", 10*time.Hour))  // at the exclusive upper bound
	s.Append(mk(3, IPv4, "b", 100*time.Hour)) // key with nothing in range: not visited
	seen := map[string][]UserID{}
	s.ForEachKeyBetween(t0.Add(time.Hour), t0.Add(10*time.Hour), func(k Key, logs []Log) {
		for _, l := range logs {
			seen[k.String()] = append(seen[k.String()], l.User)
		}
	})
	if len(seen) != 1 || !slices.Equal(seen["IPv4:a"], []UserID{1, 2}) {
		t.Fatalf("scan result %v", seen)
	}
}

func TestForEachKeyDeliversAllLogs(t *testing.T) {
	s := NewStore()
	s.Append(mk(1, IPv4, "a", time.Hour))
	s.Append(mk(2, IPv4, "a", 2*time.Hour))
	total := 0
	s.ForEachKey(func(k Key, logs []Log) { total += len(logs) })
	if total != 2 {
		t.Fatalf("ForEachKey saw %d logs", total)
	}
}

func TestAppendBatchMatchesAppend(t *testing.T) {
	logs := []Log{
		mk(1, IPv4, "a", 3*time.Hour),
		mk(2, IPv4, "a", time.Hour),
		mk(1, GPS, "g", 2*time.Hour),
		mk(1, IPv4, "a", time.Minute),
	}
	one := NewStore()
	for _, l := range logs {
		one.Append(l)
	}
	batch := NewStore()
	batch.AppendBatch(logs)
	if one.Len() != batch.Len() {
		t.Fatal("length mismatch")
	}
	a, b := one.UserLogs(1), batch.UserLogs(1)
	if len(a) != len(b) {
		t.Fatalf("user log counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].Value != b[i].Value {
			t.Fatalf("log %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDropBefore(t *testing.T) {
	s := NewStore()
	for h := 0; h < 10; h++ {
		s.Append(mk(UserID(h%2), IPv4, "a", time.Duration(h)*time.Hour))
	}
	removed := s.DropBefore(t0.Add(5 * time.Hour))
	if removed != 5 {
		t.Fatalf("removed %d want 5", removed)
	}
	if s.Len() != 5 {
		t.Fatalf("remaining %d", s.Len())
	}
	for _, l := range s.UserLogs(0) {
		if l.Time.Before(t0.Add(5 * time.Hour)) {
			t.Fatal("old log survived DropBefore")
		}
	}
}

func TestDropBeforeRemovesEmptyUsers(t *testing.T) {
	s := NewStore()
	s.Append(mk(1, IPv4, "a", 0))
	s.DropBefore(t0.Add(time.Hour))
	if s.UserCount() != 0 {
		t.Fatal("empty user entry survived")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Append(mk(UserID(w), IPv4, "shared", time.Duration(i)*time.Minute))
				_ = s.UserLogs(UserID(w))
				_ = s.Len()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Fatalf("lost logs under concurrency: %d", s.Len())
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	logs := []Log{
		mk(1, IPv4, "1.2.3.4", time.Hour),
		mk(2, Workplace, "acme corp", 2*time.Hour),
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, logs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d logs", len(got))
	}
	for i := range logs {
		if got[i].User != logs[i].User || got[i].Type != logs[i].Type ||
			got[i].Value != logs[i].Value || !got[i].Time.Equal(logs[i].Time) {
			t.Fatalf("log %d mismatch: %+v vs %+v", i, got[i], logs[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestReadJSONLRejectsInvalidType(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"uid":1,"type":99,"value":"x","time":"2017-01-01T00:00:00Z"}`)); err == nil {
		t.Fatal("expected invalid-type error")
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v %v", got, err)
	}
}

// TestStoreRangeQueryProperty: the number of logs returned by a range
// query equals a brute-force count.
func TestStoreRangeQueryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rngOffsets := make([]int, 40)
		x := seed | 1
		for i := range rngOffsets {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			rngOffsets[i] = int(x % 1000)
		}
		s := NewStore()
		for _, off := range rngOffsets {
			s.Append(mk(1, IPv4, "a", time.Duration(off)*time.Minute))
		}
		from := t0.Add(200 * time.Minute)
		to := t0.Add(700 * time.Minute)
		got := len(s.UserLogsBetween(1, from, to))
		want := 0
		for _, off := range rngOffsets {
			tm := t0.Add(time.Duration(off) * time.Minute)
			if !tm.Before(from) && tm.Before(to) {
				want++
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
