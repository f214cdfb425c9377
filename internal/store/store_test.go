package store

import (
	"errors"
	"testing"
)

func TestTableCRUD(t *testing.T) {
	tb := NewTable()
	if err := tb.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	v, err := tb.Get("k")
	if err != nil || v.(string) != "v" {
		t.Fatalf("get: %v %v", v, err)
	}
	if _, err := tb.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if tb.Len() != 1 {
		t.Fatalf("len %d", tb.Len())
	}
}

func TestTableDown(t *testing.T) {
	tb := NewTable()
	tb.SetDown(true)
	if err := tb.Put("k", 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put on down table: %v", err)
	}
	if _, err := tb.Get("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("get on down table: %v", err)
	}
	tb.SetDown(false)
	if err := tb.Put("k", 1); err != nil {
		t.Fatalf("recovered table: %v", err)
	}
}

func TestReplicatedFailover(t *testing.T) {
	r := NewReplicatedTable()
	if err := r.Put("k", 7); err != nil {
		t.Fatal(err)
	}
	// Primary crashes: reads fail over to the replica.
	r.Primary().SetDown(true)
	v, err := r.Get("k")
	if err != nil || v.(int) != 7 {
		t.Fatalf("failover read: %v %v", v, err)
	}
	// Writes still land on the replica.
	if err := r.Put("k2", 8); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	if v, err := r.Get("k2"); err != nil || v.(int) != 8 {
		t.Fatalf("read after degraded write: %v %v", v, err)
	}
}

func TestReplicatedBothDown(t *testing.T) {
	r := NewReplicatedTable()
	_ = r.Put("k", 1)
	r.Primary().SetDown(true)
	r.Replica().SetDown(true)
	if err := r.Put("x", 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if _, err := r.Get("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

func TestReplicatedNotFoundIsNotFailover(t *testing.T) {
	r := NewReplicatedTable()
	// A missing row on a healthy primary must not mask as unavailable.
	if _, err := r.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestReplicaRecoveryAfterPrimaryRestores(t *testing.T) {
	r := NewReplicatedTable()
	r.Primary().SetDown(true)
	_ = r.Put("k", 1) // lands only on replica
	r.Primary().SetDown(false)
	_ = r.Put("k", 2) // now both
	v, err := r.Get("k")
	if err != nil || v.(int) != 2 {
		t.Fatalf("after recovery: %v %v", v, err)
	}
}
