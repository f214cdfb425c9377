package graph

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestGraphPersistRoundtrip(t *testing.T) {
	g := New(3)
	exp := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	_ = g.AddEdgeWeight(0, 1, 2, 0.5, exp)
	_ = g.AddEdgeWeight(2, 3, 4, 1.5, exp)
	g.AddNode(9) // isolated node must survive

	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	s := got.Snapshot()
	if s.EdgeWeight(0, 1, 2) != 0.5 || s.EdgeWeight(2, 3, 4) != 1.5 {
		t.Fatal("edge weights lost")
	}
	if !s.HasNode(9) {
		t.Fatal("isolated node lost")
	}
	// TTL must survive: pruning after the expiry drops the edges.
	if n := got.Prune(exp.Add(time.Hour)); n != 2 {
		t.Fatalf("restored TTL wrong: pruned %d", n)
	}
}

func TestGraphReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not gob data")); err == nil {
		t.Fatal("expected decode error")
	}
}
