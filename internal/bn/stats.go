package bn

import (
	"fmt"
	"strings"

	"turbo/internal/behavior"
	"turbo/internal/graph"
)

// Stats summarizes a constructed BN in the shape of Table II.
type Stats struct {
	Nodes       int
	Positives   int
	Edges       int
	Types       int // number of edge types that actually carry edges
	EdgesByType map[string]int
}

// CollectStats computes Table II-style statistics from a snapshot of the
// BN; isFraud may be nil.
func CollectStats(g *graph.Snapshot, isFraud func(graph.NodeID) bool) Stats {
	s := Stats{
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		EdgesByType: make(map[string]int),
	}
	for t, c := range g.EdgeCountByType() {
		if c > 0 {
			s.Types++
			s.EdgesByType[behavior.Type(t).String()] = c
		}
	}
	if isFraud != nil {
		for _, n := range g.Nodes() {
			if isFraud(n) {
				s.Positives++
			}
		}
	}
	return s
}

// String renders the stats as a Table II-style row.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#node=%d #positive=%d #edge=%d #type=%d", s.Nodes, s.Positives, s.Edges, s.Types)
	return b.String()
}
