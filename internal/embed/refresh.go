package embed

import (
	"time"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/sweep"
	"turbo/internal/tensor"
)

// RefreshStats summarizes one incremental refresh pass.
type RefreshStats struct {
	Dirty   int           // dirty rows targeted
	Ball    int           // rows re-embedded (dirty set padded to L−1 hops)
	Cleared int           // dirty bits cleared (rows not re-dirtied mid-refresh)
	Sweep   sweep.Stats   // the ball sweep
	Elapsed time.Duration // wall time of the whole pass
}

// Refresh re-embeds the dirty set incrementally: it pads the dirty rows
// D to their universe-restricted closed (L−1)-hop ball, runs the
// embedding sweep over that induced subgraph with the table's FROZEN
// features, and republishes rows and stars for D only.
//
// Correctness: with the closed ball B = ball(D, L−1) and snapshot-exact
// §III-A weights, h^k computed on B matches the full-universe value on
// ball(D, L−1−k) by induction — each aggregation needs one hop of
// correct inputs — so h^{L−1} is exact on D. Rows in B∖D keep their
// (clean, still-valid) old values; only D is republished. Features stay
// frozen at build time, so a refresh repairs structural staleness
// exactly while feature staleness is bounded by the periodic full
// rebuild.
//
// Exactly one Refresh (or Build/Install) may run at a time. Deltas that
// Flush while the refresh runs re-dirty rows; the refresh skips
// clearing those bits (Store.remarked), so their next values come from
// a later pass.
func (s *Store) Refresh(snap *graph.Snapshot, opts sweep.Options) RefreshStats {
	start := time.Now()
	var st RefreshStats

	s.mu.Lock()
	tab := s.table.Load()
	if tab == nil {
		s.mu.Unlock()
		return st
	}
	dirty := tab.dirtyRows()
	if len(dirty) == 0 {
		s.mu.Unlock()
		return st
	}
	s.refreshing = true
	s.remarked = make(map[int32]struct{})
	s.mu.Unlock()

	st.Dirty = len(dirty)
	c := newStarCompiler(tab, snap)
	ball := c.ballRows(dirty, tab.hops-1)
	st.Ball = len(ball)

	// Gather the ball's frozen features and run the embedding sweep over
	// the induced subgraph. No scoring emit: only the captured
	// penultimate activations matter here.
	ballIDs := make([]graph.NodeID, len(ball))
	for i, r := range ball {
		ballIDs[i] = tab.ids[r]
	}
	x := tensor.New(len(ball), tab.x.Cols)
	for i, r := range ball {
		copy(x.Row(i), tab.x.Row(int(r)))
	}
	b := gnn.FullBatch(snap, x, graph.FullOptions{Nodes: ballIDs})
	capture := make([]*tensor.Matrix, len(tab.widths))
	for st2, w := range tab.widths {
		capture[st2] = tensor.New(len(ball), w)
	}
	prog := tab.model.BuildEmbedSweep(b, capture)
	st.Sweep = sweep.Run(prog, opts, nil)
	prog.Release()
	b.Release()

	// Rebuild the dirty rows' stars against the refresh snapshot.
	var sc starScratch
	stars := make([]*gnn.EmbedStar, len(dirty))
	for i, r := range dirty {
		stars[i] = c.compile(&sc, r)
	}

	// Publish under the seqlock: rows and stars for D swap together, and
	// any concurrent TryServe that overlaps the window retries as a
	// fallback rather than mixing generations. D and its ball both
	// ascend, so one forward walk finds each dirty row's ball position.
	s.writeGen.Add(1)
	bi := 0
	for i, r := range dirty {
		for ball[bi] != r {
			bi++
		}
		for st2 := range tab.rows {
			row := capture[st2].Row(bi)
			tab.rows[st2][r].Store(&row)
		}
		tab.stars[r].Store(stars[i])
	}
	s.writeGen.Add(1)

	s.mu.Lock()
	for _, r := range dirty {
		if _, ok := s.remarked[r]; !ok {
			tab.clearRow(r)
			st.Cleared++
		}
	}
	s.refreshing = false
	s.remarked = nil
	// The republished rows reflect snap; older snapshots must no longer
	// serve against them.
	if snap.Epoch() > tab.Epoch() {
		tab.epoch.Store(snap.Epoch())
	}
	s.mu.Unlock()

	st.Elapsed = time.Since(start)
	return st
}
