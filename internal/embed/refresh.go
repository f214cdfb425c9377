package embed

import (
	"slices"
	"sync/atomic"
	"time"

	"turbo/internal/graph"
)

// RefreshStats summarizes one incremental refresh pass.
type RefreshStats struct {
	Dirty   int           // dirty rows targeted
	Ball    int           // rows re-embedded (dirty set padded to Radius hops)
	Cleared int           // dirty rows clean in the installed table
	Elapsed time.Duration // wall time of the whole pass
}

// Refresh re-embeds the live table's dirty rows D into a new table and
// installs it. It begins like a rebuild: in one step it takes the newest
// flushed snapshot, D, and a delta log seeded with the pending deltas.
// It then pads D to its universe-restricted closed ball of radius
// Table.Radius, max(1, L−1), runs the capturing forward over that
// induced subgraph on the snapshot with the table's FROZEN features, and
// writes D's rows and stars over a copy of the live table's (Table.embed).
// Install replays the log onto the new table, so a row a delta dirtied
// during the pass stays dirty.
//
// Correctness: with the closed ball B ⊇ ball(D, L−1) and snapshot-exact
// §III-A weights, h^k computed on B matches the full-universe value on
// ball(D, L−1−k) by induction — each aggregation needs one hop of
// correct inputs — so h^{L−1} is exact on D. B ⊇ ball(D, 1) holds every
// universe neighbour of each row of D, and B ascends like the universe,
// so the batch's row of a dirty row is its universe batch row with the
// columns relabelled: the star is exact too. Rows outside D were clean,
// so their old values hold on the snapshot too. Features stay frozen at
// build time, so a refresh repairs structural staleness exactly while
// feature staleness is bounded by the periodic full rebuild.
//
// Exactly one Refresh or rebuild may run at a time.
func (s *Store) Refresh() RefreshStats {
	start := time.Now()
	s.mu.Lock()
	old := s.table.Load()
	var dirty []int32
	if old != nil {
		dirty = old.dirtyRows()
	}
	if len(dirty) == 0 {
		s.mu.Unlock()
		return RefreshStats{}
	}
	snap := s.beginLocked()
	s.mu.Unlock()

	ball := old.ballRows(snap, dirty, old.Radius())
	tab := old.successor()
	tab.embed(snap, ball, dirty)

	st := RefreshStats{Dirty: len(dirty), Ball: len(ball)}
	s.mu.Lock()
	s.installLocked(tab, snap)
	for _, r := range dirty {
		if !tab.isDirty(r) {
			st.Cleared++
		}
	}
	s.mu.Unlock()
	st.Elapsed = time.Since(start)
	return st
}

// successor returns an unpublished table with t's model, universe,
// frozen features and build time, and a copy of t's row and star
// headers: nothing dirty, no memo.
func (t *Table) successor() *Table {
	n := len(t.ids)
	next := &Table{
		version: t.version, model: t.model, widths: t.widths, hops: t.hops, builtAt: t.builtAt,
		ids: t.ids, index: t.index, x: t.x,
		rows:  make([][][]float64, len(t.rows)),
		stars: slices.Clone(t.stars),
		memo:  make([]atomic.Pointer[float64], n),
		dirty: make([]atomic.Uint64, (n+63)/64),
	}
	for s := range t.rows {
		next.rows[s] = slices.Clone(t.rows[s])
	}
	return next
}

// ballRows runs a universe-restricted BFS from the seed rows over snap's
// flat adjacency and returns the closed ball of the given radius as
// ascending universe rows. Aggregation reads only universe rows, so
// staleness propagates only through universe members — restricting the
// walk is exact, not an approximation. Dense row tables translate
// between universe and snapshot rows, so the walk hashes nothing.
func (t *Table) ballRows(snap *graph.Snapshot, seeds []int32, radius int) []int32 {
	adj := make([]graph.Adjacency, snap.NumEdgeTypes())
	for et := range adj {
		adj[et] = snap.TypedAdjacency(graph.EdgeType(et))
	}
	snapRow := make([]int32, len(t.ids))     // universe row → snapshot row, −1 when unregistered
	uniRow := make([]int32, snap.NumNodes()) // snapshot row → universe row, −1 outside the universe
	for i := range uniRow {
		uniRow[i] = -1
	}
	for r, id := range t.ids {
		sr := snap.Row(id)
		snapRow[r] = sr
		if sr >= 0 {
			uniRow[sr] = int32(r)
		}
	}

	visited := make([]bool, len(t.ids))
	frontier := make([]int32, 0, len(seeds))
	for _, r := range seeds {
		if !visited[r] {
			visited[r] = true
			frontier = append(frontier, r)
		}
	}
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		var next []int32
		for _, r := range frontier {
			sr := snapRow[r]
			if sr < 0 {
				continue
			}
			for et := range adj {
				a := &adj[et]
				for _, vr := range a.Nbr[a.Offsets[sr]:a.Offsets[sr+1]] {
					if ur := uniRow[vr]; ur >= 0 && !visited[ur] {
						visited[ur] = true
						next = append(next, ur)
					}
				}
			}
		}
		frontier = next
	}
	out := make([]int32, 0, len(seeds))
	for r := int32(0); r < int32(len(visited)); r++ {
		if visited[r] {
			out = append(out, r)
		}
	}
	return out
}
