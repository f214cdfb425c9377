package embed

import (
	"slices"
	"sync"
	"sync/atomic"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// Result classifies one serve attempt against the embedding tier.
type Result int

const (
	// Hit: the target and its whole aggregation star were clean for the
	// live model — scored from cached embeddings.
	Hit Result = iota
	// Dirty: some star member's embedding was invalidated by an edge
	// delta; the caller must fall through to full scoring.
	Dirty
	// Miss: the target is not in the table universe (or no table yet).
	Miss
	// Fallback: the table exists but cannot serve this request safely —
	// model/version skew, or a snapshot older than the table's epoch.
	Fallback
)

// String returns the metrics label for the result.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Dirty:
		return "dirty"
	case Miss:
		return "miss"
	default:
		return "fallback"
	}
}

// Store owns the live embedding table and the delta-driven dirty
// marking. A published table is immutable but for its dirty bits and
// memos: both ways to change the table — a rebuild (BeginRebuild, Build,
// Install) and a refresh (Refresh) — compute a new table on the newest
// flushed snapshot, replay onto it the deltas that snapshot lacks, and
// publish it with one pointer store. Exactly one table change may run at
// a time (the embed engine serializes them); NoteDelta, Flush, and
// TryServe are safe from any goroutine.
//
// Invariant: a published table carries a mark for every delta its
// snapshot lacks. Flush marks the live table; beginning a change takes,
// in one step under mu, the newest flushed snapshot and a delta log
// seeded with the pending deltas, so every delta is in that snapshot or
// in the log, and Install marks the log's deltas on the new table.
type Store struct {
	table atomic.Pointer[Table]

	mu       sync.Mutex
	pending  []graph.NodeID  // delta endpoints awaiting Flush
	newest   *graph.Snapshot // newest snapshot Flush or Install saw
	changing bool            // a table change has begun and not yet installed
	log      []graph.NodeID  // endpoints of deltas the changing table's snapshot lacks
}

// NewStore returns an empty store (every serve is a Miss until a table
// is installed).
func NewStore() *Store { return &Store{} }

// Table returns the live table, or nil.
func (s *Store) Table() *Table { return s.table.Load() }

// NoteDelta records one edge delta's endpoints for the next Flush. It
// is the graph's delta observer: called from ingest on every
// AddEdgeWeight and from Prune on every dropped edge.
func (s *Store) NoteDelta(u, v graph.NodeID) {
	s.mu.Lock()
	s.pending = append(s.pending, u, v)
	if s.changing {
		s.log = append(s.log, u, v)
	}
	s.mu.Unlock()
}

// PendingDeltas returns the number of endpoints awaiting Flush.
func (s *Store) PendingDeltas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Flush drains the pending delta endpoints, marks their
// (L−1)-hop-padded neighborhoods dirty on the live table, and records
// snap as the newest snapshot, the one the next table change computes
// on. It MUST be called with the about-to-be-published snapshot, taken
// after every noted delta was written, before that snapshot is made
// visible to the prediction path (mark-before-publish): then any reader
// holding a snapshot that contains a delta is guaranteed to see the
// dirty bits the delta implies, and readers on older snapshots score
// consistently against their own epoch.
func (s *Store) Flush(snap *graph.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seeLocked(snap)
	if len(s.pending) == 0 {
		return
	}
	seeds := s.pending
	s.pending = nil
	if tab := s.table.Load(); tab != nil {
		s.markBallLocked(tab, snap, seeds)
	}
}

// seeLocked records snap as the newest snapshot if it is newer. Caller
// holds mu.
func (s *Store) seeLocked(snap *graph.Snapshot) {
	if snap != nil && (s.newest == nil || snap.Epoch() > s.newest.Epoch()) {
		s.newest = snap
	}
}

// markBallLocked BFS-marks the closed ball of radius tab.Radius()
// around the seed nodes, walking the full snapshot adjacency (an edge
// delta shifts the §III-A degrees of both endpoints, perturbing h^1 on
// their 1-hop neighborhoods and h^{L−1} within L−1 hops; walking
// through non-universe nodes over-marks, which is safe). Any snapshot
// at least as new as tab's will do: a shortest path from the seeds
// leaves the last seed on it over edges no later delta touched. Caller
// holds mu.
func (s *Store) markBallLocked(tab *Table, snap *graph.Snapshot, seeds []graph.NodeID) {
	radius := tab.Radius()
	visited := make(map[graph.NodeID]struct{}, len(seeds)*4)
	frontier := make([]graph.NodeID, 0, len(seeds))
	mark := func(u graph.NodeID) {
		if _, ok := visited[u]; ok {
			return
		}
		visited[u] = struct{}{}
		frontier = append(frontier, u)
		if r := tab.Row(u); r >= 0 {
			tab.markRow(r)
		}
	}
	for _, u := range seeds {
		mark(u)
	}
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		cur := frontier
		frontier = nil
		for _, u := range cur {
			snap.ForEachNeighbor(u, func(v graph.NodeID) { mark(v) })
		}
	}
}

// BeginRebuild begins a full table build and returns the snapshot to
// build it on: the newest one Flush or Install saw (nil before either).
// Deltas that snapshot lacks — the pending ones and every one noted
// until Install — are logged and replayed onto the new table.
func (s *Store) BeginRebuild() *graph.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.beginLocked()
}

// beginLocked starts a table change: the delta log starts with the
// pending deltas and NoteDelta appends every later one, so every delta
// is in the returned newest snapshot or in the log. Caller holds mu.
func (s *Store) beginLocked() *graph.Snapshot {
	s.changing = true
	s.log = slices.Clone(s.pending)
	return s.newest
}

// AbortRebuild cancels a BeginRebuild without installing.
func (s *Store) AbortRebuild() {
	s.mu.Lock()
	s.changing = false
	s.log = nil
	s.mu.Unlock()
}

// Install publishes a new table: it records snap (the snapshot tab was
// computed on, or a later one) as seen, marks the deltas logged since
// the change began on tab, and stores tab as the live table.
func (s *Store) Install(tab *Table, snap *graph.Snapshot) {
	s.mu.Lock()
	s.installLocked(tab, snap)
	s.mu.Unlock()
}

// installLocked is Install. Caller holds mu.
func (s *Store) installLocked(tab *Table, snap *graph.Snapshot) {
	s.seeLocked(snap)
	if len(s.log) > 0 {
		s.markBallLocked(tab, s.newest, s.log)
	}
	s.table.Store(tab)
	s.changing = false
	s.log = nil
}

// TryServe attempts to score node u from cached embeddings: final
// aggregation layer plus head only, never a full multi-hop forward,
// and only once per row per table — later hits return the row's memo
// after the same guards. A non-Hit result carries no probability; the
// caller falls through to the next serving tier. The model argument is
// the prediction path's live model — identity mismatch (a swap the
// embed engine has not caught up with) refuses rather than serving
// another artifact's embeddings. Load snap before calling: the table
// TryServe then reads is marked for every delta snap holds.
func (s *Store) TryServe(snap *graph.Snapshot, u graph.NodeID, model gnn.Model) (float64, Result) {
	tab := s.table.Load()
	if tab == nil {
		return 0, Miss
	}
	if tab.model != model {
		return 0, Fallback
	}
	if snap != nil && snap.Epoch() < tab.epoch {
		// The caller's snapshot predates the rows; its view of the
		// neighborhood may disagree.
		return 0, Fallback
	}
	r := tab.Row(u)
	if r < 0 {
		return 0, Miss
	}
	star := tab.stars[r]
	for _, gr := range star.Gather {
		if tab.isDirty(gr) {
			return 0, Dirty
		}
	}
	if p := tab.memo[r].Load(); p != nil {
		return *p, Hit
	}
	prob := tab.score(star)
	tab.memo[r].Store(&prob)
	return prob, Hit
}

// score runs the final aggregation layer, head and sigmoid for star over
// its gathered rows.
func (t *Table) score(star *gnn.EmbedStar) float64 {
	f := gnn.AcquireFwd[float64]()
	defer gnn.ReleaseFwd(f)
	hs := make([]*tensor.Matrix, len(t.rows))
	for st := range t.rows {
		h := f.Get(len(star.Gather), t.widths[st])
		for i, gr := range star.Gather {
			copy(h.Row(i), t.rows[st][gr])
		}
		hs[st] = h
	}
	return tensor.SigmoidScalar(t.model.InferFinal(f, star, hs))
}
