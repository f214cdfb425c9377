package embed

import (
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
	// model/version skew, a snapshot older than the table's epoch, or a
	// refresh writing concurrently.
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
// marking. Exactly one goroutine may run Refresh / Build+Install at a
// time (the embed engine serializes them); NoteDelta, Flush, and
// TryServe are safe from any goroutine.
//
// Write protocol: the refresh loop updates row and star pointers of the
// live table in place. writeGen is a seqlock around those writes —
// odd while a refresh is publishing, bumped again when done. TryServe
// snapshots writeGen before reading and rejects the serve if it moved,
// so a score can never mix rows from two refresh generations. The same
// even generation stamps each row's score memo (see scoreMemo).
type Store struct {
	table    atomic.Pointer[Table]
	writeGen atomic.Uint64

	mu         sync.Mutex
	pending    []graph.NodeID // delta endpoints awaiting Flush
	refreshing bool
	remarked   map[int32]struct{} // rows re-dirtied while a refresh ran
	rebuilding bool
	rebuildLog []graph.NodeID // deltas observed while a rebuild ran
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
	if s.rebuilding {
		s.rebuildLog = append(s.rebuildLog, u, v)
	}
	s.mu.Unlock()
}

// PendingDeltas returns the number of endpoints awaiting Flush.
func (s *Store) PendingDeltas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Flush drains the pending delta endpoints and marks their
// (L−1)-hop-padded neighborhoods dirty on the live table. It MUST be
// called with the about-to-be-published snapshot, before that snapshot
// is made visible to the prediction path (mark-before-publish): then
// any reader holding a snapshot that contains a delta is guaranteed to
// see the dirty bits the delta implies, and readers on older snapshots
// score consistently against their own epoch.
func (s *Store) Flush(snap *graph.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return
	}
	seeds := s.pending
	s.pending = nil
	tab := s.table.Load()
	if tab == nil {
		return
	}
	s.markBallLocked(tab, snap, seeds)
}

// markBallLocked BFS-marks the closed ball of radius tab.Radius()
// around the seed nodes, walking the full snapshot adjacency (an edge
// delta shifts the §III-A degrees of both endpoints, perturbing h^1 on
// their 1-hop neighborhoods and h^{L−1} within L−1 hops; walking
// through non-universe nodes over-marks, which is safe). Marked rows
// are recorded in remarked while a refresh is running so the refresh
// does not clear bits that went stale again under it. Caller holds mu.
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
			if s.refreshing {
				s.remarked[r] = struct{}{}
			}
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

// BeginRebuild marks the start of a full table build. Deltas observed
// until Install are logged and replayed onto the new table, closing the
// window where an edge lands after the build snapshot but before the
// new table goes live.
func (s *Store) BeginRebuild() {
	s.mu.Lock()
	s.rebuilding = true
	s.rebuildLog = nil
	s.mu.Unlock()
}

// AbortRebuild cancels a BeginRebuild without installing.
func (s *Store) AbortRebuild() {
	s.mu.Lock()
	s.rebuilding = false
	s.rebuildLog = nil
	s.mu.Unlock()
}

// Install publishes a freshly built table, replaying deltas logged
// since BeginRebuild onto it against the current snapshot.
func (s *Store) Install(tab *Table, snap *graph.Snapshot) {
	s.mu.Lock()
	if len(s.rebuildLog) > 0 {
		s.markBallLocked(tab, snap, s.rebuildLog)
	}
	s.table.Store(tab)
	s.rebuilding = false
	s.rebuildLog = nil
	s.mu.Unlock()
}

// TryServe attempts to score node u from cached embeddings: final
// aggregation layer plus head only, never a full multi-hop forward,
// and only once per row per refresh generation — later hits return the
// row's memo after the same guards. A non-Hit result carries no
// probability; the caller falls through to the next serving tier. The
// model argument is the prediction path's live model — identity
// mismatch (a swap the embed engine has not caught up with) refuses
// rather than serving another artifact's embeddings.
func (s *Store) TryServe(snap *graph.Snapshot, u graph.NodeID, model gnn.Model) (float64, Result) {
	tab := s.table.Load()
	if tab == nil {
		return 0, Miss
	}
	if tab.model != model {
		return 0, Fallback
	}
	if snap != nil && snap.Epoch() < tab.Epoch() {
		// The caller's snapshot predates the rows (a refresh moved the
		// table forward); its view of the neighborhood may disagree.
		return 0, Fallback
	}
	r := tab.Row(u)
	if r < 0 {
		return 0, Miss
	}
	g1 := s.writeGen.Load()
	if g1&1 != 0 {
		return 0, Fallback // refresh mid-publish
	}
	star := tab.stars[r].Load()
	if star == nil {
		return 0, Fallback
	}
	for _, gr := range star.Gather {
		if tab.isDirty(gr) {
			return 0, Dirty
		}
	}
	if m := tab.memo[r].Load(); m != nil && m.gen == g1 && s.writeGen.Load() == g1 {
		return m.prob, Hit
	}

	prob, ok := tab.score(star)
	if !ok {
		return 0, Fallback
	}
	if s.writeGen.Load() != g1 {
		// A refresh republished rows underneath the read; the gathered
		// block may mix generations.
		return 0, Fallback
	}
	tab.memo[r].Store(&scoreMemo{gen: g1, prob: prob})
	return prob, Hit
}

// score runs the final aggregation layer, head and sigmoid for star over
// its gathered rows as they are now. ok is false if a row is unset.
func (t *Table) score(star *gnn.EmbedStar) (prob float64, ok bool) {
	f := gnn.AcquireFwd[float64]()
	defer gnn.ReleaseFwd(f)
	hs := make([]*tensor.Matrix, len(t.rows))
	for st := range t.rows {
		h := f.Get(len(star.Gather), t.widths[st])
		for i, gr := range star.Gather {
			p := t.rows[st][gr].Load()
			if p == nil {
				return 0, false
			}
			copy(h.Row(i), *p)
		}
		hs[st] = h
	}
	return tensor.SigmoidScalar(t.model.InferFinal(f, star, hs)), true
}
