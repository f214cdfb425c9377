// Package bn constructs the Behavior Network of §III: a time-evolving
// heterogeneous graph whose typed edges connect users that shared the
// same behavior value within a time window. It implements Algorithm 1
// with the paper's two uncertainty-reduction strategies — inverse weight
// assignment (each co-occurrence group of N users contributes 1/N to
// every pairwise edge) and hierarchical time windows (co-occurrences in
// shorter windows are re-counted by every longer window, so temporally
// tight relations accumulate larger weights) — plus the 60-day edge TTL
// of §V.
package bn

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/graph"
)

// DefaultWindows is the paper's empirical hierarchy
// W = [1 hour, 2 hours, …, 12 hours, 1 day].
func DefaultWindows() []time.Duration {
	ws := make([]time.Duration, 0, 13)
	for h := 1; h <= 12; h++ {
		ws = append(ws, time.Duration(h)*time.Hour)
	}
	return append(ws, 24*time.Hour)
}

// DefaultTTL is the max edge Time-To-Live of §V.
const DefaultTTL = 60 * 24 * time.Hour

// Config parameterizes BN construction.
type Config struct {
	// Windows is the hierarchical time window set W (ascending). Empty
	// selects DefaultWindows.
	Windows []time.Duration
	// TTL is the edge time-to-live; zero selects DefaultTTL.
	TTL time.Duration
	// MaxGroupSize caps the number of users in one co-occurrence group
	// whose pairwise edges are materialized. Groups larger than the cap
	// (e.g. a public Wi-Fi shared by hundreds of users) would add
	// O(N²) edges of weight 1/N ≤ 1/cap each — individually negligible
	// under the inverse rule — so they are skipped. 0 selects 64.
	MaxGroupSize int
	// UniformWeights disables the inverse weight assignment (every
	// co-occurrence contributes weight 1). Ablation use only.
	UniformWeights bool
}

func (c Config) withDefaults() Config {
	if len(c.Windows) == 0 {
		c.Windows = DefaultWindows()
	}
	if c.TTL == 0 {
		c.TTL = DefaultTTL
	}
	if c.MaxGroupSize == 0 {
		c.MaxGroupSize = 64
	}
	return c
}

// Validate checks the window hierarchy is strictly ascending and positive.
func (c Config) Validate() error {
	c = c.withDefaults()
	for i, w := range c.Windows {
		if w <= 0 {
			return fmt.Errorf("bn: window %d is non-positive (%v)", i, w)
		}
		if i > 0 && w <= c.Windows[i-1] {
			return fmt.Errorf("bn: windows must be strictly ascending: W[%d]=%v ≤ W[%d]=%v",
				i, w, i-1, c.Windows[i-1])
		}
	}
	if c.TTL < 0 {
		return fmt.Errorf("bn: negative TTL %v", c.TTL)
	}
	return nil
}

// Builder incrementally constructs the BN from a behavior log store.
type Builder struct {
	cfg   Config
	store *behavior.Store
	g     *graph.Graph
	// nextEpoch[i] is the start of the next unprocessed epoch of window i.
	nextEpoch []time.Time
	origin    time.Time
	// users is addKey's scratch for one co-occurrence group, reused
	// across groups and passes.
	users []behavior.UserID

	// Cumulative construction totals, readable concurrently with Advance
	// (the BN server mirrors deltas into telemetry counters).
	jobs        atomic.Int64
	edgeUpdates atomic.Int64
	pruned      atomic.Int64

	// processedThrough is the event-time frontier (unix nanos): every
	// window's epochs before it have been materialized into edges. It
	// feeds the turbo_bn_build_lag_seconds gauge, so it is atomic and
	// readable concurrently with Advance.
	processedThrough atomic.Int64
}

// BuildStats are the builder's cumulative construction totals.
type BuildStats struct {
	// Jobs is the number of window epoch jobs executed by Advance.
	Jobs int64
	// EdgeUpdates counts edge-weight contributions written to the graph
	// (one per pair per co-occurrence group per window epoch).
	EdgeUpdates int64
	// Pruned counts undirected edges dropped by TTL pruning.
	Pruned int64
}

// Stats returns the cumulative construction totals. Safe to call
// concurrently with Advance.
func (b *Builder) Stats() BuildStats {
	return BuildStats{
		Jobs:        b.jobs.Load(),
		EdgeUpdates: b.edgeUpdates.Load(),
		Pruned:      b.pruned.Load(),
	}
}

// NewBuilder creates a builder writing into g; t0 anchors the epoch grid
// (Algorithm 1's "initial time").
func NewBuilder(cfg Config, store *behavior.Store, g *graph.Graph, t0 time.Time) (*Builder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b := &Builder{cfg: cfg, store: store, g: g, origin: t0}
	b.nextEpoch = make([]time.Time, len(cfg.Windows))
	for i := range b.nextEpoch {
		b.nextEpoch[i] = t0
	}
	b.publishFrontier()
	return b, nil
}

// Graph returns the BN being built.
func (b *Builder) Graph() *graph.Graph { return b.g }

// Config returns the effective configuration.
func (b *Builder) Config() Config { return b.cfg }

// span is the half-open event-time range [from, to) one window has to
// materialize in a construction pass; from == to means nothing pending.
type span struct{ from, to time.Time }

// Advance processes, for every window size, all epochs that have fully
// elapsed by now, then prunes expired edges. It returns the number of
// epoch jobs executed (Algorithm 1 runs one per window per epoch; §V
// schedules shorter windows more often). The jobs are counted by
// arithmetic and executed key-major: each window's pending epochs form
// one contiguous span, and a single pass over the store's keys builds
// every window's groups from that key's logs, so the cost follows the
// pending logs, not the number of (possibly empty) epochs. Not safe to
// call concurrently with itself or BuildRange.
func (b *Builder) Advance(now time.Time) int {
	jobs := 0
	spans := make([]span, len(b.cfg.Windows))
	for i, w := range b.cfg.Windows {
		n := max(now.Sub(b.nextEpoch[i])/w, 0)
		spans[i] = span{b.nextEpoch[i], b.nextEpoch[i].Add(n * w)}
		jobs += int(n)
	}
	if jobs > 0 {
		// Every pending span lies inside [frontier, now).
		b.store.ForEachKeyBetween(b.ProcessedThrough(), now, func(k behavior.Key, logs []behavior.Log) {
			b.addKey(k, logs, spans)
		})
		for i := range spans {
			b.nextEpoch[i] = spans[i].to
		}
	}
	b.jobs.Add(int64(jobs))
	b.pruned.Add(int64(b.g.Prune(now)))
	b.publishFrontier()
	return jobs
}

// publishFrontier republishes the processed-through frontier: the
// earliest next-unprocessed-epoch start across the window hierarchy.
// Events before it are fully materialized by every window.
func (b *Builder) publishFrontier() {
	frontier := b.nextEpoch[0]
	for _, t := range b.nextEpoch[1:] {
		if t.Before(frontier) {
			frontier = t
		}
	}
	b.processedThrough.Store(frontier.UnixNano())
}

// ProcessedThrough returns the event-time frontier fully materialized
// by the scheduled window jobs. Safe to call concurrently with Advance.
func (b *Builder) ProcessedThrough() time.Time {
	return time.Unix(0, b.processedThrough.Load())
}

// BuildRange batch-constructs the BN over [from, to): the same key-major
// pass as Advance with [from, to) as every window's span, leaving the
// scheduling cursors alone. This is the offline path used to assemble
// training datasets. Edges are not pruned; call Graph().Prune for TTL
// semantics.
func (b *Builder) BuildRange(from, to time.Time) {
	spans := make([]span, len(b.cfg.Windows))
	for i := range spans {
		spans[i] = span{from, to}
	}
	b.store.ForEachKeyBetween(from, to, func(k behavior.Key, logs []behavior.Log) {
		b.addKey(k, logs, spans)
	})
}

// addKey adds, for one (type, value) key, the contributions of every
// window's epochs inside that window's span (Algorithm 1 lines 5–8).
// logs are the key's time-sorted logs, so within a window each run of
// logs up to the next origin-anchored epoch boundary is one co-occurrence
// group: its distinct users get the inverse-weighted pairwise edges,
// expiring at the epoch end plus the TTL.
func (b *Builder) addKey(k behavior.Key, logs []behavior.Log, spans []span) {
	if len(logs) < 2 {
		return
	}
	t := graph.EdgeType(k.Type)
	for wi, w := range b.cfg.Windows {
		sp := spans[wi]
		i := 0
		for i < len(logs) && logs[i].Time.Before(sp.from) {
			i++
		}
		for i < len(logs) && logs[i].Time.Before(sp.to) {
			epochEnd := b.origin.Add((logs[i].Time.Sub(b.origin)/w + 1) * w)
			runEnd := epochEnd
			if sp.to.Before(runEnd) { // BuildRange bounds need not sit on the grid
				runEnd = sp.to
			}
			users := b.users[:0]
			for ; i < len(logs) && logs[i].Time.Before(runEnd); i++ {
				users = append(users, logs[i].User)
			}
			b.users = users
			if len(users) < 2 {
				continue
			}
			slices.Sort(users)
			users = slices.Compact(users)
			n := len(users)
			if n < 2 || n > b.cfg.MaxGroupSize {
				continue
			}
			weight := 1.0
			if !b.cfg.UniformWeights {
				weight = 1.0 / float64(n)
			}
			expire := epochEnd.Add(b.cfg.TTL)
			for x := 0; x < n; x++ {
				for y := x + 1; y < n; y++ {
					// Errors are impossible here by construction (distinct
					// users, positive weight, valid type).
					_ = b.g.AddEdgeWeight(t, graph.NodeID(users[x]), graph.NodeID(users[y]), weight, expire)
				}
			}
			b.edgeUpdates.Add(int64(n * (n - 1) / 2))
		}
	}
}

// NextEpochStart reports the start of the next unprocessed epoch for the
// i-th window, useful for scheduling and tests.
func (b *Builder) NextEpochStart(i int) time.Time { return b.nextEpoch[i] }

// NextEpochs returns a copy of the per-window next-unprocessed-epoch
// starts, in window order — the builder's scheduling state, captured by
// durable checkpoints so a recovered server resumes window jobs exactly
// where the crashed one left off. Callers must not run Advance
// concurrently.
func (b *Builder) NextEpochs() []time.Time {
	return append([]time.Time(nil), b.nextEpoch...)
}

// RestoreNextEpochs overwrites the per-window scheduling state with a
// checkpointed copy (boot-time recovery only; not safe concurrently with
// Advance). The slice length must match the window hierarchy.
func (b *Builder) RestoreNextEpochs(ts []time.Time) error {
	if len(ts) != len(b.nextEpoch) {
		return fmt.Errorf("bn: restore: %d epoch cursors for %d windows", len(ts), len(b.nextEpoch))
	}
	copy(b.nextEpoch, ts)
	b.publishFrontier()
	return nil
}
