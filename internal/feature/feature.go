// Package feature implements the feature management module of Fig. 2: it
// serves each user's profile features X_u, application features X_τ, and
// the streaming statistical features X_s computed from behavior logs
// over hierarchical windows (login counts, distinct devices/IPs/cells in
// the last 1 h / 24 h / 72 h — §V). Two retrieval paths exist, matching
// the §V optimization study: a cold path that recomputes X_s by scanning
// the local database on every request, and a warm path that serves
// exact rows from an in-memory table (table.go).
package feature

import (
	"context"
	"fmt"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/store"
)

// Source is the read boundary the prediction server consumes: one
// deadline-aware gather of many users' vectors. *Service implements it
// directly; resilience.InjectFeatures wraps it with chaos faults.
type Source interface {
	// Gather calls fn(i, vec) with the vector of users[i], in order, and
	// returns how many rows it handed over. It stops at the first row it
	// cannot serve: then users[n] is the lowest failing row and err its
	// error. vec is norm.Apply of the raw row, or the raw row for a nil
	// norm. vec is read-only: fn may keep it but must not mutate it.
	Gather(ctx context.Context, users []behavior.UserID, cutoff time.Time, norm *Norm, fn func(i int, vec []float64)) (n int, err error)
}

// Norm is a serving normalizer: Apply maps a raw row to a model input
// under the contract core.System.SetModel states (a pure function of its
// input, which it never mutates; its result is read-only). The table
// memoizes Apply's output per row and tells normalizers apart by the
// Norm's address, so a new normalizer must come as a new Norm, never by
// reassigning Apply.
type Norm struct{ Apply func([]float64) []float64 }

// NewNorm wraps apply, or returns nil (raw rows) for a nil apply.
func NewNorm(apply func([]float64) []float64) *Norm {
	if apply == nil {
		return nil
	}
	return &Norm{Apply: apply}
}

// Func returns n's Apply, nil for a nil n.
func (n *Norm) Func() func([]float64) []float64 {
	if n == nil {
		return nil
	}
	return n.Apply
}

// StatWindows are the statistical-feature windows, shortest first (the
// table's one-pass scan relies on the order).
var StatWindows = []time.Duration{time.Hour, 24 * time.Hour, 72 * time.Hour}

// statKinds are the per-window aggregates.
var statKinds = []string{"logs", "devices", "ips", "cells"}

// StatFeatureNames names the X_s dimensions.
func StatFeatureNames() []string {
	var names []string
	for _, w := range StatWindows {
		for _, k := range statKinds {
			names = append(names, fmt.Sprintf("%s_%s", k, w))
		}
	}
	return names
}

// NumStatFeatures is the dimensionality of X_s.
func NumStatFeatures() int { return len(StatWindows) * len(statKinds) }

// Config parameterizes the service.
type Config struct {
	// DBLatency simulates the round-trip cost of each local-database
	// scan: every row the cold path serves and every row the warm path
	// recomputes pays it (the paper's MySQL cluster is remote; our
	// embedded store is not, so the latency study injects it here).
	DBLatency time.Duration
	// DisableCache forces the cold path on every request (§V baseline).
	DisableCache bool
}

// Service is the feature management module.
type Service struct {
	cfg      Config
	logs     *behavior.Store
	profiles *store.ReplicatedTable // key: uid, value: []float64 X_u⊕X_τ
	table    table
}

// NewService builds a feature service over the given log store.
func NewService(cfg Config, logs *behavior.Store) *Service {
	return &Service{
		cfg:      cfg,
		logs:     logs,
		profiles: store.NewReplicatedTable(),
		table:    table{slots: make(map[behavior.UserID]slot)},
	}
}

// PutProfile stores a user's static X_u⊕X_τ vector and moves the user's
// profile version, so no table row built on the old profile is served
// again. Both happen under the table's lock: a gather's snapshot of the
// slots is taken either before the write or after the move, never
// between, where it would serve the old row as current although the new
// profile is already readable.
func (s *Service) PutProfile(u behavior.UserID, feats []float64) error {
	t := &s.table
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := s.profiles.Put(profileKey(u), append([]float64(nil), feats...)); err != nil {
		return err
	}
	if afterProfileWrite != nil {
		afterProfileWrite(u)
	}
	t.bumpLocked(u)
	return nil
}

// afterProfileWrite, when a test sets it, runs inside PutProfile between
// the profile write and the version move.
var afterProfileWrite func(behavior.UserID)

// Profile returns the stored static vector of u.
func (s *Service) Profile(u behavior.UserID) ([]float64, error) {
	row, err := s.profiles.Get(profileKey(u))
	if err != nil {
		return nil, fmt.Errorf("feature: profile of user %d: %w", u, err)
	}
	return row.([]float64), nil
}

// Vector returns X_u⊕X_τ⊕X_s for user u with statistical features
// computed over logs before the cutoff time.
func (s *Service) Vector(u behavior.UserID, cutoff time.Time) ([]float64, error) {
	return s.VectorCtx(context.Background(), u, cutoff)
}

// VectorCtx is Vector with a deadline: the simulated database round-trip
// is cut short when ctx expires, so a slow cold path cannot hold an
// audit past its stage budget. The returned slice is shared and must not
// be mutated.
func (s *Service) VectorCtx(ctx context.Context, u behavior.UserID, cutoff time.Time) ([]float64, error) {
	var vec []float64
	_, err := s.Gather(ctx, []behavior.UserID{u}, cutoff, nil, func(_ int, v []float64) { vec = v })
	return vec, err
}

// dbRoundTrip pays the simulated database latency, or ctx's error if it
// expires first.
func (s *Service) dbRoundTrip(ctx context.Context, u behavior.UserID) error {
	if s.cfg.DBLatency <= 0 {
		return nil
	}
	t := time.NewTimer(s.cfg.DBLatency)
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		t.Stop()
		return fmt.Errorf("feature: vector of user %d: %w", u, ctx.Err())
	}
}

// coldVector is the §V cold path: Profile ⊕ StatFeatures, recomputed
// on every request.
func (s *Service) coldVector(ctx context.Context, u behavior.UserID, cutoff time.Time) ([]float64, error) {
	static, err := s.Profile(u)
	if err != nil {
		return nil, err
	}
	if err := s.dbRoundTrip(ctx, u); err != nil {
		return nil, err
	}
	return append(append(make([]float64, 0, len(static)+NumStatFeatures()), static...), s.StatFeatures(u, cutoff)...), nil
}

// StatFeatures computes X_s for u from logs in the windows ending at
// cutoff: per window, the log count and the distinct devices, IPs and
// GPS cells. It is the reference the table's rows are exact against.
func (s *Service) StatFeatures(u behavior.UserID, cutoff time.Time) []float64 {
	out := make([]float64, 0, NumStatFeatures())
	for _, w := range StatWindows {
		logs := s.logs.UserLogsBetween(u, cutoff.Add(-w), cutoff)
		devices := make(map[string]struct{})
		ips := make(map[string]struct{})
		cells := make(map[string]struct{})
		for _, l := range logs {
			switch l.Type {
			case behavior.DeviceID:
				devices[l.Value] = struct{}{}
			case behavior.IPv4:
				ips[l.Value] = struct{}{}
			case behavior.GPS100:
				cells[l.Value] = struct{}{}
			}
		}
		out = append(out, float64(len(logs)), float64(len(devices)), float64(len(ips)), float64(len(cells)))
	}
	return out
}

// CacheStats reports how many rows the warm path served from the table
// (hits) and recomputed (misses), for the §V study.
func (s *Service) CacheStats() (hits, misses int64) {
	return s.table.hits.Load(), s.table.misses.Load()
}

// Profiles exposes the replicated profile table for failover tests.
func (s *Service) Profiles() *store.ReplicatedTable { return s.profiles }

// InvalidateUser forces the next read of u to recompute its row. New
// logs need no call: they move the user's log version.
func (s *Service) InvalidateUser(u behavior.UserID) { s.table.bump(u) }

var _ Source = (*Service)(nil)

func profileKey(u behavior.UserID) string { return fmt.Sprintf("p/%d", u) }
