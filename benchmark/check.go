package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/server"
	"turbo/internal/tensor"
)

// Tolerances of the output check, in probability. The f32 gate bounds
// the logit gap by f32Tol and the sigmoid's slope is at most 1/4.
const (
	exactTol = 1e-9
	f32PTol  = f32Tol / 4
)

// oracle re-scores audits on the autodiff tape, the reference every
// serving path is pinned to, against the snapshot that is current when
// it is built. The caller keeps the BN still while it is used.
type oracle struct {
	w    *world
	full map[behavior.UserID]float64 // full-graph scores, built on first use
}

// features returns the normalized feature rows of users, as serving
// fetches them.
func (o *oracle) features(users []behavior.UserID) (*tensor.Matrix, error) {
	vecs, errs := o.w.sys.Features().VectorsCtx(context.Background(), users, time.Now())
	var x *tensor.Matrix
	for i, v := range vecs {
		if errs[i] != nil {
			return nil, fmt.Errorf("features of user %d: %w", users[i], errs[i])
		}
		v = o.w.tr.norm(v)
		if x == nil {
			x = tensor.New(len(users), len(v))
		}
		copy(x.Row(i), v)
	}
	return x, nil
}

// fullScores is the reference of the embed tier: the tape over the whole
// snapshot, restricted to audit-eligible users like the table is.
func (o *oracle) fullScores() (map[behavior.UserID]float64, error) {
	if o.full != nil {
		return o.full, nil
	}
	bn := o.w.sys.BNServer()
	snap, eligible := bn.Snapshot(), bn.TxnFilter()
	var nodes []graph.NodeID
	var users []behavior.UserID
	for _, id := range snap.Nodes() {
		if eligible(id) {
			nodes = append(nodes, id)
			users = append(users, behavior.UserID(id))
		}
	}
	x, err := o.features(users)
	if err != nil {
		return nil, err
	}
	probs := gnn.TapeScores(o.w.tr.model, gnn.NewBatch(graph.FullSubgraph(snap, graph.FullOptions{Nodes: nodes}), x))
	o.full = make(map[behavior.UserID]float64, len(users))
	for i, u := range users {
		o.full[u] = probs[i]
	}
	return o.full, nil
}

// sampledScore is the reference of the hag tier: the tape over the same
// deterministic 2-hop sample the server draws.
func (o *oracle) sampledScore(u behavior.UserID) (float64, error) {
	sg := o.w.sys.BNServer().Sample(u)
	users := make([]behavior.UserID, len(sg.Nodes))
	for i, n := range sg.Nodes {
		users[i] = behavior.UserID(n)
	}
	x, err := o.features(users)
	if err != nil {
		return 0, err
	}
	return gnn.TapeScore(o.w.tr.model, gnn.NewBatch(sg, x)), nil
}

// check returns nil when the served answer matches the reference of its
// tier. A degraded tier is a failure: the workloads are chosen so that
// no audit has a reason to degrade.
func (o *oracle) check(s served) error {
	var want, tol float64
	switch s.tier {
	case server.TierEmbed:
		full, err := o.fullScores()
		if err != nil {
			return err
		}
		want, tol = full[s.uid], exactTol
	case server.TierFull:
		var err error
		if want, err = o.sampledScore(s.uid); err != nil {
			return err
		}
		tol = exactTol
		if o.w.f32 {
			tol = f32PTol
		}
	default:
		return fmt.Errorf("user %d served by degraded tier %q", s.uid, s.tier)
	}
	if d := math.Abs(s.prob - want); d > tol || math.IsNaN(s.prob) {
		return fmt.Errorf("user %d tier %s: served %.12g, reference %.12g (|Δ| %.3g > %.3g)", s.uid, s.tier, s.prob, want, d, tol)
	}
	return nil
}

// tierSum adds up the audits a /stats served_by map says were answered
// 200: every ladder tier, not the shed/unknown/degraded bookkeeping.
func tierSum(counts map[string]int64) int64 {
	var n int64
	for _, tier := range []string{server.TierEmbed, server.TierFull, server.TierFallback, server.TierCache, server.TierPrior} {
		n += counts[tier]
	}
	return n
}
