package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/lifecycle"
	"turbo/internal/persist"
)

func testDim() int { return 2 + feature.NumStatFeatures() }

func sageModel(seed uint64) gnn.Model {
	return gnn.NewGraphSAGE(gnn.Config{InDim: testDim(), Hidden: []int{4}, MLPHidden: 2, Seed: seed})
}

// holdoutReturning builds a HoldoutFunc reporting fixed metrics.
func holdoutReturning(auc float64) HoldoutFunc {
	return func(gnn.Model, func([]float64) []float64) (*lifecycle.HoldoutReport, error) {
		return &lifecycle.HoldoutReport{Size: 100, AUC: auc, RecallAtPrecision: 1, PrecisionFloor: 0.8}, nil
	}
}

// TestGatedRetrainRejectQuarantines drives a degenerate candidate
// through the gate: the live model must keep serving bitwise-identical
// scores, the candidate must persist as a quarantined artifact with its
// reasons, no resweep fires, and a restart never auto-loads it.
func TestGatedRetrainRejectQuarantines(t *testing.T) {
	_, pred := newTestStack(t)
	store, err := persist.NewModelStore(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	live := pred.Serving().Model
	if _, err := store.Save(live, persist.Extras{}); err != nil { // v1: the serving model
		t.Fatal(err)
	}

	mgr := NewModelManager(pred, func() (gnn.Model, func([]float64) []float64, error) {
		return sageModel(999), nil, nil // the "poisoned" retrain
	})
	mgr.SetArtifacts(store, nil)
	mgr.SetCurrentVersion(1)
	resweeps := 0
	mgr.SetResweep(func() { resweeps++ })
	mgr.EnableGate(GateOptions{
		Gate:    lifecycle.GateConfig{MinAUC: 0.8},
		Holdout: holdoutReturning(0.5012), // label-shuffled candidate: chance AUC
		Logf:    t.Logf,
	})

	before, err := pred.Predict(1, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.RetrainOnceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || !rep.Gated || rep.Verdict == nil || rep.Verdict.Accepted {
		t.Fatalf("degenerate candidate passed the gate: %+v", rep)
	}
	if len(rep.Verdict.Reasons) == 0 {
		t.Fatal("rejection carries no reasons")
	}
	if rep.Version != 2 {
		t.Fatalf("quarantined artifact version %d, want 2", rep.Version)
	}
	after, err := pred.Predict(1, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if before.Probability != after.Probability { // bitwise, not within-epsilon
		t.Fatalf("live scoring changed across a rejected candidate: %v != %v", before.Probability, after.Probability)
	}
	if resweeps != 0 {
		t.Fatalf("rejected candidate triggered %d resweeps, want 0", resweeps)
	}

	mans := store.List()
	if len(mans) != 2 || mans[1].Status != persist.StatusQuarantined || len(mans[1].Reasons) == 0 {
		t.Fatalf("quarantine lineage %+v", mans)
	}
	lm, err := store.LoadLatest() // a restart must boot the accepted v1
	if err != nil {
		t.Fatal(err)
	}
	if lm.Manifest.Version != 1 {
		t.Fatalf("boot after quarantine loaded v%d, want v1", lm.Manifest.Version)
	}

	ls := mgr.Lifecycle()
	if ls.Quarantined != 1 || ls.Retrains != 0 || !ls.GateEnabled {
		t.Fatalf("lifecycle status %+v", ls)
	}
	// The legacy error-returning entry point maps rejection to a typed error.
	if err := mgr.RetrainOnce(); !errors.Is(err, ErrCandidateRejected) {
		t.Fatalf("RetrainOnce err %v, want ErrCandidateRejected", err)
	}
}

// TestGatedRetrainAcceptSwaps verifies the accept path: swap, persist as
// accepted, resweep, and report the verdict.
func TestGatedRetrainAcceptSwaps(t *testing.T) {
	_, pred := newTestStack(t)
	store, err := persist.NewModelStore(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewModelManager(pred, func() (gnn.Model, func([]float64) []float64, error) {
		return sageModel(7), nil, nil
	})
	mgr.SetArtifacts(store, nil)
	resweeps := 0
	mgr.SetResweep(func() { resweeps++ })
	mgr.EnableGate(GateOptions{
		Gate:    lifecycle.GateConfig{MinAUC: 0.8, MinRecallAtPrecision: 0.5, PrecisionFloor: 0.8},
		Holdout: holdoutReturning(0.93),
		Logf:    t.Logf,
	})
	before, _ := pred.Predict(1, t0.Add(time.Hour))
	rep, err := mgr.RetrainOnceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || !rep.Gated || rep.Verdict == nil || !rep.Verdict.Accepted || rep.Version != 1 {
		t.Fatalf("accept report %+v", rep)
	}
	after, _ := pred.Predict(1, t0.Add(time.Hour))
	if before.Probability == after.Probability {
		t.Fatal("accepted candidate did not swap in")
	}
	if resweeps != 1 {
		t.Fatalf("resweeps %d want 1", resweeps)
	}
	if mans := store.List(); len(mans) != 1 || !mans[0].Loadable() {
		t.Fatalf("accepted lineage %+v", mans)
	}
}

// TestGatedRetrainCohortShadow exercises the sweep-engine shadow pair: a
// candidate identical to the live model sails through a tight
// distribution gate, while a differently-seeded one trips the
// disagreement/shift bounds.
func TestGatedRetrainCohortShadow(t *testing.T) {
	bnServer, pred := newTestStack(t)
	eng := NewSweepEngine(bnServer, pred)
	live := pred.Serving().Model

	mkMgr := func(cand gnn.Model, gate lifecycle.GateConfig) *ModelManager {
		mgr := NewModelManager(pred, func() (gnn.Model, func([]float64) []float64, error) {
			return cand, nil, nil
		})
		mgr.EnableGate(GateOptions{Gate: gate, Engine: eng, Logf: t.Logf})
		return mgr
	}

	// Same weights → zero disagreement, zero shift.
	rep, err := mkMgr(live, lifecycle.GateConfig{MaxPSI: 0.05, MaxKS: 0.05, MaxDisagreement: 0.01, RequireCohort: true}).
		RetrainOnceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || rep.Verdict.Report.Cohort == nil {
		t.Fatalf("identical candidate rejected: %+v reasons=%v", rep, rep.Verdict.Reasons)
	}
	if d := rep.Verdict.Report.Cohort.Disagreement; d != 0 {
		t.Fatalf("identical candidate disagreement %v, want 0", d)
	}

	// A fresh random model: force rejection with an impossibly tight KS
	// bound (any weight change moves some scores).
	rep, err = mkMgr(sageModel(424242), lifecycle.GateConfig{MaxKS: 1e-12, RequireCohort: true}).
		RetrainOnceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatalf("shifted candidate passed a 1e-12 KS gate: %+v", rep.Verdict.Report.Cohort)
	}
}

// TestAutoRollbackOnErrorRate forces a bad swap and drives failing
// audits through the prediction server until the monitor reinstalls the
// previous accepted artifact — bitwise — and marks the bad version
// rolled_back on disk.
func TestAutoRollbackOnErrorRate(t *testing.T) {
	_, pred := newTestStack(t)
	store, err := persist.NewModelStore(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	live := pred.Serving().Model
	if _, err := store.Save(live, persist.Extras{}); err != nil { // v1 = known-good
		t.Fatal(err)
	}
	before, err := pred.Predict(1, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	mgr := NewModelManager(pred, func() (gnn.Model, func([]float64) []float64, error) {
		return sageModel(666), nil, nil // the bad model
	})
	mgr.SetArtifacts(store, nil)
	mgr.SetCurrentVersion(1)
	mgr.SetNormBuilder(func(mean, std []float64) func([]float64) []float64 {
		return func(v []float64) []float64 { return v }
	})
	mgr.EnableGate(GateOptions{
		// No gate bounds: the bad swap goes through; only the monitor
		// stands between it and production.
		Monitor: lifecycle.MonitorConfig{
			Window:       5 * time.Second,
			Interval:     20 * time.Millisecond,
			MinAudits:    5,
			MaxErrorRate: 0.5,
		},
		Logf: t.Logf,
	})

	rep, err := mgr.RetrainOnceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || !rep.Monitoring || rep.Version != 2 {
		t.Fatalf("bad swap report %+v", rep)
	}
	mon := mgr.Monitor()
	if mon == nil {
		t.Fatal("no monitor after accepted swap")
	}

	// Post-swap traffic: audits for an unregistered user fail, driving
	// the error rate to 1.0 — far past the 0.5 ceiling. Keep the traffic
	// flowing until the monitor reacts (its baseline is captured
	// asynchronously after the swap).
	deadline := time.After(10 * time.Second)
traffic:
	for {
		select {
		case <-mon.Done():
			break traffic
		case <-deadline:
			t.Fatal("monitor did not finish")
		default:
			_, _ = pred.Predict(9999, t0.Add(time.Hour))
			time.Sleep(time.Millisecond)
		}
	}
	res := mon.Result()
	if !res.RolledBack || !strings.Contains(res.Reason, "error rate") {
		t.Fatalf("monitor result %+v", res)
	}

	after, err := pred.Predict(1, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if before.Probability != after.Probability { // bitwise reload of v1
		t.Fatalf("rollback did not restore v1 scoring: %v != %v", before.Probability, after.Probability)
	}
	ls := mgr.Lifecycle()
	if ls.Rollbacks != 1 || ls.CurrentVersion != 1 || ls.Monitoring {
		t.Fatalf("lifecycle after rollback %+v", ls)
	}
	mans := store.List()
	if len(mans) != 2 || mans[1].Status != persist.StatusRolledBack {
		t.Fatalf("rolled-back lineage %+v", mans)
	}
	if lm, err := store.LoadLatest(); err != nil || lm.Manifest.Version != 1 {
		t.Fatalf("boot after rollback: v%d err=%v, want v1", lm.Manifest.Version, err)
	}
}

// TestRollbackWithoutHistoryFails ensures a manual rollback with no
// previous accepted model is a typed failure, not a nil-model swap.
func TestRollbackWithoutHistoryFails(t *testing.T) {
	_, pred := newTestStack(t)
	mgr := NewModelManager(pred, nil)
	if err := mgr.Rollback("operator test"); err == nil {
		t.Fatal("rollback with no history must fail")
	}
}

// TestRetrainDuringSweepChaos races gated retrains (shadow-scoring
// through the sweep engine), full-graph sweeps, and live audits. Run
// under -race; the invariant is simply no data race and no panic.
func TestRetrainDuringSweepChaos(t *testing.T) {
	bnServer, pred := newTestStack(t)
	eng := NewSweepEngine(bnServer, pred)
	mgr := NewModelManager(pred, func() (gnn.Model, func([]float64) []float64, error) {
		return sageModel(uint64(time.Now().UnixNano())), nil, nil
	})
	mgr.EnableGate(GateOptions{
		Gate:   lifecycle.GateConfig{MaxKS: 0.9, RequireCohort: true},
		Engine: eng,
		Logf:   func(string, ...any) {},
	})
	mgr.SetResweep(func() { _, _ = eng.RunOnce(context.Background()) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = eng.RunOnce(context.Background())
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = pred.Predict(1, t0.Add(time.Hour))
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := mgr.RetrainOnceCtx(context.Background()); err != nil {
			t.Errorf("retrain %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestHTTPBodyLimit asserts oversized POST bodies are refused with 413
// before the JSON decoder sees them.
func TestHTTPBodyLimit(t *testing.T) {
	api := newTestAPI(t)
	api.MaxBodyBytes = 128
	srv := httptest.NewServer(api)
	defer srv.Close()

	big := `{"logs":[` + strings.Repeat(`{"user":1,"type":0,"object":"x","time":"2024-01-01T00:00:00Z"},`, 100)
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d want 413 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Fatalf("413 body %q does not name the limit", body)
	}

	// A request inside the limit still works.
	small := `{"logs":[]}`
	resp, err = http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small ingest: status %d want 202", resp.StatusCode)
	}
}

// TestHTTPRetrainContextCancellation verifies a disconnected client
// unblocks /admin/retrain immediately: the handler returns while the
// training function is still running, and the hook observes the
// cancelled context.
func TestHTTPRetrainContextCancellation(t *testing.T) {
	api := newTestAPI(t)
	started := make(chan struct{})
	observed := make(chan error, 1)
	release := make(chan struct{})
	api.Admin.Retrain = func(ctx context.Context) (RetrainReport, error) {
		close(started)
		select {
		case <-ctx.Done():
			observed <- ctx.Err()
		case <-time.After(10 * time.Second):
			observed <- nil
		}
		<-release
		return RetrainReport{}, fmt.Errorf("cancelled")
	}
	srv := httptest.NewServer(api)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/admin/retrain", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, rerr := http.DefaultClient.Do(req)
		if rerr == nil {
			resp.Body.Close()
		}
		errc <- rerr
	}()
	<-started
	cancel() // client walks away mid-train

	select {
	case rerr := <-errc:
		if rerr == nil {
			t.Fatal("cancelled request returned a response")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not unblock on client disconnect")
	}
	select {
	case cerr := <-observed:
		if cerr == nil {
			t.Fatal("hook never observed the cancelled context")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hook did not observe cancellation")
	}
	close(release)
}

// TestHTTPAdminRollbackAndModels exercises the manual-control endpoints:
// rollback verdicts, the 409 when there is no history, and the lineage
// listing.
func TestHTTPAdminRollbackAndModels(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	// Unconfigured: 503 / 503; wrong method on rollback: 405.
	resp, err := http.Post(srv.URL+"/admin/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unconfigured rollback: %d want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/admin/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unconfigured models: %d want 503", resp.StatusCode)
	}

	var gotReason string
	rollbackErr := error(nil)
	api.Admin.Rollback = func(reason string) error { gotReason = reason; return rollbackErr }
	api.Admin.Models = func() []persist.Manifest {
		return []persist.Manifest{
			{Version: 1, Kind: "hag", Status: persist.StatusAccepted},
			{Version: 2, Kind: "hag", Status: persist.StatusQuarantined, Reasons: []string{"holdout AUC 0.50 below floor"}},
		}
	}
	api.Admin.Lifecycle = func() LifecycleStatus { return LifecycleStatus{GateEnabled: true, Quarantined: 1} }

	resp, err = http.Get(srv.URL + "/admin/rollback")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET rollback: %d want 405", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/admin/rollback?reason=canary+regressed", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rb map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rb["rolled_back"] != true {
		t.Fatalf("rollback response %d %+v", resp.StatusCode, rb)
	}
	if gotReason != "canary regressed" {
		t.Fatalf("reason %q", gotReason)
	}
	if _, ok := rb["lifecycle"]; !ok {
		t.Fatal("rollback response missing lifecycle status")
	}

	rollbackErr = errors.New("no previous accepted model")
	resp, err = http.Post(srv.URL+"/admin/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("exhausted rollback: %d want 409", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/admin/models")
	if err != nil {
		t.Fatal(err)
	}
	var ml struct {
		Count     int                `json:"count"`
		Models    []persist.Manifest `json:"models"`
		Lifecycle *LifecycleStatus   `json:"lifecycle"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ml); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ml.Count != 2 || len(ml.Models) != 2 {
		t.Fatalf("models response %d %+v", resp.StatusCode, ml)
	}
	if ml.Models[1].Status != persist.StatusQuarantined || len(ml.Models[1].Reasons) != 1 {
		t.Fatalf("quarantined entry %+v", ml.Models[1])
	}
	if ml.Lifecycle == nil || !ml.Lifecycle.GateEnabled {
		t.Fatalf("lifecycle section %+v", ml.Lifecycle)
	}
}
