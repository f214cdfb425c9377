package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/resilience"
	"turbo/internal/tensor"
)

// fakeClock drives breaker cool-downs without real sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: t0} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// constFallback is a tier-2 stand-in scoring every row the same.
type constFallback float64

func (c constFallback) PredictProba(x *tensor.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = float64(c)
	}
	return out
}

// chaosStack is newTestStack plus a feature-path fault injector, a
// breaker on a fake clock, and a fallback model.
type chaosStack struct {
	bn    *BNServer
	pred  *PredictionServer
	inj   *resilience.Injector
	clock *fakeClock
}

func newChaosStack(t *testing.T, faults resilience.FaultConfig, threshold int) *chaosStack {
	t.Helper()
	bnServer, pred := newTestStack(t)
	clock := newFakeClock()
	inj := resilience.NewInjector(faults)
	pred.Tel.WireInjector(inj)
	pred.SetFeatureSource(resilience.InjectFeatures(featureSource(pred), inj))
	pred.Breaker = resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: threshold,
		CoolDown:         time.Minute,
		Clock:            clock.Now,
		OnStateChange:    pred.Tel.BreakerHook(),
	})
	pred.Retry = resilience.RetryConfig{Attempts: 1} // one feature call per fetch: failure counting stays exact
	pred.Fallback = constFallback(0.9)
	return &chaosStack{bn: bnServer, pred: pred, inj: inj, clock: clock}
}

// featureSource digs the real service back out of a fresh test stack so
// the injector can wrap it.
func featureSource(p *PredictionServer) feature.Source { return p.Serving().Feats }

// TestChaosNoFaultsIdenticalToFullPath asserts the resilience machinery
// is invisible when healthy: PredictCtx with breaker, retry, admission
// and generous deadlines produces exactly the score of a hand-run
// sample → features → HAG pipeline.
func TestChaosNoFaultsIdenticalToFullPath(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{}, 3)
	cs.pred.Admission = resilience.NewAdmission(8)
	cs.pred.Deadlines = StageDeadlines{Sample: time.Minute, Feature: time.Minute, Total: time.Minute}
	at := t0.Add(3 * time.Hour)

	p, err := cs.pred.PredictCtx(context.Background(), 1, at)
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy != TierFull || p.Degraded {
		t.Fatalf("healthy path degraded: served_by=%q degraded=%v", p.ServedBy, p.Degraded)
	}

	// Hand-run the pre-resilience pipeline on the same stack.
	sg := cs.bn.Sample(1)
	x := tensor.New(sg.NumNodes(), 0)
	users := make([]behavior.UserID, sg.NumNodes())
	for i, node := range sg.Nodes {
		users[i] = behavior.UserID(node)
	}
	vecs, errs := feature.FetchVectors(context.Background(), featureSource(cs.pred), users, at, nil)
	for i, vec := range vecs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if x.Cols == 0 {
			x = tensor.New(sg.NumNodes(), len(vec))
		}
		copy(x.Row(i), vec)
	}
	want := gnn.Score(cs.pred.Serving().Model, gnn.NewBatch(sg, x))
	if p.Probability != want {
		t.Fatalf("probability %v != hand-run full path %v", p.Probability, want)
	}
	if got := cs.pred.ServedCounts()[TierFull]; got < 1 {
		t.Fatalf("tier counter not bumped: %d", got)
	}
}

// TestChaosTotalFeatureOutage is the acceptance scenario: with a 100%
// feature-service error rate every audit still answers, served by a
// degraded tier, and the breaker opens after the configured threshold
// and half-opens after the cool-down.
func TestChaosTotalFeatureOutage(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{ErrorRate: 1, Seed: 11}, 3)

	// Warm the score cache for user 1 before the outage.
	cs.inj.SetConfig(resilience.FaultConfig{})
	warm, err := cs.pred.PredictCtx(context.Background(), 1, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cs.inj.SetConfig(resilience.FaultConfig{ErrorRate: 1, Seed: 11})

	// Every audit during the outage answers from a degraded tier.
	for i := 0; i < 10; i++ {
		for _, u := range []behavior.UserID{1, 2, 3} {
			p, err := cs.pred.PredictCtx(context.Background(), u, t0.Add(3*time.Hour))
			if err != nil {
				t.Fatalf("audit %d/user %d errored during outage: %v", i, u, err)
			}
			if !p.Degraded {
				t.Fatalf("audit %d/user %d not degraded: %+v", i, u, p)
			}
			switch p.ServedBy {
			case TierFallback, TierCache, TierPrior:
			default:
				t.Fatalf("unexpected tier %q", p.ServedBy)
			}
			if u == 1 && p.ServedBy == TierCache && p.Probability != warm.Probability {
				t.Fatalf("cached score %v != last-known %v", p.Probability, warm.Probability)
			}
			if p.ServedBy == TierPrior && p.Probability != cs.pred.Prior {
				t.Fatalf("prior tier served %v, want %v", p.Probability, cs.pred.Prior)
			}
		}
	}

	// User 1 was scored pre-outage: tier 3 must serve the cached score.
	p, err := cs.pred.PredictCtx(context.Background(), 1, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy != TierCache {
		t.Fatalf("warm user served by %q, want %q", p.ServedBy, TierCache)
	}

	// The faults were genuinely injected — not silently skipped by an
	// open breaker or a mis-wired injector: the injector's own counters
	// moved, and the registry mirror agrees exactly.
	errsInjected, _, _ := cs.inj.Counts()
	if errsInjected < 3 {
		t.Fatalf("injected errors %d, want >= breaker threshold 3", errsInjected)
	}
	exposition := scrapeMetrics(t, cs.pred.Tel)
	wantLine := fmt.Sprintf("turbo_faults_injected_total{kind=%q} %d", "error", errsInjected)
	if !strings.Contains(exposition, wantLine) {
		t.Fatalf("registry fault counter does not match injector: want line %q in:\n%s", wantLine, exposition)
	}

	// The breaker opened after the threshold…
	if st := cs.pred.Breaker.State(); st != resilience.StateOpen {
		t.Fatalf("breaker state %v after sustained outage, want open", st)
	}
	trips := cs.pred.Breaker.Trips()
	if trips < 1 {
		t.Fatalf("trips %d want >= 1", trips)
	}

	// …and half-opens after the cool-down: the next audit's probe is
	// admitted, fails (outage persists), and re-trips the breaker.
	cs.clock.Advance(2 * time.Minute)
	if _, err := cs.pred.PredictCtx(context.Background(), 2, t0.Add(3*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := cs.pred.Breaker.Trips(); got != trips+1 {
		t.Fatalf("breaker did not half-open and re-trip after cool-down: trips %d want %d", got, trips+1)
	}

	// Recovery: faults off, cool-down elapses, the probe succeeds, the
	// breaker closes, and audits return to the full HAG tier.
	cs.inj.SetConfig(resilience.FaultConfig{})
	cs.clock.Advance(2 * time.Minute)
	p, err = cs.pred.PredictCtx(context.Background(), 1, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy != TierFull {
		t.Fatalf("recovered audit served by %q, want %q", p.ServedBy, TierFull)
	}
	if st := cs.pred.Breaker.State(); st != resilience.StateClosed {
		t.Fatalf("breaker state %v after recovery, want closed", st)
	}
	if p.Probability != warm.Probability {
		t.Fatalf("recovered score %v != pre-outage score %v", p.Probability, warm.Probability)
	}
}

// TestChaosSamplingHangFallsBackToFeatureModel hangs the sampling stage
// and asserts the audit degrades to the feature-only tier within the
// sampling deadline instead of blocking, with the hang on its trace.
func TestChaosSamplingHangFallsBackToFeatureModel(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{}, 100)
	sampleInj := resilience.NewInjector(resilience.FaultConfig{HangRate: 1, Hang: 500 * time.Millisecond, Seed: 5})
	cs.bn.SetSampleFault(sampleInj.Fault)
	cs.pred.Deadlines = StageDeadlines{Sample: 20 * time.Millisecond}

	start := time.Now()
	p, err := cs.pred.PredictCtx(context.Background(), 1, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy != TierFallback || !p.Degraded {
		t.Fatalf("hung sampling served by %q (degraded=%v), want %q", p.ServedBy, p.Degraded, TierFallback)
	}
	if float64(p.Probability) != 0.9 {
		t.Fatalf("fallback probability %v want 0.9", p.Probability)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("audit waited out the hang (%v) instead of degrading at the deadline", elapsed)
	}
	last := cs.pred.Tel.Tracer.Ring().Last(1)
	if len(last) != 1 || last[0].Faults()["hang"] != 1 || last[0].ServedBy() != TierFallback {
		t.Fatalf("the audit's trace does not record the injected hang: %+v", last)
	}
}

// TestChaosFeatureDelayDegradesFanOutOnly gives every feature row a
// latency that blows the multi-node fan-out budget while a single row
// still fits: the audit must land on the feature-only tier, proving the
// ladder degrades one rung at a time rather than falling straight to
// static.
func TestChaosFeatureDelayDegradesFanOutOnly(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{}, 100)
	cs.pred.Breaker = nil // isolate the deadline behavior
	// The §V cold path pays its simulated database round trip per row,
	// so the fan-out's cost grows with the subgraph (2 rows > budget >
	// 1 row), where an injected fault costs the same once per gather.
	cold := feature.NewService(feature.Config{DisableCache: true, DBLatency: 100 * time.Millisecond}, cs.bn.Store())
	for u := behavior.UserID(1); u <= 3; u++ {
		if err := cold.PutProfile(u, []float64{float64(u), 1}); err != nil {
			t.Fatal(err)
		}
	}
	cs.pred.SetFeatureSource(cold)
	cs.pred.Deadlines = StageDeadlines{Feature: 150 * time.Millisecond}

	// User 1's subgraph has 2 nodes: the fan-out needs ~200ms > 150ms,
	// one fallback fetch needs ~100ms < 150ms.
	p, err := cs.pred.PredictCtx(context.Background(), 1, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy != TierFallback {
		t.Fatalf("served by %q, want %q", p.ServedBy, TierFallback)
	}
}

// TestChaosAdmissionSheds caps in-flight audits at 1, parks one audit in
// a slow feature fetch, and asserts the concurrent audit is shed with
// ErrOverloaded instead of queueing.
func TestChaosAdmissionSheds(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{Delay: 300 * time.Millisecond, Seed: 9}, 100)
	cs.pred.Admission = resilience.NewAdmission(1)

	done := make(chan error, 1)
	go func() {
		_, err := cs.pred.PredictCtx(context.Background(), 1, t0.Add(3*time.Hour))
		done <- err
	}()
	// Wait until the first audit holds the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for cs.pred.Admission.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first audit never entered")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := cs.pred.PredictCtx(context.Background(), 2, t0.Add(3*time.Hour))
	if !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("concurrent audit not shed: %v", err)
	}
	if got := cs.pred.ServedCounts()["shed"]; got != 1 {
		t.Fatalf("shed counter %d want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted audit failed: %v", err)
	}
	// The slot is free again.
	if _, err := cs.pred.PredictCtx(context.Background(), 2, t0.Add(3*time.Hour)); err != nil {
		t.Fatalf("audit after release failed: %v", err)
	}
}

// TestChaosUnknownUserStays404 asserts degraded tiers never mask a user
// that does not exist: with a healthy feature path, auditing an unknown
// uid errors with ErrUnknownUser even though fallback tiers are armed.
func TestChaosUnknownUserStays404(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{}, 3)
	cs.bn.RegisterTransaction(999) // transaction but no stored profile
	_, err := cs.pred.PredictCtx(context.Background(), 999, t0.Add(3*time.Hour))
	if !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("want ErrUnknownUser, got %v", err)
	}
}

// TestChaosCallerDeadline asserts a caller-supplied context deadline
// degrades the audit rather than erroring.
func TestChaosCallerDeadline(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{Delay: 200 * time.Millisecond, Seed: 2}, 100)
	cs.pred.Breaker = nil
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	p, err := cs.pred.PredictCtx(ctx, 1, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Degraded {
		t.Fatalf("expired caller deadline served undegraded: %+v", p)
	}
	if p.ServedBy != TierPrior && p.ServedBy != TierCache {
		t.Fatalf("served by %q, want a static tier (caller budget already spent)", p.ServedBy)
	}
}
