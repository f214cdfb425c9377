package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"turbo/internal/autodiff"
	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/resilience"
	"turbo/internal/tensor"
)

// blockingModel parks in Forward until release closes, signalling entered
// on its first call. Wrapping hides the inner model's tape-free paths, so
// every score goes through Forward.
type blockingModel struct {
	gnn.Model
	entered chan struct{}
	release chan struct{}
}

func (m *blockingModel) Forward(t *autodiff.Tape, b *gnn.Batch, rng *tensor.RNG) *autodiff.Node {
	select {
	case m.entered <- struct{}{}:
	default:
	}
	<-m.release
	return m.Model.Forward(t, b, rng)
}

// auditDuringOutage audits u with every feature fetch failing, so the
// ladder falls to tier 3, then restores src.
func auditDuringOutage(t *testing.T, pred *PredictionServer, src feature.Source, u behavior.UserID) Prediction {
	t.Helper()
	pred.SetFeatureSource(resilience.InjectFeatures(src, resilience.NewInjector(resilience.FaultConfig{ErrorRate: 1})))
	defer pred.SetFeatureSource(src)
	p, err := pred.Predict(u, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSwapRetiresInFlightScore swaps the model while an audit is inside
// the retired model's forward pass: the retired model's score must not
// land in the tier-3 cache the new model serves from.
func TestSwapRetiresInFlightScore(t *testing.T) {
	_, pred := newTestStack(t)
	src := featureSource(pred)
	at := t0.Add(3 * time.Hour)
	retired := &blockingModel{Model: sageModel(1), entered: make(chan struct{}, 1), release: make(chan struct{})}
	pred.SwapModel(retired, nil)

	done := make(chan Prediction, 1)
	go func() {
		p, err := pred.Predict(1, at)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	<-retired.entered
	pred.SwapModel(sageModel(2), nil)
	close(retired.release)
	if p := <-done; p.ServedBy != TierFull {
		t.Fatalf("in-flight audit served by %q, want %q", p.ServedBy, TierFull)
	}

	if p := auditDuringOutage(t, pred, src, 1); p.ServedBy != TierPrior {
		t.Fatalf("outage audit served by %q (%v), want %q: the retired model's score reached the new cache", p.ServedBy, p.Probability, TierPrior)
	}
	// The new model's own score does reach it.
	live, err := pred.Predict(1, at)
	if err != nil {
		t.Fatal(err)
	}
	if p := auditDuringOutage(t, pred, src, 1); p.ServedBy != TierCache || p.Probability != live.Probability {
		t.Fatalf("outage audit %q %v, want %q %v", p.ServedBy, p.Probability, TierCache, live.Probability)
	}
}

// TestSwapScoresF64UntilGateVerdict blocks the float32 gate on a
// swapped-in model: an audit made while the gate runs must score the new
// model in float64, bitwise, and float32 only after the gate passed.
func TestSwapScoresF64UntilGateVerdict(t *testing.T) {
	bnServer, pred := newTestStack(t)
	at := t0.Add(3 * time.Hour)
	next := sageModel(2)
	entered, release := make(chan struct{}), make(chan struct{})
	if _, ok := pred.ConfigureF32(func(m gnn.Model) (float64, bool) {
		if m == next {
			close(entered)
			<-release
		}
		return 0, true
	}); !ok {
		t.Fatal("gate refused the live model")
	}

	// Reference scores of the next model over the audit's own sample.
	sg, err := bnServer.SampleConeCtx(context.Background(), 1, gnn.Depth(next))
	if err != nil {
		t.Fatal(err)
	}
	var x *tensor.Matrix
	for i, node := range sg.Nodes {
		vec, err := featureSource(pred).(*feature.Service).VectorCtx(context.Background(), behavior.UserID(node), at)
		if err != nil {
			t.Fatal(err)
		}
		if x == nil {
			x = tensor.New(sg.NumNodes(), len(vec))
		}
		copy(x.Row(i), vec)
	}
	want64 := gnn.Score(next, gnn.NewBatch(sg, x))
	want32, ok := gnn.Score32(next, gnn.NewBatch(sg, x))
	if !ok || want32 == want64 {
		t.Fatalf("f32 score %v (ok=%v) indistinguishable from f64 %v", want32, ok, want64)
	}

	swapped := make(chan struct{})
	go func() {
		pred.SwapModel(next, nil)
		close(swapped)
	}()
	<-entered
	during, err := pred.Predict(1, at)
	close(release)
	<-swapped
	if err != nil {
		t.Fatal(err)
	}
	if during.Probability != want64 {
		t.Fatalf("audit during the gate scored %v, want the new model's f64 score %v (f32 is %v)", during.Probability, want64, want32)
	}
	after, err := pred.Predict(1, at)
	if err != nil {
		t.Fatal(err)
	}
	if after.Probability != want32 {
		t.Fatalf("audit after the gate passed scored %v, want the f32 score %v", after.Probability, want32)
	}
}

// TestConcurrentAuditsAndSwaps audits from several goroutines while the
// test swaps models, pins versions and re-installs the feature source;
// run it under -race. Afterwards every score in the serving cache is the
// serving model's own: bitwise a fresh audit's.
func TestConcurrentAuditsAndSwaps(t *testing.T) {
	_, pred := newTestStack(t)
	src := featureSource(pred)
	at := t0.Add(3 * time.Hour)
	const auditors = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var audits atomic.Int64
	for r := 0; r < auditors; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pred.Predict(behavior.UserID(1+(i+r)%3), at); err != nil {
					t.Error(err)
					return
				}
				audits.Add(1)
			}
		}(r)
	}
	for v := 1; v <= 20; v++ {
		pred.SwapModel(sageModel(uint64(v)), nil)
		pred.SetModelVersion(100 + v)
		pred.SetFeatureSource(src)
	}
	// At most one audit per auditor straddles the last publish, so
	// 2·auditors more completions include audits of the final state.
	for n := audits.Load(); audits.Load() < n+2*auditors && !t.Failed(); {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	cached := cachedScores(pred)
	if len(cached) == 0 {
		t.Fatal("no audit reached the final serving cache")
	}
	for u, s := range cached {
		p, err := pred.Predict(u, at)
		if err != nil {
			t.Fatal(err)
		}
		if p.Probability != s {
			t.Fatalf("user %d: cached %v, serving model scores %v", u, s, p.Probability)
		}
	}
}

// TestScoreCacheRepeatWriteAllocFree pins the tier-3 write of a repeat
// audit — every served audit makes one — to zero allocations.
func TestScoreCacheRepeatWriteAllocFree(t *testing.T) {
	c := new(scoreCache)
	u := behavior.UserID(1 << 20) // above the runtime's preboxed small integers
	c.store(u, 0.25)
	prob := 0.5
	if n := testing.AllocsPerRun(100, func() {
		prob += 1e-3
		c.store(u, prob)
	}); n != 0 {
		t.Fatalf("repeat tier-3 write allocates %v times", n)
	}
	if got, ok := c.load(u); !ok || got != prob {
		t.Fatalf("load = %v, %v; want %v", got, ok, prob)
	}
}
