package server

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/resilience"
	"turbo/internal/tensor"
)

// blockingModel parks in InferTarget — the forward every full-path
// audit runs — until release closes, signalling entered on its first
// call.
type blockingModel struct {
	gnn.Model
	entered chan struct{}
	release chan struct{}
}

func (m *blockingModel) InferTarget(f *gnn.Fwd[float64], b *gnn.Batch, node int) float64 {
	select {
	case m.entered <- struct{}{}:
	default:
	}
	<-m.release
	return m.Model.InferTarget(f, b, node)
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
	sg := bnServer.sample(1, gnn.Depth(next))
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

// scaleNorm is a normalizer in the shape of eval.Normalizer.Apply: a
// fresh slice, the input untouched.
func scaleNorm(scale, shift float64) func([]float64) []float64 {
	return func(vec []float64) []float64 {
		out := make([]float64, len(vec))
		for j, v := range vec {
			out[j] = v*scale + shift
		}
		return out
	}
}

// linearFallback scores a row by a logistic of a weighted sum of every
// feature, so its score moves with whatever the normalizer hands it.
type linearFallback struct{}

func (linearFallback) PredictProba(x *tensor.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		z := 0.0
		for j, v := range x.Row(i) {
			z += v * float64(j+1) / 10
		}
		out[i] = 1 / (1 + math.Exp(-z))
	}
	return out
}

// servesLike checks that pred's next full-path audit and fallback audit
// of every user, sweep and embed rebuild score bitwise what a fresh
// PredictionServer built with model and norm scores on a fresh copy of
// the test stack, whose feature table holds no memo.
func servesLike(t *testing.T, pred *PredictionServer, emb *EmbedEngine, sweep *SweepEngine, model gnn.Model, norm func([]float64) []float64) {
	t.Helper()
	refBN, stack := newTestStack(t)
	ref := NewPredictionServer(refBN, featureSource(stack), model, norm, 0.5)
	ref.Fallback = pred.Fallback
	refEmb := NewEmbedEngine(refBN, ref)
	ctx := context.Background()
	// The sweep and the rebuild gather as of now; audits as of now too
	// serve the same table rows, so every step starts on rows memoized
	// under the normalizer it retires.
	at := time.Now()
	same := func(what string, u behavior.UserID, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s of user %d scored %v, a fresh server %v", what, u, got, want)
		}
	}
	for u := behavior.UserID(1); u <= 3; u++ {
		for _, tier := range []struct {
			name  string
			score func(*PredictionServer) (Prediction, error)
		}{
			{"full-path audit", func(p *PredictionServer) (Prediction, error) { return p.predictFull(ctx, p.Serving(), u, at) }},
			{"fallback audit", func(p *PredictionServer) (Prediction, error) { return p.predictFallback(ctx, p.Serving(), u, at) }},
		} {
			got, err := tier.score(pred)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tier.score(ref)
			if err != nil {
				t.Fatal(err)
			}
			same(tier.name, u, got.Probability, want.Probability)
		}
	}
	sameCaches := func(what string) {
		t.Helper()
		got, want := cachedScores(pred), cachedScores(ref)
		if len(got) != len(want) {
			t.Fatalf("%s cached %d scores, a fresh server %d", what, len(got), len(want))
		}
		for u, w := range want {
			same(what, u, got[u], w)
		}
	}
	if _, err := sweep.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSweepEngine(refBN, ref).RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	sameCaches("sweep")
	if _, err := emb.RebuildOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := refEmb.RebuildOnce(ctx); err != nil {
		t.Fatal(err)
	}
	sameCaches("embed rebuild")
}

// TestSwapAndRollbackServeNewNormalizer is the risk of the feature
// table's row memo: rows memoized under one normalizer must not be
// served after SwapModel or ModelManager.Rollback installs another. Each
// step first fills every row's memo under the normalizer it retires.
func TestSwapAndRollbackServeNewNormalizer(t *testing.T) {
	bnServer, stack := newTestStack(t)
	live := stack.Serving().Model
	normA, normB := scaleNorm(0.5, -1), scaleNorm(-3, 2)
	pred := NewPredictionServer(bnServer, featureSource(stack), live, normA, 0.5)
	pred.Fallback = linearFallback{}
	emb, sweep := NewEmbedEngine(bnServer, pred), NewSweepEngine(bnServer, pred)
	servesLike(t, pred, emb, sweep, live, normA)

	pred.SwapModel(live, normB) // the same model: only the normalizer moves
	servesLike(t, pred, emb, sweep, live, normB)

	next := sageModel(2)
	mgr := NewModelManager(pred, func() (gnn.Model, func([]float64) []float64, error) { return next, normA, nil })
	if err := mgr.RetrainOnce(); err != nil {
		t.Fatal(err)
	}
	servesLike(t, pred, emb, sweep, next, normA)
	if err := mgr.Rollback("normalizer swap test"); err != nil {
		t.Fatal(err)
	}
	servesLike(t, pred, emb, sweep, live, normB)
}
