package main

import (
	"context"
	"fmt"
	"time"

	"turbo/internal/baselines"
	"turbo/internal/core"
	"turbo/internal/datagen"
	"turbo/internal/eval"
	"turbo/internal/gnn"
	"turbo/internal/resilience"
	"turbo/internal/server"
	"turbo/internal/tensor"
)

// worldSpec sizes the seeded world every workload runs on.
type worldSpec struct {
	users       int
	days        int
	trainEpochs int
}

// Frozen constants. The 2-hop sample is capped at 32 neighbours per
// type, so 1,000 users over 60 days already give the sample size of a
// 3,000-user world (≈170 nodes / 8k edges) at a third of the set-up
// time, which is what lets 92 runs fit the driver's time cap.
var (
	w1k       = worldSpec{users: 1000, days: 60, trainEpochs: 20}
	smokeSpec = worldSpec{users: 300, days: 20, trainEpochs: 5}
)

const f32Tol = 5e-3 // turbo-server's -infer.f32-tol

// worldSeed draws the world's structure on every run. Ten worlds drawn
// from ten seeds differ by ±13 % in closed-loop audit throughput (a
// handful of public hotspots decide how dense 1,000 users' samples
// are), which is wider than any bound the benchmark could gate with; so
// the data set is fixed, like a YCSB table, and --seed draws what is
// run against it: the model's initialisation, the request schedule and
// churn's ingest stream.
const worldSeed = 1

// trained is the serving model with everything fitted beside it.
type trained struct {
	model    gnn.Model
	norm     func([]float64) []float64
	fallback *baselines.LogisticRegression
	f32Batch *gnn.Batch // validation batch of the f32 gate
	took     time.Duration
}

// train fits HAG-full and the LR fallback on datagen.Tiny() under the
// seed. Accuracy is results_tables.txt's job; the benchmark only needs
// a model of the serving shape.
func train(seed uint64, epochs int) *trained {
	start := time.Now()
	cfg := datagen.Tiny()
	cfg.Seed = seed
	a := eval.Assemble(cfg, eval.AssembleOptions{})
	h := eval.DefaultHyper()
	h.Epochs = epochs
	model, _ := eval.TrainHAG(a, eval.HAGFull, h, seed)

	fbX := tensor.New(len(a.TrainIdx), a.X.Cols)
	fbY := make([]float64, len(a.TrainIdx))
	for i, idx := range a.TrainIdx {
		copy(fbX.Row(i), a.X.Row(idx))
		fbY[i] = a.Labels[idx]
	}
	fb := &baselines.LogisticRegression{Balance: true}
	fb.Fit(fbX, fbY)
	return &trained{model: model, norm: a.Norm.Apply, fallback: fb, f32Batch: a.FullBatch(), took: time.Since(start)}
}

// setupTimes splits one set-up by layer.
type setupTimes struct {
	generate, ingest, register, advance, rebuild time.Duration
	logs                                         int
	jobs                                         int
}

func (t setupTimes) total() time.Duration {
	return t.generate + t.ingest + t.register + t.advance + t.rebuild
}

// world is one loaded system.
type world struct {
	sys   *core.System
	data  *datagen.Dataset
	tr    *trained
	embed *server.EmbedEngine // nil with the tier off
	f32   bool                // the f32 gate passed
}

func (s worldSpec) datagenConfig() datagen.Config {
	cfg := datagen.Tiny()
	cfg.Users = s.users
	cfg.Duration = time.Duration(s.days) * 24 * time.Hour
	cfg.SessionsNormalMin, cfg.SessionsNormalMax = 4, 8
	cfg.SessionsFraudMin, cfg.SessionsFraudMax = 4, 8
	cfg.Seed = worldSeed
	return cfg
}

// buildWorld generates the world and loads it the way turbo-server
// does: IngestBatch → RegisterApplication → Advance, then the serving
// posture of the roadmap's target config (f32 gate on, turbo-server's
// default deadlines, admission, breaker, retry and LR fallback) and,
// with embedTier, one RebuildOnce.
func buildWorld(spec worldSpec, tr *trained, embedTier bool) (*world, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	data := datagen.Generate(spec.datagenConfig())
	t.generate = time.Since(t0)
	t.logs = len(data.Logs)

	sys, err := core.New(core.Config{}, data.Start)
	if err != nil {
		return nil, t, err
	}
	sys.SetModel(tr.model, tr.norm)
	t0 = time.Now()
	sys.IngestBatch(data.Logs)
	t.ingest = time.Since(t0)
	t0 = time.Now()
	for i := range data.Users {
		u := &data.Users[i]
		if err := sys.RegisterApplication(u.ID, u.Features()); err != nil {
			return nil, t, err
		}
	}
	t.register = time.Since(t0)
	t0 = time.Now()
	t.jobs = sys.Advance(data.End.Add(2 * time.Hour))
	t.advance = time.Since(t0)

	pred := sys.PredictionServer()
	pred.Fallback = tr.fallback
	pred.Admission = resilience.NewAdmission(256)
	pred.Breaker = resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 5,
		CoolDown:         10 * time.Second,
		OnStateChange:    sys.Telemetry().BreakerHook(),
	})
	pred.Retry = resilience.RetryConfig{Attempts: 2, BaseDelay: 5 * time.Millisecond, Seed: 1}
	pred.Deadlines = server.StageDeadlines{Sample: 500 * time.Millisecond, Feature: time.Second, Total: 2 * time.Second}
	_, f32 := pred.ConfigureF32(func(m gnn.Model) (float64, bool) {
		if !gnn.CanInfer32(m) {
			return 0, false
		}
		return gnn.ValidateF32(m, tr.f32Batch, f32Tol)
	})

	w := &world{sys: sys, data: data, tr: tr, f32: f32}
	if embedTier {
		w.embed, err = sys.EnableEmbedTier()
		if err != nil {
			return nil, t, err
		}
		t0 = time.Now()
		rep, err := w.embed.RebuildOnce(context.Background())
		t.rebuild = time.Since(t0)
		if err != nil {
			return nil, t, err
		}
		if !rep.Servable || rep.Rows != len(data.Users) {
			return nil, t, fmt.Errorf("embed rebuild: servable=%v rows=%d, want %d", rep.Servable, rep.Rows, len(data.Users))
		}
	}
	return w, t, nil
}

// medianOf reduces replay's rounds, each one set-up, with one field
// selector.
func medianOf(ts []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = float64(f(t))
	}
	return time.Duration(median(v))
}
