package eval

import (
	"fmt"
	"strings"
	"time"

	"turbo/internal/core"
	"turbo/internal/datagen"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/telemetry"
	"turbo/internal/tensor"
)

// LatencyStudy is the §V optimization experiment: the same audit
// workload served by a cold pipeline (every request recomputes X_s with
// simulated database round-trips) versus the cached pipeline (in-memory
// store with TTL). The paper's production numbers dropped from a 6.8 s
// mean to 0.8 s; the shape to reproduce is roughly an order of magnitude.
type LatencyStudy struct {
	Cold map[string]telemetry.Summary
	Warm map[string]telemetry.Summary
}

// String renders both pipelines' digests.
func (s LatencyStudy) String() string {
	var b strings.Builder
	b.WriteString("§V latency optimization — cold (DB scans) vs cached (in-memory)\n")
	for _, mode := range []struct {
		name string
		sums map[string]telemetry.Summary
	}{{"cold", s.Cold}, {"warm", s.Warm}} {
		for _, key := range []string{"sampling", "features", "predict", "total"} {
			fmt.Fprintf(&b, "%-5s %-9s %v\n", mode.name, key, sums(mode.sums, key))
		}
	}
	return b.String()
}

func sums(m map[string]telemetry.Summary, key string) telemetry.Summary {
	if m == nil {
		return telemetry.Summary{}
	}
	return m[key]
}

// LatencyOptions tunes the study.
type LatencyOptions struct {
	// Requests is the number of audits per pipeline; 0 selects 200.
	Requests int
	// DBLatency simulates one local-database round trip on cold feature
	// computations; 0 selects 2 ms.
	DBLatency time.Duration
	// Hyper configures the model used for prediction.
	Hyper Hyper
	Seed  uint64
}

// RunLatencyStudy trains HAG on the dataset and serves the same audit
// stream through a cold and a cached core.System.
func RunLatencyStudy(cfg datagen.Config, opts LatencyOptions) LatencyStudy {
	if opts.Requests == 0 {
		opts.Requests = 200
	}
	if opts.DBLatency == 0 {
		opts.DBLatency = 2 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	h := opts.Hyper.withDefaults()
	a := Assemble(cfg, AssembleOptions{SplitSeed: opts.Seed})
	model, _ := TrainHAG(a, HAGFull, h, opts.Seed)

	run := func(fc feature.Config) map[string]telemetry.Summary {
		sys := buildSystem(a, model, fc)
		rng := tensor.NewRNG(opts.Seed)
		users := a.Data.Users
		for k := 0; k < opts.Requests; k++ {
			u := &users[rng.Intn(len(users))]
			if _, err := sys.Audit(u.ID, u.AppTime.Add(24*time.Hour)); err != nil {
				panic(err)
			}
		}
		return sys.PredictionServer().LatencySummaries()
	}

	return LatencyStudy{
		Cold: run(feature.Config{DisableCache: true, DBLatency: opts.DBLatency}),
		Warm: run(feature.Config{DBLatency: opts.DBLatency}),
	}
}

// buildSystem loads an assembled dataset into a fresh core.System with
// the trained model attached.
func buildSystem(a *Assembled, model gnn.Model, fc feature.Config) *core.System {
	sys, err := core.New(core.Config{Feature: fc, Threshold: 0.85}, a.Data.Start)
	if err != nil {
		panic(err)
	}
	sys.SetModel(model, a.Norm.Apply)
	sys.IngestBatch(a.Data.Logs)
	for i := range a.Data.Users {
		u := &a.Data.Users[i]
		if err := sys.RegisterApplication(u.ID, u.Features()); err != nil {
			panic(err)
		}
	}
	sys.Advance(a.Data.End.Add(48 * time.Hour))
	return sys
}

// ModuleLatencySeries is Fig. 8a: per-request latency of the three
// online modules over a stream of audit requests.
type ModuleLatencySeries struct {
	Sample  []time.Duration
	Feature []time.Duration
	Predict []time.Duration
	Total   []time.Duration
}

// RunResponseTimeStudy serves n audits through a cached system and
// returns the per-request module latencies (Fig. 8a).
func RunResponseTimeStudy(a *Assembled, model gnn.Model, n int, seed uint64) ModuleLatencySeries {
	sys := buildSystem(a, model, feature.Config{})
	rng := tensor.NewRNG(seed)
	var out ModuleLatencySeries
	for k := 0; k < n; k++ {
		u := &a.Data.Users[rng.Intn(len(a.Data.Users))]
		pred, err := sys.Audit(u.ID, u.AppTime.Add(24*time.Hour))
		if err != nil {
			panic(err)
		}
		out.Sample = append(out.Sample, pred.SampleLatency)
		out.Feature = append(out.Feature, pred.FeatureLatency)
		out.Predict = append(out.Predict, pred.PredictLatency)
		out.Total = append(out.Total, pred.TotalLatency)
	}
	return out
}
