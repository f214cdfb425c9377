package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/graph"
	"turbo/internal/telemetry"
)

// ErrInjected is the error produced by fault injection, distinguishable
// from real dependency errors in logs and tests.
var ErrInjected = errors.New("resilience: injected fault")

// FaultConfig describes the faults an Injector produces. Rates are
// probabilities in [0, 1]; all rolls come from one seeded RNG so a given
// seed yields the same fault sequence on every run.
type FaultConfig struct {
	// ErrorRate is the probability a call fails with ErrInjected.
	ErrorRate float64
	// Delay is added latency; it applies with probability DelayRate
	// (DelayRate 0 with Delay > 0 means every call).
	Delay     time.Duration
	DelayRate float64
	// HangRate is the probability a call blocks for Hang (default 30 s)
	// — the "stuck dependency" case deadlines must cut short.
	HangRate float64
	Hang     time.Duration
	// Seed drives the RNG. 0 selects 1.
	Seed uint64
}

// Injector produces deterministic faults. A nil *Injector injects
// nothing, so wrappers can hold one unconditionally.
type Injector struct {
	mu  sync.Mutex
	cfg FaultConfig
	rng *rand.Rand

	errs, delays, hangs atomic.Int64

	// Registry counters mirroring the local atomics (SetCounters); nil
	// entries are skipped.
	cErrs, cDelays, cHangs *telemetry.Counter
}

// SetCounters mirrors injected errors/delays/hangs into registry-backed
// counters (turbo_faults_injected_total{kind}). Call before serving;
// nil counters are ignored.
func (i *Injector) SetCounters(errs, delays, hangs *telemetry.Counter) {
	i.mu.Lock()
	i.cErrs, i.cDelays, i.cHangs = errs, delays, hangs
	i.mu.Unlock()
}

// NewInjector builds an injector for cfg.
func NewInjector(cfg FaultConfig) *Injector {
	i := &Injector{}
	i.SetConfig(cfg)
	return i
}

// SetConfig swaps the fault configuration at runtime (chaos tests flip
// faults on and off mid-scenario; the RNG is reseeded).
func (i *Injector) SetConfig(cfg FaultConfig) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.Hang <= 0 {
		cfg.Hang = 30 * time.Second
	}
	if cfg.Delay > 0 && cfg.DelayRate <= 0 {
		cfg.DelayRate = 1
	}
	i.mu.Lock()
	i.cfg = cfg
	i.rng = rand.New(rand.NewSource(int64(seed)))
	i.mu.Unlock()
}

// Fault rolls the dice once and applies the configured faults in order
// hang → delay → error. Sleeps are cut short when ctx is done, in which
// case ctx.Err() is returned.
func (i *Injector) Fault(ctx context.Context) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	cfg := i.cfg
	rHang := i.rng.Float64()
	rDelay := i.rng.Float64()
	rErr := i.rng.Float64()
	cErrs, cDelays, cHangs := i.cErrs, i.cDelays, i.cHangs
	i.mu.Unlock()
	trace := telemetry.TraceFrom(ctx)
	if cfg.HangRate > 0 && rHang < cfg.HangRate {
		i.hangs.Add(1)
		if cHangs != nil {
			cHangs.Inc()
		}
		trace.AddFault("hang")
		if err := sleepCtx(ctx, cfg.Hang); err != nil {
			return err
		}
	}
	if cfg.Delay > 0 && rDelay < cfg.DelayRate {
		i.delays.Add(1)
		if cDelays != nil {
			cDelays.Inc()
		}
		trace.AddFault("delay")
		if err := sleepCtx(ctx, cfg.Delay); err != nil {
			return err
		}
	}
	if cfg.ErrorRate > 0 && rErr < cfg.ErrorRate {
		i.errs.Add(1)
		if cErrs != nil {
			cErrs.Inc()
		}
		trace.AddFault("error")
		return ErrInjected
	}
	return nil
}

// Counts returns how many errors, delays and hangs have been injected.
func (i *Injector) Counts() (errs, delays, hangs int64) {
	return i.errs.Load(), i.delays.Load(), i.hangs.Load()
}

// faultyFeatures wraps a feature source with injected faults.
type faultyFeatures struct {
	src feature.Source
	inj *Injector
}

// InjectFeatures wraps src so every gather first passes through the
// injector, one roll per gather — the feature-service outage knob of the
// chaos tests and the turbo-server -fault.feature-* flags. A fault fails
// the gather at its first row.
func InjectFeatures(src feature.Source, inj *Injector) feature.Source {
	return &faultyFeatures{src: src, inj: inj}
}

// Gather implements feature.Source.
func (f *faultyFeatures) Gather(ctx context.Context, users []behavior.UserID, cutoff time.Time, fn func(i int, vec []float64)) (int, error) {
	if err := f.inj.Fault(ctx); err != nil {
		return 0, err
	}
	return f.src.Gather(ctx, users, cutoff, fn)
}

// faultyView wraps a graph view with injected sampling latency.
type faultyView struct {
	graph.GraphView
	inj *Injector
}

// InjectView wraps v so Sample pays the injector's delay and hang faults
// (error injection does not apply: GraphView.Sample cannot fail, it can
// only be slow — the caller's deadline turns slowness into an error).
func InjectView(v graph.GraphView, inj *Injector) graph.GraphView {
	return &faultyView{GraphView: v, inj: inj}
}

// Sample implements graph.GraphView.
func (v *faultyView) Sample(target graph.NodeID, opts graph.SampleOptions) *graph.Subgraph {
	_ = v.inj.Fault(context.Background()) // delay/hang only; errors have nowhere to surface
	return v.GraphView.Sample(target, opts)
}
