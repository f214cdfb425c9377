// Command turbo-server runs the full online anti-fraud stack of Fig. 2:
// it assembles a historical dataset, trains HAG (plus the feature-only
// fallback model of the degradation ladder), loads the history into a
// live core.System, and serves the HTTP API (ingest / transaction /
// predict / latency / stats / healthz / readyz) with per-stage
// deadlines, a feature-service circuit breaker, and load shedding.
//
// Usage:
//
//	turbo-server -preset tiny -addr :8080
//	curl 'localhost:8080/predict?uid=42'
//	curl localhost:8080/latency
//
// With -data.dir the state is durable: ingested events are write-ahead
// logged, the BN is checkpointed periodically, and every trained model
// becomes a versioned artifact. A restart recovers the latest checkpoint,
// replays the WAL tail and reloads the newest model instead of
// retraining:
//
//	turbo-server -preset tiny -data.dir /var/lib/turbo
//	kill -9 <pid>; turbo-server -preset tiny -data.dir /var/lib/turbo
//	# → "recovered: checkpoint lsn=…, replayed N events" and the same BN
//
// Chaos demo — inject a total feature outage and watch audits degrade
// instead of failing:
//
//	turbo-server -preset tiny -fault.feature-error-rate 1
//	curl 'localhost:8080/predict?uid=0'   # 200, "served_by":"fallback"/"prior"
//	curl localhost:8080/stats             # served_by counters, breaker state
//
// The server drains gracefully on SIGINT/SIGTERM, writing a final
// checkpoint when -data.dir is set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"turbo/internal/baselines"
	"turbo/internal/core"
	"turbo/internal/datagen"
	"turbo/internal/eval"
	"turbo/internal/gnn"
	"turbo/internal/lifecycle"
	"turbo/internal/persist"
	"turbo/internal/resilience"
	"turbo/internal/server"
	"turbo/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("turbo-server: ")

	preset := flag.String("preset", "tiny", "dataset preset: default, tiny")
	addr := flag.String("addr", ":8080", "listen address")
	epochs := flag.Int("epochs", 0, "training epochs (0 = harness default)")
	threshold := flag.Float64("threshold", 0.85, "online fraud threshold (§VI-E uses 0.85)")
	advanceEvery := flag.Duration("advance-every", 10*time.Second, "BN window-job scheduler period")

	// Lambda embedding-serving tier.
	embedServe := flag.Bool("embed.serve", true, "serve clean-neighborhood audits from precomputed penultimate embeddings (dirty neighborhoods always fall through to full scoring)")
	embedRefreshEvery := flag.Duration("embed.refresh-every", time.Second, "background incremental re-embed period for the dirty set")

	// Durable state (all off unless -data.dir is set).
	dataDir := flag.String("data.dir", "", "data directory for the WAL, checkpoints and model artifacts (empty = memory-only)")
	walFsync := flag.String("wal.fsync", "interval", "WAL fsync policy: always, interval, none")
	walFsyncInterval := flag.Duration("wal.fsync-interval", 100*time.Millisecond, "background fsync period under -wal.fsync=interval")
	walSegmentSize := flag.Int64("wal.segment-size", 16<<20, "WAL segment rotation size in bytes")
	checkpointInterval := flag.Duration("checkpoint.interval", time.Minute, "period between full-state checkpoints")

	// Resilience posture.
	maxInFlight := flag.Int("max-inflight", 256, "concurrent audit cap; excess load is shed with 429 (0 = unbounded)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive feature failures that open the breaker")
	breakerCoolDown := flag.Duration("breaker-cooldown", 10*time.Second, "breaker open → half-open cool-down")
	retryAttempts := flag.Int("retry-attempts", 2, "attempts per feature fetch (1 = no retry)")
	sampleTimeout := flag.Duration("sample-timeout", 500*time.Millisecond, "subgraph sampling deadline (0 = none)")
	featureTimeout := flag.Duration("feature-timeout", time.Second, "feature fan-out deadline (0 = none)")
	totalTimeout := flag.Duration("total-timeout", 2*time.Second, "end-to-end audit deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")

	// Validation-gated model lifecycle (gate off unless -gate is set).
	gateEnable := flag.Bool("gate", false, "validation-gate retrained models: shadow-evaluate each candidate, quarantine rejects, monitor accepted swaps")
	gateMinAUC := flag.Float64("gate.min-auc", 0.75, "holdout ROC-AUC floor a candidate must reach")
	gateMinRecall := flag.Float64("gate.min-recall", 0.5, "recall floor at -gate.precision-floor on the holdout")
	gatePrecisionFloor := flag.Float64("gate.precision-floor", 0.8, "precision floor for the recall-at-precision criterion")
	gateMaxPSI := flag.Float64("gate.max-psi", 0.25, "max candidate-vs-live PSI on the shadow cohort")
	gateMaxKS := flag.Float64("gate.max-ks", 0.3, "max candidate-vs-live KS statistic on the shadow cohort")
	gateMaxDisagree := flag.Float64("gate.max-disagreement", 0.15, "max candidate-vs-live decision disagreement rate at the audit threshold")
	gateCohort := flag.Int("gate.cohort", 512, "shadow-cohort size cap (0 = every audit-eligible user)")
	monWindow := flag.Duration("monitor.window", 2*time.Minute, "post-swap rollback watch window (0 = no monitor)")
	monMinAudits := flag.Int64("monitor.min-audits", 50, "post-swap audits required before health rates are judged")
	monMaxErr := flag.Float64("monitor.max-error-rate", 0.05, "post-swap failed-audit rate that triggers auto-rollback")
	monMaxDegraded := flag.Float64("monitor.max-degraded-rate", 0.5, "post-swap degraded-tier rate that triggers auto-rollback")
	monMaxShift := flag.Float64("monitor.max-score-shift", 0, "post-swap cohort PSI vs the pre-swap baseline that triggers auto-rollback (0 = off)")

	// HTTP hardening.
	maxBody := flag.Int64("http.max-body", 1<<20, "max POST body bytes; larger requests get 413")
	readHeaderTimeout := flag.Duration("http.read-header-timeout", 5*time.Second, "deadline for reading request headers (slowloris guard)")
	readTimeout := flag.Duration("http.read-timeout", 30*time.Second, "deadline for reading a full request")
	writeTimeout := flag.Duration("http.write-timeout", 10*time.Minute, "deadline for writing a response (covers synchronous /admin/retrain and pprof profiles)")
	idleTimeout := flag.Duration("http.idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")

	// Fault injection (chaos demo; all off by default).
	faultErrRate := flag.Float64("fault.feature-error-rate", 0, "probability a feature fetch fails")
	faultDelay := flag.Duration("fault.feature-delay", 0, "injected latency per feature fetch")
	faultDelayRate := flag.Float64("fault.feature-delay-rate", 0, "probability of the injected feature delay (0 with a delay set = always)")
	faultHangRate := flag.Float64("fault.feature-hang-rate", 0, "probability a feature fetch hangs")
	faultHang := flag.Duration("fault.feature-hang", 30*time.Second, "duration of an injected feature hang")
	faultSampleDelay := flag.Duration("fault.sample-delay", 0, "injected latency per subgraph sample")
	faultSampleDelayRate := flag.Float64("fault.sample-delay-rate", 0, "probability of the injected sample delay (0 with a delay set = always)")
	faultSeed := flag.Uint64("fault.seed", 1, "fault-injection RNG seed (deterministic fault sequences)")

	// Telemetry.
	debugAddr := flag.String("debug.addr", "", "separate listen address for net/http/pprof (empty = disabled)")
	traceRingSize := flag.Int("telemetry.trace-ring", 256, "completed-trace ring size behind /debug/traces")
	slowThreshold := flag.Duration("telemetry.slow-threshold", 500*time.Millisecond, "log the span breakdown of audits at least this slow (0 = off)")
	flag.Parse()

	var cfg datagen.Config
	switch *preset {
	case "default":
		cfg = datagen.Default()
	case "tiny":
		cfg = datagen.Tiny()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}

	h := eval.DefaultHyper()
	if *epochs > 0 {
		h.Epochs = *epochs
	}

	// The dataset is always assembled: it provides the feature profiles
	// (which are derived data, not journaled) and the training corpus for
	// the first boot and for retrains.
	log.Printf("assembling %q…", cfg.Name)
	a := eval.Assemble(cfg, eval.AssembleOptions{})

	sys, err := core.New(core.Config{
		Threshold: *threshold,
		Telemetry: server.TelemetryOptions{
			TraceRingSize: *traceRingSize,
			SlowThreshold: *slowThreshold,
			Logger:        log.Default(),
		},
	}, a.Data.Start)
	if err != nil {
		log.Fatal(err)
	}

	// Durable state: open the WAL + checkpoint manager and the model
	// artifact store, then recover whatever a previous process left.
	var journal *persist.Manager
	var modelStore *persist.ModelStore
	recovered := false
	if *dataDir != "" {
		policy, err := persist.ParseFsyncPolicy(*walFsync)
		if err != nil {
			log.Fatalf("-wal.fsync: %v", err)
		}
		journal, err = persist.Open(persist.Config{
			Dir:           *dataDir,
			SegmentSize:   *walSegmentSize,
			Fsync:         policy,
			FsyncInterval: *walFsyncInterval,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		modelStore, err = persist.NewModelStore(filepath.Join(*dataDir, "models"), log.Printf)
		if err != nil {
			log.Fatal(err)
		}
		sys.AttachPersistence(journal)
		rs, err := sys.Recover()
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		recovered = rs.CheckpointLoaded || rs.ReplayedLogs+rs.ReplayedTxns > 0
		if recovered {
			log.Printf("recovered: checkpoint=%v (lsn=%d), replayed %d logs + %d txns, %d corrupt records dropped",
				rs.CheckpointLoaded, rs.CheckpointLSN, rs.ReplayedLogs, rs.ReplayedTxns, rs.CorruptRecords)
		} else {
			log.Printf("data dir %s is fresh; seeding from %q", *dataDir, cfg.Name)
		}
	}

	// Model: prefer the newest persisted artifact (bitwise the weights
	// that were serving before the restart); train from scratch only when
	// none exists.
	var model gnn.Model
	var normalizer func([]float64) []float64
	var fallback *baselines.LogisticRegression
	loadedArtifact := false
	servingVersion := 0
	if modelStore != nil {
		lm, err := modelStore.LoadLatest()
		switch {
		case err == nil:
			model = lm.Model
			norm := &eval.Normalizer{Mean: lm.NormMean, Std: lm.NormStd}
			normalizer = norm.Apply
			fallback = lm.Fallback
			loadedArtifact = true
			servingVersion = lm.Manifest.Version
			log.Printf("loaded model artifact v%d (%s, %d params, checksum %s)",
				lm.Manifest.Version, lm.Manifest.Kind, lm.Manifest.Params, lm.Manifest.Checksum)
		case errors.Is(err, persist.ErrNoArtifact):
			log.Printf("no model artifact yet; training")
		default:
			log.Fatalf("model artifacts: %v", err)
		}
	}
	if model == nil {
		log.Printf("training HAG…")
		model, _ = eval.TrainHAG(a, eval.HAGFull, h, 1)
		normalizer = a.Norm.Apply
		log.Printf("trained on %d nodes / %d edges", a.Graph.NumNodes(), a.Graph.NumEdges())
	}
	if fallback == nil {
		// Tier-2 fallback: logistic regression over the same normalized
		// feature rows HAG consumes, fitted on the training split. When the
		// graph or feature fan-out cannot answer in budget, this scores the
		// target user's own vector.
		fbX := tensor.New(len(a.TrainIdx), a.X.Cols)
		fbY := make([]float64, len(a.TrainIdx))
		for i, idx := range a.TrainIdx {
			copy(fbX.Row(i), a.X.Row(idx))
			fbY[i] = a.Labels[idx]
		}
		fallback = &baselines.LogisticRegression{Balance: true}
		fallback.Fit(fbX, fbY)
		log.Printf("trained LR fallback on %d rows", fbX.Rows)
	}
	sys.SetModel(model, normalizer)
	if modelStore != nil && !loadedArtifact {
		man, err := modelStore.Save(model, persist.Extras{
			NormMean: a.Norm.Mean, NormStd: a.Norm.Std, Fallback: fallback,
		})
		if err != nil {
			log.Printf("persisting model artifact: %v", err)
			sys.Telemetry().ArtifactSaved(false)
		} else {
			servingVersion = man.Version
			log.Printf("persisted model artifact v%d (%s)", man.Version, man.Kind)
			sys.Telemetry().ArtifactSaved(true)
		}
	}

	// Data: a fresh instance journals the seed history through the WAL; a
	// recovered one already holds it and only needs the derived feature
	// profiles re-installed.
	if recovered {
		for i := range a.Data.Users {
			u := &a.Data.Users[i]
			if err := sys.Features().PutProfile(u.ID, u.Features()); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		sys.IngestBatch(a.Data.Logs)
		for i := range a.Data.Users {
			u := &a.Data.Users[i]
			if err := sys.RegisterApplication(u.ID, u.Features()); err != nil {
				log.Fatal(err)
			}
		}
	}
	sys.Advance(a.Data.End.Add(48 * time.Hour))
	log.Printf("live BN: %d nodes, %d edges", sys.BNServer().Graph().NumNodes(), sys.BNServer().Graph().NumEdges())

	pred := sys.PredictionServer()
	tel := sys.Telemetry()
	pred.Fallback = fallback
	pred.Admission = resilience.NewAdmission(*maxInFlight)
	pred.Breaker = resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: *breakerThreshold,
		CoolDown:         *breakerCoolDown,
		OnStateChange:    tel.BreakerHook(),
	})
	pred.Retry = resilience.RetryConfig{Attempts: *retryAttempts, BaseDelay: 5 * time.Millisecond, Seed: *faultSeed}
	pred.Deadlines = server.StageDeadlines{
		Sample:  *sampleTimeout,
		Feature: *featureTimeout,
		Total:   *totalTimeout,
	}

	if *faultErrRate > 0 || *faultDelay > 0 || *faultHangRate > 0 {
		inj := resilience.NewInjector(resilience.FaultConfig{
			ErrorRate: *faultErrRate,
			Delay:     *faultDelay,
			DelayRate: *faultDelayRate,
			HangRate:  *faultHangRate,
			Hang:      *faultHang,
			Seed:      *faultSeed,
		})
		tel.WireInjector(inj)
		pred.SetFeatureSource(resilience.InjectFeatures(sys.Features(), inj))
		log.Printf("CHAOS: feature faults on (err=%.2f delay=%v hang=%.2f seed=%d)",
			*faultErrRate, *faultDelay, *faultHangRate, *faultSeed)
	}
	if *faultSampleDelay > 0 {
		inj := resilience.NewInjector(resilience.FaultConfig{
			Delay:     *faultSampleDelay,
			DelayRate: *faultSampleDelayRate,
			Seed:      *faultSeed,
		})
		tel.WireInjector(inj)
		sys.BNServer().SetSampleFault(inj.Fault)
		log.Printf("CHAOS: sampling delay on (%v, seed=%d)", *faultSampleDelay, *faultSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Lambda embedding tier: install the engine (delta observer +
	// mark-before-publish hook) before any retrain machinery references
	// it; the table itself is built below, once the serving artifact
	// version is pinned.
	var embedEng *server.EmbedEngine
	if *embedServe {
		var eerr error
		embedEng, eerr = sys.EnableEmbedTier()
		if eerr != nil {
			log.Fatal(eerr)
		}
	}

	// Model management: /admin/retrain runs one pass on demand; every
	// accepted retrain is persisted as the next artifact version.
	trainFn := func() (gnn.Model, func([]float64) []float64, error) {
		m, _ := eval.TrainHAG(a, eval.HAGFull, h, 1)
		return m, a.Norm.Apply, nil
	}
	mgr := server.NewModelManager(pred, trainFn)
	// After every accepted swap and rollback, re-score the whole graph so
	// the embedding tier and the cached scores follow the new model
	// immediately (core.System.Rescore picks the pass).
	mgr.SetResweep(func() {
		msg, err := sys.Rescore(ctx)
		if err != nil {
			log.Printf("post-swap re-score: %v", err)
			return
		}
		log.Printf("post-swap %s", msg)
	})
	if modelStore != nil {
		mgr.SetArtifacts(modelStore, func() persist.Extras {
			return persist.Extras{NormMean: a.Norm.Mean, NormStd: a.Norm.Std, Fallback: fallback}
		})
		mgr.SetCurrentVersion(servingVersion)
	}
	// Rollback reconstructs a serving normalizer from the persisted
	// z-score statistics, so a reinstalled artifact is bitwise the model
	// (and normalizer) that served before the bad swap.
	mgr.SetNormBuilder(func(mean, std []float64) func([]float64) []float64 {
		return (&eval.Normalizer{Mean: mean, Std: std}).Apply
	})
	if *gateEnable {
		mgr.EnableGate(server.GateOptions{
			Gate: lifecycle.GateConfig{
				MinAUC:               *gateMinAUC,
				MinRecallAtPrecision: *gateMinRecall,
				PrecisionFloor:       *gatePrecisionFloor,
				MaxPSI:               *gateMaxPSI,
				MaxKS:                *gateMaxKS,
				MaxDisagreement:      *gateMaxDisagree,
			},
			Monitor: lifecycle.MonitorConfig{
				Window:          *monWindow,
				MinAudits:       *monMinAudits,
				MaxErrorRate:    *monMaxErr,
				MaxDegradedRate: *monMaxDegraded,
				MaxScoreShift:   *monMaxShift,
			},
			Holdout:    a.HoldoutGate(*threshold, *gatePrecisionFloor),
			Engine:     sys.Sweeper(),
			CohortSize: *gateCohort,
			Logf:       log.Printf,
		})
		log.Printf("validation gate on: min-auc=%.2f min-recall=%.2f@p%.2f max-psi=%.2f max-ks=%.2f max-disagreement=%.2f, monitor window=%v",
			*gateMinAUC, *gateMinRecall, *gatePrecisionFloor, *gateMaxPSI, *gateMaxKS, *gateMaxDisagree, *monWindow)
	}

	// Audits score through the float32 forward whenever the model passes
	// the logit-tolerance gate against the float64 reference on the
	// assembled full graph; the gate re-runs on every model swap, and a
	// version that fails it is scored in float64.
	vb := a.FullBatch()
	if maxDelta, ok := pred.ConfigureF32(func(m gnn.Model) (float64, bool) {
		return gnn.ValidateF32(m, vb, gnn.F32Tol)
	}); ok {
		log.Printf("f32 inference on: max logit delta %.3g within tol %.1g (%d validation nodes)", maxDelta, gnn.F32Tol, vb.NumNodes)
	} else {
		log.Printf("f32 gate failed (max logit delta %.3g, tol %.1g): serving float64", maxDelta, gnn.F32Tol)
	}

	// Build the embedding table against the recovered graph and the
	// serving model — at every boot, so it never carries a previous
	// process's features or misses edges the WAL replay restored. It is
	// the same core.System.Rescore that follows every swap; with the tier
	// on it is the rebuild, whose sweep also refills the tier-3 score
	// cache. Then start the background dirty-set refresh.
	if embedEng != nil {
		if msg, rerr := sys.Rescore(ctx); rerr != nil {
			log.Printf("embed rebuild: %v", rerr)
		} else {
			log.Print(msg)
		}
		go embedEng.RunRefreshLoop(ctx, *embedRefreshEvery)
	}

	// The scheduler tick: window jobs run in parallel to predictions.
	go func() {
		ticker := time.NewTicker(*advanceEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				sys.Advance(time.Now())
			case <-ctx.Done():
				return
			}
		}
	}()

	// The background checkpointer: periodic full-state checkpoints, plus
	// a final one when the context is cancelled.
	checkpointerDone := make(chan struct{})
	if journal != nil {
		go func() {
			defer close(checkpointerDone)
			journal.Run(ctx, *checkpointInterval)
		}()
	} else {
		close(checkpointerDone)
	}

	// Optional pprof endpoint on its own listener, so profiling traffic
	// never rides the audit port.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: *readHeaderTimeout,
			ReadTimeout:       *readTimeout,
			// CPU profiles stream for their whole sampling window, so the
			// debug listener shares the long API write budget.
			WriteTimeout: *writeTimeout,
			IdleTimeout:  *idleTimeout,
		}
		go func() {
			log.Printf("pprof on %s/debug/pprof/", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	api := sys.API()
	api.ErrorLog = log.Default()
	api.MaxBodyBytes = *maxBody
	api.Admin.Retrain = mgr.RetrainOnceCtx
	api.Admin.Rollback = mgr.Rollback
	api.Admin.Models = mgr.Models
	api.Admin.Lifecycle = mgr.Lifecycle
	if journal != nil {
		api.Admin.Checkpoint = func() (persist.CheckpointInfo, error) {
			info, err := journal.CheckpointNow()
			if err == nil {
				log.Printf("checkpoint: lsn=%d %dB in %v (%d segments truncated)",
					info.LSN, info.Bytes, info.Took, info.TruncatedSegments)
			}
			return info, err
		}
	}
	// State is rebuilt and the model is loaded — flip readiness last.
	api.SetReady(true)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("serving on %s — try /predict?uid=0, /stats, /latency, /metrics, /debug/traces\n", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight audits for up
	// to the drain budget, then persist the final state and exit.
	log.Printf("signal received, draining for up to %v…", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if journal != nil {
		<-checkpointerDone // the checkpointer's final checkpoint
		if err := journal.Close(); err != nil {
			log.Printf("closing wal: %v", err)
		}
	}
	log.Printf("drained; bye")
}
