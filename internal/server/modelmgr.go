package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"turbo/internal/gnn"
	"turbo/internal/lifecycle"
	"turbo/internal/persist"
)

// TrainFunc produces a freshly trained model and its feature normalizer
// from whatever data the caller accumulates (the offline side of the
// model management module).
type TrainFunc func() (gnn.Model, func([]float64) []float64, error)

// ErrCandidateRejected is returned by RetrainOnce when the validation
// gate quarantines the candidate: training succeeded, but the live
// model keeps serving.
var ErrCandidateRejected = errors.New("server: candidate model rejected by validation gate")

// RetrainReport is the outcome of one retrain pass through the
// validation-gated lifecycle, surfaced in /admin/retrain's JSON.
type RetrainReport struct {
	// Accepted is true when the candidate replaced the live model (always
	// true with the gate disabled and training successful).
	Accepted bool `json:"accepted"`
	// Gated reports whether the validation gate evaluated this candidate.
	Gated bool `json:"gated"`
	// Verdict carries the gate's decision and the full shadow report.
	Verdict *lifecycle.Verdict `json:"verdict,omitempty"`
	// Version is the artifact version persisted for this candidate
	// (accepted or quarantined; 0 when no artifact store is attached).
	Version int `json:"artifact_version,omitempty"`
	// Monitoring is true when a post-swap rollback watch was started.
	Monitoring bool `json:"monitoring"`
}

// LifecycleStatus summarizes the manager's safe-deployment state for
// /stats and operators.
type LifecycleStatus struct {
	GateEnabled    bool               `json:"gate_enabled"`
	Retrains       int                `json:"retrains"`
	Quarantined    int                `json:"quarantined"`
	Rollbacks      int                `json:"rollbacks"`
	CurrentVersion int                `json:"current_version,omitempty"`
	LastSwap       time.Time          `json:"last_swap,omitempty"`
	LastRollback   string             `json:"last_rollback_reason,omitempty"`
	LastVerdict    *lifecycle.Verdict `json:"last_verdict,omitempty"`
	Monitoring     bool               `json:"monitoring"`
}

// ModelManager is the model management module of Fig. 2: it retrains the
// classification model offline on a schedule (the paper retrains HAG
// daily) and hot-swaps it into the prediction server without pausing
// audits. With an artifact store attached, every accepted retrain is
// persisted as a new model version so a restarted server serves the
// latest weights without retraining.
//
// With EnableGate, a candidate is first scored in shadow (labeled
// holdout replay + candidate/live diff on a sampled cohort) and must
// pass the quality gate before SwapModel; rejected candidates persist
// as quarantined artifacts with their reasons and trigger no resweep.
// Accepted swaps are watched by a rollback monitor that re-installs the
// previous accepted artifact when live health regresses.
type ModelManager struct {
	mu    sync.Mutex
	pred  *PredictionServer
	train TrainFunc

	artifacts *persist.ModelStore
	extras    func() persist.Extras
	resweep   func()

	// Validation gate (EnableGate).
	gate       lifecycle.GateConfig
	monitorCfg lifecycle.MonitorConfig
	holdout    HoldoutFunc
	engine     *SweepEngine
	cohortSize int
	logf       func(string, ...any)
	// normBuild reconstructs a serving normalizer from persisted
	// statistics; required for artifact-based rollback (SetNormBuilder).
	normBuild func(mean, std []float64) func([]float64) []float64

	// Rollback state: the monitor watching the last accepted swap, the
	// pre-swap in-memory model pair (fallback when no artifact store),
	// and the artifact version currently serving.
	monitor        *lifecycle.Monitor
	prevModel      gnn.Model
	prevNorm       func([]float64) []float64
	currentVersion int

	retrains     int
	quarantined  int
	rollbacks    int
	lastError    error
	lastSwap     time.Time
	lastRollback string
	lastVerdict  *lifecycle.Verdict
}

// NewModelManager wires a manager to a prediction server.
func NewModelManager(pred *PredictionServer, train TrainFunc) *ModelManager {
	return &ModelManager{pred: pred, train: train}
}

// SetArtifacts attaches a model artifact store; extras (may be nil)
// supplies the normalizer statistics and fallback weights persisted
// alongside each model. Call before retraining starts.
func (m *ModelManager) SetArtifacts(store *persist.ModelStore, extras func() persist.Extras) {
	m.mu.Lock()
	m.artifacts = store
	m.extras = extras
	m.mu.Unlock()
}

// SetResweep installs a hook invoked after every accepted swap — the
// sweep engine re-scores the whole graph there so the last-known-score
// cache reflects the new model immediately, not at each user's next
// audit. The hook runs outside the manager lock (a sweep can take a
// while) but still inside the retrain pass, so /admin/retrain returns
// with the re-score complete. Quarantined candidates never trigger it.
func (m *ModelManager) SetResweep(fn func()) {
	m.mu.Lock()
	m.resweep = fn
	m.mu.Unlock()
}

// EnableGate installs the validation gate and rollback monitor. Call
// before retraining starts.
func (m *ModelManager) EnableGate(opts GateOptions) {
	m.mu.Lock()
	m.gate = opts.Gate
	m.monitorCfg = opts.Monitor
	m.holdout = opts.Holdout
	m.engine = opts.Engine
	m.cohortSize = opts.CohortSize
	m.logf = opts.Logf
	m.mu.Unlock()
}

// SetNormBuilder installs the factory reconstructing a serving
// normalizer from persisted mean/std statistics. Without it, rollback
// falls back to the in-memory pre-swap model instead of the artifact
// store's bitwise reload.
func (m *ModelManager) SetNormBuilder(fn func(mean, std []float64) func([]float64) []float64) {
	m.mu.Lock()
	m.normBuild = fn
	m.mu.Unlock()
}

// SetCurrentVersion records the artifact version serving now (the boot
// path calls this after LoadLatest), anchoring rollback lineage and the
// prediction server's version tag for the tier-3 cache and the
// embedding tier.
func (m *ModelManager) SetCurrentVersion(v int) {
	m.mu.Lock()
	m.currentVersion = v
	m.mu.Unlock()
	m.pred.SetModelVersion(v)
}

// Models returns the artifact lineage (every on-disk version with its
// lifecycle status), nil without an artifact store.
func (m *ModelManager) Models() []persist.Manifest {
	m.mu.Lock()
	store := m.artifacts
	m.mu.Unlock()
	if store == nil {
		return nil
	}
	return store.List()
}

func (m *ModelManager) logfSafe(format string, args ...any) {
	m.mu.Lock()
	logf := m.logf
	m.mu.Unlock()
	if logf != nil {
		logf(format, args...)
	}
}

// runTrain invokes the training function with panic isolation: a
// panicking TrainFunc (bad batch, shape mismatch in experimental code)
// must cost one retrain cycle, never the serving process.
func (m *ModelManager) runTrain() (model gnn.Model, norm func([]float64) []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			model, norm = nil, nil
			err = fmt.Errorf("server: retrain panicked: %v", r)
		}
	}()
	return m.train()
}

// RetrainOnce runs one offline training pass through the full
// lifecycle. Training failures — including a panicking TrainFunc —
// leave the previous model serving and record the error; a gate
// rejection returns ErrCandidateRejected (the quarantined artifact and
// reasons are persisted, live scoring is untouched).
func (m *ModelManager) RetrainOnce() error {
	rep, err := m.RetrainOnceCtx(context.Background())
	if err != nil {
		return err
	}
	if !rep.Accepted {
		reasons := "no reasons recorded"
		if rep.Verdict != nil && len(rep.Verdict.Reasons) > 0 {
			reasons = strings.Join(rep.Verdict.Reasons, "; ")
		}
		return fmt.Errorf("%w: %s", ErrCandidateRejected, reasons)
	}
	return nil
}

// RetrainOnceCtx is RetrainOnce with context cancellation and the full
// lifecycle report: train → shadow-evaluate → gate → swap or quarantine
// → monitor. A gate rejection is a successful gate decision, not an
// error: it returns (report with Accepted=false, nil).
func (m *ModelManager) RetrainOnceCtx(ctx context.Context) (RetrainReport, error) {
	model, norm, err := m.runTrain()
	if err != nil {
		m.mu.Lock()
		m.lastError = err
		m.mu.Unlock()
		m.pred.Tel.RetrainFailed()
		return RetrainReport{}, fmt.Errorf("server: retrain: %w", err)
	}
	if cerr := ctx.Err(); cerr != nil {
		// Caller gone mid-train: discard the candidate rather than swap a
		// model nobody asked to promote.
		return RetrainReport{}, fmt.Errorf("server: retrain: %w", cerr)
	}

	m.mu.Lock()
	gate, monCfg := m.gate, m.monitorCfg
	holdout, engine, cohortSize := m.holdout, m.engine, m.cohortSize
	m.mu.Unlock()

	rep := RetrainReport{Gated: gate.Enabled()}
	var baseline []float64 // pre-swap live cohort scores
	if gate.Enabled() {
		shadow := lifecycle.ShadowReport{At: time.Now()}
		if holdout != nil {
			hr, herr := holdout(model, norm)
			if herr != nil {
				m.logfSafe("lifecycle: holdout evaluation failed: %v", herr)
			} else {
				shadow.Holdout = hr
			}
		}
		if engine != nil {
			cand, live, derr := engine.ShadowPair(ctx, model, norm, cohortSize)
			switch {
			case derr != nil:
				m.logfSafe("lifecycle: shadow cohort diff failed: %v", derr)
			case len(cand) > 0:
				d := lifecycle.DiffCohort(cand, live, m.pred.Threshold)
				shadow.Cohort = &d
				baseline = live
			}
		}
		v := gate.Check(shadow)
		rep.Verdict = &v
		m.pred.Tel.GateEvaluated(v)
		m.mu.Lock()
		m.lastVerdict = &v
		m.mu.Unlock()
		if !v.Accepted {
			m.quarantine(model, v, &rep)
			return rep, nil
		}
	}

	// Accepted (or ungated): remember the pre-swap pair for rollback,
	// swap, persist, and start the post-swap watch.
	prev := m.pred.Serving()
	m.pred.SwapModel(model, norm)
	rep.Accepted = true
	m.mu.Lock()
	m.retrains++
	m.lastError = nil
	m.lastSwap = time.Now()
	m.prevModel, m.prevNorm = prev.Model, prev.Norm
	store, extras := m.artifacts, m.extras
	m.mu.Unlock()
	if store != nil {
		var ex persist.Extras
		if extras != nil {
			ex = extras()
		}
		if man, aerr := store.Save(model, ex); aerr != nil {
			// The new model serves regardless; only its durability failed.
			m.mu.Lock()
			m.lastError = fmt.Errorf("server: persist model artifact: %w", aerr)
			m.mu.Unlock()
			m.pred.Tel.ArtifactSaved(false)
		} else {
			rep.Version = man.Version
			m.mu.Lock()
			m.currentVersion = man.Version
			m.mu.Unlock()
			m.pred.SetModelVersion(man.Version)
			m.pred.Tel.ArtifactSaved(true)
		}
	}
	if monCfg.Window > 0 {
		m.startMonitor(monCfg, baseline)
		rep.Monitoring = true
	}
	m.mu.Lock()
	resweep := m.resweep
	m.mu.Unlock()
	if resweep != nil {
		resweep()
	}
	return rep, nil
}

// quarantine persists a rejected candidate with its reasons and records
// the rejection; the live model, cache and sweep state are untouched.
func (m *ModelManager) quarantine(model gnn.Model, v lifecycle.Verdict, rep *RetrainReport) {
	m.mu.Lock()
	m.quarantined++
	store, extras := m.artifacts, m.extras
	m.mu.Unlock()
	if store != nil {
		var ex persist.Extras
		if extras != nil {
			ex = extras()
		}
		if man, aerr := store.SaveStatus(model, ex, persist.StatusQuarantined, v.Reasons); aerr != nil {
			m.logfSafe("lifecycle: persisting quarantined candidate: %v", aerr)
			m.pred.Tel.ArtifactSaved(false)
		} else {
			rep.Version = man.Version
			m.pred.Tel.ArtifactSaved(true)
		}
	}
	m.logfSafe("lifecycle: candidate rejected: %s", strings.Join(v.Reasons, "; "))
}

// startMonitor begins the post-swap watch, superseding any previous
// watch. baseline is the pre-swap live cohort's score distribution for
// the score-shift probe (may be nil).
func (m *ModelManager) startMonitor(cfg lifecycle.MonitorConfig, baseline []float64) {
	m.mu.Lock()
	if m.monitor != nil {
		m.monitor.Stop()
	}
	engine, cohortSize, logf := m.engine, m.cohortSize, m.logf
	m.mu.Unlock()
	probes := lifecycle.Probes{
		Health:   m.pred.HealthSnapshot,
		Rollback: func(reason string) error { return m.Rollback("monitor: " + reason) },
		Logf:     logf,
	}
	if cfg.MaxScoreShift > 0 && engine != nil && len(baseline) > 0 {
		probes.ScoreShift = func() (float64, bool) {
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			scores, err := engine.CohortScores(sctx, cohortSize)
			if err != nil || len(scores) == 0 {
				return 0, false
			}
			return lifecycle.PSI(baseline, scores, 0), true
		}
	}
	mon := lifecycle.Start(cfg, probes)
	m.mu.Lock()
	m.monitor = mon
	m.mu.Unlock()
}

// Monitor returns the watch over the last accepted swap (nil when none
// is running or it has been superseded).
func (m *ModelManager) Monitor() *lifecycle.Monitor {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.monitor
}

// Rollback re-installs the previous accepted model: preferentially a
// bitwise reload of the newest accepted artifact older than the serving
// one, else the in-memory pre-swap pair. The withdrawn artifact is
// marked rolled_back on disk (with the reason) so a restart never
// reloads it, and the resweep hook restores the pre-swap score cache.
// Safe to call from the monitor's own goroutine and from HTTP.
func (m *ModelManager) Rollback(reason string) error {
	m.mu.Lock()
	if m.monitor != nil {
		m.monitor.Stop() // non-blocking: we may BE the monitor goroutine
		m.monitor = nil
	}
	cur := m.currentVersion
	store, normBuild := m.artifacts, m.normBuild
	prevModel, prevNorm := m.prevModel, m.prevNorm
	m.mu.Unlock()

	var model gnn.Model
	var norm func([]float64) []float64
	restored := 0
	if store != nil && normBuild != nil {
		if lm, err := store.LoadPreviousAccepted(cur); err == nil {
			model = lm.Model
			if len(lm.NormMean) > 0 {
				norm = normBuild(lm.NormMean, lm.NormStd)
			}
			restored = lm.Manifest.Version
		} else if !errors.Is(err, persist.ErrNoArtifact) {
			m.logfSafe("lifecycle: rollback artifact reload: %v", err)
		}
	}
	if model == nil {
		model, norm = prevModel, prevNorm
	}
	if model == nil {
		return fmt.Errorf("server: rollback: no previous accepted model available")
	}

	m.pred.SwapModel(model, norm)
	if store != nil && cur > 0 {
		if err := store.SetStatus(cur, persist.StatusRolledBack, reason); err != nil {
			m.logfSafe("lifecycle: marking artifact v%d rolled back: %v", cur, err)
		}
	}
	m.mu.Lock()
	m.rollbacks++
	m.lastRollback = reason
	m.currentVersion = restored
	if restored > 0 {
		// Pin the restored artifact version (SwapModel already dropped
		// the withdrawn model's cache under a synthetic tag).
		m.pred.SetModelVersion(restored)
	}
	m.prevModel, m.prevNorm = nil, nil // consumed
	resweep := m.resweep
	m.mu.Unlock()
	m.pred.Tel.RolledBack()
	m.logfSafe("lifecycle: rolled back to %s: %s", versionName(restored), reason)
	if resweep != nil {
		resweep()
	}
	return nil
}

func versionName(v int) string {
	if v == 0 {
		return "in-memory pre-swap model"
	}
	return fmt.Sprintf("artifact v%d", v)
}

// Run retrains on the given interval until ctx is cancelled. Errors and
// gate rejections are recorded (see Status/Lifecycle) and do not stop
// the loop: the previous model keeps serving.
func (m *ModelManager) Run(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			_, _ = m.RetrainOnceCtx(ctx)
		}
	}
}

// Status reports the manager's retrain history.
func (m *ModelManager) Status() (retrains int, lastSwap time.Time, lastError error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retrains, m.lastSwap, m.lastError
}

// Lifecycle reports the safe-deployment state.
func (m *ModelManager) Lifecycle() LifecycleStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	monitoring := false
	if m.monitor != nil {
		select {
		case <-m.monitor.Done():
		default:
			monitoring = true
		}
	}
	return LifecycleStatus{
		GateEnabled:    m.gate.Enabled(),
		Retrains:       m.retrains,
		Quarantined:    m.quarantined,
		Rollbacks:      m.rollbacks,
		CurrentVersion: m.currentVersion,
		LastSwap:       m.lastSwap,
		LastRollback:   m.lastRollback,
		LastVerdict:    m.lastVerdict,
		Monitoring:     monitoring,
	}
}
