package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"turbo/internal/persist"

	"turbo/internal/behavior"
	"turbo/internal/graph"
	"turbo/internal/resilience"
)

// API exposes the online stack over HTTP:
//
//	POST /ingest            {"uid":1,"type":3,"value":"ip-1","time":"..."}
//	POST /transaction?uid=1 registers an application for uid
//	GET  /predict?uid=1     runs one audit request
//	GET  /latency           returns the §V latency digests
//	GET  /stats             returns BN size statistics (current snapshot)
//	GET  /metrics           Prometheus text exposition of the registry
//	GET  /debug/traces?n=K  last K completed audit traces, newest first
//	GET  /healthz           liveness probe
//	GET  /readyz            readiness: snapshot, model, breaker state
//	POST /admin/checkpoint  force a full-state checkpoint now
//	POST /admin/retrain     run one gated retrain pass now (gate verdict in the JSON)
//	POST /admin/sweep       re-score every user via one full-graph sweep
//	POST /admin/embed/refresh  re-embed the dirty set incrementally now
//	POST /admin/rollback    re-install the previous accepted model (?reason=...)
//	GET  /admin/models      artifact lineage: every version with its lifecycle status
//
// Error contract: wrong method → 405, bad parameters → 400, unknown
// user → 404, oversized body → 413, shed load → 429, uncaught deadline
// → 504, anything else → a generic 500 (internal error strings go to
// ErrorLog, not the wire). The admin endpoints additionally answer 503
// until SetReady(true) and when their hook is not configured; a
// rollback with nothing to roll back to answers 409. Every POST body is
// bounded by MaxBodyBytes, and /admin/retrain and /admin/sweep honor
// request-context cancellation: a disconnected client unblocks the
// handler immediately (the pass itself finishes in the background).
type API struct {
	Pred *PredictionServer
	BN   *BNServer
	// ErrorLog receives internal errors that are masked on the wire.
	// Nil discards them.
	ErrorLog *log.Logger
	// Admin holds the operational hooks behind /admin/*; nil hooks
	// answer 503.
	Admin AdminHooks
	// Sweep, when set, surfaces the full-graph sweep engine's progress in
	// /stats (in-flight count and last report).
	Sweep *SweepEngine
	// Embed, when set, surfaces the embedding tier's state in /stats
	// (table size, dirty rows, last rebuild/refresh).
	Embed *EmbedEngine
	// MaxBodyBytes bounds every POST request body (0 selects 1 MiB);
	// overflow answers 413 instead of exhausting memory.
	MaxBodyBytes int64
	mux          *http.ServeMux

	// notReady gates /readyz and the admin endpoints during boot-time
	// recovery. The zero value is ready, so embedders that never call
	// SetReady keep the old behavior.
	notReady atomic.Bool

	// inFlight counts requests currently inside ServeHTTP, exposed as
	// turbo_http_inflight_requests — the request-queue depth signal a
	// load test watches for saturation.
	inFlight atomic.Int64
}

// AdminHooks are the operational actions exposed under /admin/*.
type AdminHooks struct {
	// Checkpoint forces a durable full-state checkpoint.
	Checkpoint func() (persist.CheckpointInfo, error)
	// Retrain runs one retrain pass through the validation-gated
	// lifecycle and reports the gate's verdict; ctx cancellation (client
	// disconnect) must unblock promptly.
	Retrain func(ctx context.Context) (RetrainReport, error)
	// Sweep re-scores every audit-eligible user via one full-graph sweep
	// and returns its report; ctx bounds the cancellable stages.
	Sweep func(ctx context.Context) (SweepReport, error)
	// EmbedRefresh re-embeds the embedding tier's dirty set now.
	EmbedRefresh func(ctx context.Context) (EmbedRefreshReport, error)
	// Rollback re-installs the previous accepted model.
	Rollback func(reason string) error
	// Models returns the artifact lineage, and Lifecycle the manager's
	// safe-deployment status.
	Models    func() []persist.Manifest
	Lifecycle func() LifecycleStatus
}

// defaultMaxBodyBytes bounds POST bodies when MaxBodyBytes is unset:
// one behavior log or an admin request fits in well under 1 MiB.
const defaultMaxBodyBytes = 1 << 20

// NewAPI builds the HTTP handler around a prediction server.
func NewAPI(pred *PredictionServer, bn *BNServer) *API {
	a := &API{Pred: pred, BN: bn, mux: http.NewServeMux()}
	a.mux.HandleFunc("/ingest", a.handleIngest)
	a.mux.HandleFunc("/transaction", a.handleTransaction)
	a.mux.HandleFunc("/predict", requireGET(a.handlePredict))
	a.mux.HandleFunc("/latency", requireGET(a.handleLatency))
	a.mux.HandleFunc("/stats", requireGET(a.handleStats))
	a.mux.HandleFunc("/subgraph", requireGET(a.handleSubgraph))
	a.mux.HandleFunc("/metrics", requireGET(a.handleMetrics))
	a.mux.HandleFunc("/debug/traces", requireGET(a.handleTraces))
	a.mux.HandleFunc("/healthz", requireGET(a.handleHealthz))
	a.mux.HandleFunc("/readyz", requireGET(a.handleReadyz))
	a.mux.HandleFunc("/admin/checkpoint", a.handleAdminCheckpoint)
	// A rejected candidate is a 200 with "accepted": false — the gate
	// worked; only a training failure is a 500.
	a.mux.HandleFunc("/admin/retrain", adminAction(a, "retrain", &a.Admin.Retrain, "retraining not configured", "retrain failed"))
	a.mux.HandleFunc("/admin/sweep", adminAction(a, "sweep", &a.Admin.Sweep, "sweeping not configured", "sweep failed"))
	a.mux.HandleFunc("/admin/embed/refresh", adminAction(a, "embed/refresh", &a.Admin.EmbedRefresh, "embedding tier not configured", "embed refresh failed"))
	a.mux.HandleFunc("/admin/rollback", a.handleAdminRollback)
	a.mux.HandleFunc("/admin/models", requireGET(a.handleAdminModels))
	if pred != nil {
		pred.Tel.RegisterHTTPInflightGauge(func() float64 {
			return float64(a.inFlight.Load())
		})
	}
	return a
}

// limitBody caps r's body at MaxBodyBytes so a single oversized request
// cannot exhaust memory; reads past the cap yield *http.MaxBytesError.
func (a *API) limitBody(w http.ResponseWriter, r *http.Request) {
	limit := a.MaxBodyBytes
	if limit <= 0 {
		limit = defaultMaxBodyBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
}

// SetReady flips the boot-time readiness gate: false while recovering
// (readyz answers 503 and admin actions are refused), true once the
// state is rebuilt and the model is loaded.
func (a *API) SetReady(ready bool) { a.notReady.Store(!ready) }

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.inFlight.Add(1)
	defer a.inFlight.Add(-1)
	a.mux.ServeHTTP(w, r)
}

// requireGET rejects every method but GET with 405.
func requireGET(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (a *API) logf(format string, args ...any) {
	if a.ErrorLog != nil {
		a.ErrorLog.Printf(format, args...)
	}
}

func (a *API) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	a.limitBody(w, r)
	var l behavior.Log
	if err := json.NewDecoder(r.Body).Decode(&l); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad log: %v", err), http.StatusBadRequest)
		return
	}
	if !l.Type.Valid() {
		http.Error(w, fmt.Sprintf("invalid behavior type %d", l.Type), http.StatusBadRequest)
		return
	}
	if l.Time.IsZero() {
		l.Time = time.Now()
	}
	a.BN.Ingest(l)
	w.WriteHeader(http.StatusAccepted)
}

func (a *API) handleTransaction(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	a.limitBody(w, r)
	uid, err := parseUID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a.BN.RegisterTransaction(uid)
	w.WriteHeader(http.StatusAccepted)
}

func (a *API) handlePredict(w http.ResponseWriter, r *http.Request) {
	uid, err := parseUID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pred, err := a.Pred.PredictCtx(r.Context(), uid, time.Now())
	switch {
	case err == nil:
		writeJSON(w, pred)
	case errors.Is(err, ErrUnknownUser):
		http.Error(w, fmt.Sprintf("unknown user %d", uid), http.StatusNotFound)
	case errors.Is(err, resilience.ErrOverloaded):
		http.Error(w, "server overloaded, retry later", http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		http.Error(w, "audit timed out", http.StatusGatewayTimeout)
	default:
		a.logf("predict uid=%d: %v", uid, err)
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

func (a *API) handleLatency(w http.ResponseWriter, r *http.Request) {
	// Each digest carries both the human-readable duration string and the
	// raw nanosecond value, so dashboards don't have to parse "1.2ms".
	type digest struct {
		Count  int    `json:"count"`
		Mean   string `json:"mean"`
		MeanNs int64  `json:"mean_ns"`
		P50    string `json:"p50"`
		P50Ns  int64  `json:"p50_ns"`
		P99    string `json:"p99"`
		P99Ns  int64  `json:"p99_ns"`
		P999   string `json:"p999"`
		P999Ns int64  `json:"p999_ns"`
	}
	out := make(map[string]digest)
	for name, s := range a.Pred.LatencySummaries() {
		out[name] = digest{
			Count:  s.Count,
			Mean:   s.Mean.String(),
			MeanNs: int64(s.Mean),
			P50:    s.P50.String(),
			P50Ns:  int64(s.P50),
			P99:    s.P99.String(),
			P99Ns:  int64(s.P99),
			P999:   s.P999.String(),
			P999Ns: int64(s.P999),
		}
	}
	writeJSON(w, out)
}

// handleMetrics serves the telemetry registry in Prometheus text format.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tel := a.Pred.Tel
	if tel == nil {
		http.Error(w, "telemetry not configured", http.StatusNotFound)
		return
	}
	tel.Registry.Handler().ServeHTTP(w, r)
}

// handleTraces serves the last n completed audit traces, newest first.
// n defaults to 20 and is bounded by the ring size. slow_ms=K keeps
// only traces whose end-to-end duration is at least K milliseconds
// (applied after the newest-n cut, so it narrows the same window an
// unfiltered request would return).
func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	tel := a.Pred.Tel
	if tel == nil || tel.Tracer.Ring() == nil {
		http.Error(w, "tracing not configured", http.StatusNotFound)
		return
	}
	n := 20
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, fmt.Sprintf("bad n %q: want a positive integer", s), http.StatusBadRequest)
			return
		}
		n = v
	}
	var slowMin time.Duration
	if s := r.URL.Query().Get("slow_ms"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf("bad slow_ms %q: want a non-negative integer", s), http.StatusBadRequest)
			return
		}
		slowMin = time.Duration(v) * time.Millisecond
	}
	ring := tel.Tracer.Ring()
	traces := ring.Last(n) // clamped to ring size; never unbounded
	if slowMin > 0 {
		kept := traces[:0]
		for _, t := range traces {
			if t.Total() >= slowMin {
				kept = append(kept, t)
			}
		}
		traces = kept
	}
	writeJSON(w, map[string]any{
		"ring_size": ring.Size(),
		"returned":  len(traces),
		"traces":    traces,
	})
}

// handleStats serves node/edge counts from the current snapshot — the
// lock-free read path — never from the live (locked) graph, so a stats
// poll cannot contend with window-job writes.
func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := a.BN.Snapshot()
	st := snap.Stats()
	body := map[string]any{
		"nodes":          st.Nodes,
		"edges":          st.Edges,
		"edges_by_type":  st.EdgesByType,
		"logs":           a.BN.Store().Len(),
		"snapshot_epoch": snap.Epoch(),
		"served_by":      a.Pred.ServedCounts(),
		"breaker":        a.Pred.BreakerState(),
	}
	if a.Sweep != nil {
		sweep := map[string]any{"in_flight": a.Sweep.InFlight()}
		if rep, ok := a.Sweep.LastReport(); ok {
			sweep["last"] = rep
		}
		body["sweep"] = sweep
	}
	if a.Embed != nil {
		body["embed"] = a.Embed.StatsSnapshot()
	}
	writeJSON(w, body)
}

// handleSubgraph renders a user's computation subgraph as Graphviz DOT
// (the Figs. 5/6/9a visualization, drawn from the BN server's current
// snapshot). A user the snapshot has no node for and with no registered
// transaction is unknown: 404, as on /predict.
func (a *API) handleSubgraph(w http.ResponseWriter, r *http.Request) {
	uid, err := parseUID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if node := graph.NodeID(uid); !a.BN.Snapshot().HasNode(node) && !a.BN.TxnFilter()(node) {
		http.Error(w, fmt.Sprintf("unknown user %d", uid), http.StatusNotFound)
		return
	}
	sg := a.BN.Sample(uid)
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	title := fmt.Sprintf("user-%d", uid)
	if err := sg.WriteDOT(w, title, nil); err != nil {
		a.logf("subgraph uid=%d: %v", uid, err)
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

// requirePOSTReady gates an admin handler: POST only (405), 503 while
// the server is still recovering, and a bounded request body.
func (a *API) requirePOSTReady(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if a.notReady.Load() {
		http.Error(w, "server not ready", http.StatusServiceUnavailable)
		return false
	}
	a.limitBody(w, r)
	return true
}

// handleAdminCheckpoint forces a durable checkpoint and reports what was
// written.
func (a *API) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !a.requirePOSTReady(w, r) {
		return
	}
	if a.Admin.Checkpoint == nil {
		http.Error(w, "checkpointing not configured", http.StatusServiceUnavailable)
		return
	}
	info, err := a.Admin.Checkpoint()
	if err != nil {
		a.logf("admin/checkpoint: %v", err)
		http.Error(w, "checkpoint failed", http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{
		"wal_lsn":            info.LSN,
		"bytes":              info.Bytes,
		"took_ns":            int64(info.Took),
		"truncated_segments": info.TruncatedSegments,
	})
}

// runCancellable executes fn in its own goroutine and waits for either
// its result or the request context: a disconnected client unblocks the
// handler immediately (false return) instead of leaking a blocked
// handler goroutine, while fn itself runs to completion in the
// background with ctx telling it the caller is gone.
func runCancellable[T any](ctx context.Context, fn func(ctx context.Context) (T, error)) (T, error, bool) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1) // buffered: the worker never blocks on an absent reader
	go func() {
		v, err := fn(ctx)
		ch <- result{v, err}
	}()
	select {
	case res := <-ch:
		return res.v, res.err, true
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err(), false
	}
}

// adminAction serves one long-running admin hook, read from *hook at
// request time: POST only, 503 while recovering or when the hook is nil
// (unconfigured), the hook's report as JSON, and a masked 500 with
// failed when it errs; the error itself goes to the log under
// "admin/<name>". The hook runs through runCancellable, so a
// disconnected client unblocks the handler immediately.
func adminAction[R any](a *API, name string, hook *func(context.Context) (R, error), unconfigured, failed string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !a.requirePOSTReady(w, r) {
			return
		}
		fn := *hook
		if fn == nil {
			http.Error(w, unconfigured, http.StatusServiceUnavailable)
			return
		}
		rep, err, done := runCancellable(r.Context(), fn)
		if !done {
			a.logf("admin/%s: client gone: %v", name, err)
			return // nobody left to answer
		}
		if err != nil {
			a.logf("admin/%s: %v", name, err)
			http.Error(w, failed, http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	}
}

// handleAdminRollback re-installs the previous accepted model. 409 when
// there is nothing to roll back to.
func (a *API) handleAdminRollback(w http.ResponseWriter, r *http.Request) {
	if !a.requirePOSTReady(w, r) {
		return
	}
	if a.Admin.Rollback == nil {
		http.Error(w, "rollback not configured", http.StatusServiceUnavailable)
		return
	}
	reason := r.URL.Query().Get("reason")
	if reason == "" {
		reason = "operator rollback via /admin/rollback"
	}
	if err := a.Admin.Rollback(reason); err != nil {
		a.logf("admin/rollback: %v", err)
		http.Error(w, "nothing to roll back to", http.StatusConflict)
		return
	}
	body := map[string]any{"rolled_back": true, "reason": reason}
	if a.Admin.Lifecycle != nil {
		body["lifecycle"] = a.Admin.Lifecycle()
	}
	writeJSON(w, body)
}

// handleAdminModels serves the deployment lineage: every artifact
// version with its lifecycle status and rejection reasons, plus the
// manager's safe-deployment summary.
func (a *API) handleAdminModels(w http.ResponseWriter, r *http.Request) {
	if a.Admin.Models == nil {
		http.Error(w, "model lineage not configured", http.StatusServiceUnavailable)
		return
	}
	models := a.Admin.Models()
	body := map[string]any{"count": len(models), "models": models}
	if a.Admin.Lifecycle != nil {
		body["lifecycle"] = a.Admin.Lifecycle()
	}
	writeJSON(w, body)
}

// handleHealthz is the liveness probe: the process is up and serving.
func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: a snapshot has been published, a
// model is loaded, and the breaker state is reported. Not ready → 503,
// so load balancers stop routing audits here while still seeing the
// process as alive.
func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := a.BN.Snapshot()
	modelLoaded := a.Pred.ModelLoaded()
	recovering := a.notReady.Load()
	ready := snap != nil && modelLoaded && !recovering
	body := map[string]any{
		"ready":        ready,
		"model_loaded": modelLoaded,
		"recovering":   recovering,
		"breaker":      a.Pred.BreakerState(),
	}
	if snap != nil {
		body["snapshot_epoch"] = snap.Epoch()
	}
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		a.logf("readyz: %v", err)
	}
}

func parseUID(r *http.Request) (behavior.UserID, error) {
	s := r.URL.Query().Get("uid")
	if s == "" {
		return 0, fmt.Errorf("missing uid parameter")
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad uid %q: %v", s, err)
	}
	return behavior.UserID(v), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
