package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/eval"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/loadgen"
	"turbo/internal/tensor"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spec     worldSpec
	tr       *trained // nil trains under the seed
}

// serveSpec is the traffic of one HTTP workload. Every serving workload
// has the same three phases, splitting --seconds 1:6:8 — an open-loop
// warm-up, the measured open loop at openRate (latency), and a closed
// loop of nproc clients (throughput) — so a workload is only its
// traffic and its serving config.
type serveSpec struct {
	embedTier bool
	zipf      float64 // 0 = uniform uids
	auditFrac float64
	openRate  float64 // offered ops/s of the open loop
	churn     bool    // ingests, Advance and RefreshOnce run beside the audits
	// closedLatency takes latency_p50_ms from the closed loop, where an
	// op is due when its client is free, so intended and actual send
	// time are one. An embed hit is ≈0.07 ms over HTTP and loadgen's
	// timer wakes ≈0.5 ms late on the reference box: timed from the
	// open loop's intended send time, the median would be nine tenths
	// generator and blind to the layers the workload exists to show.
	closedLatency bool
}

// Frozen workload constants.
var serveSpecs = map[string]serveSpec{
	"audit-full":  {auditFrac: 1, openRate: 200},
	"audit-embed": {embedTier: true, zipf: 0.99, auditFrac: 1, openRate: 4000, closedLatency: true},
	"churn":       {embedTier: true, zipf: 0.99, auditFrac: 0.5, openRate: 400, churn: true},
}

const (
	// The three phases' shares of --seconds.
	warmParts, openParts, closedParts = 1, 6, 8

	// churnClockRatio is how fast churn's event clock runs against the
	// wall clock: one event hour, the smallest BN window, per second.
	churnClockRatio = 3600
	// churnTick is the period of churn's Advance and RefreshOnce. At 400
	// ops/s a tick re-weights ≈50 edges, which in a graph of mean degree
	// 43 dirties nearly every row, so the embed tier is out from each
	// Advance until the refresh after it: the refresh runs a quarter tick
	// later, tuned once so that the baseline embed.hit_ratio (≈0.7)
	// sits inside 0.3–0.9 and on one side of the median audit, then
	// frozen.
	churnTick = time.Second
	// rateWindow is the window of throughput_per_s, which is the mean rate
	// of the better half of the closed loop's windows. The reference box
	// has spells, from a second to a whole run long, in which everything
	// on two threads runs a quarter slower, and the closed loop itself
	// takes a second or two to reach its pace; both only ever slow a
	// window down, and a mean over the whole loop carries however many
	// slow ones a run caught (spread 0.15 over ten seeds, against 0.03 to
	// 0.12 this way). One churn tick long, so that every window on churn
	// holds one Advance, one dirty spell and one refresh.
	rateWindow = churnTick

	checkSamples   = 200  // audits re-scored per run (20 per second in shorter runs)
	shadowOps      = 2000 // most ops the traced replay walks
	replayRebuilds = 10   // RebuildOnce calls per replay round
	minRounds      = 3    // replay rounds per run, at least
)

// constants spells out the frozen values a run of cfg's workload is
// measured under, for the result record.
func (cfg runConfig) constants() string {
	s := fmt.Sprintf("world %+v seed %d, checks %d", cfg.spec, worldSeed, checkSamples)
	if sp, ok := serveSpecs[cfg.workload]; ok {
		s += fmt.Sprintf(", traffic %+v, phases %d:%d:%d, rate window %v, shadow ops %d",
			sp, warmParts, openParts, closedParts, rateWindow, shadowOps)
		if sp.churn {
			s += fmt.Sprintf(", clock ×%d, tick %v", churnClockRatio, churnTick)
		}
		return s
	}
	return s + fmt.Sprintf(", rebuilds %d, rounds ≥ %d", replayRebuilds, minRounds)
}

func run(cfg runConfig) (*result, error) {
	if cfg.tr == nil {
		cfg.tr = train(cfg.seed, cfg.spec.trainEpochs)
	}
	if cfg.workload == "replay" {
		return runReplay(cfg)
	}
	sp, ok := serveSpecs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return runServe(cfg, sp)
}

// churnLoop is the write side of the churn workload: every churnTick it
// advances the BN to the event clock (window jobs, prune, snapshot
// publish, dirty-ball marking) and a quarter tick later refreshes the
// embed table's dirty set, until ctx ends.
type churnLoop struct {
	tickMs, refreshMs, refreshRows, dirtyRows []float64
	done                                      chan struct{}
}

func startChurn(ctx context.Context, w *world, clock *eventClock) *churnLoop {
	c := &churnLoop{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(churnTick / 4)
		defer t.Stop()
		for quarter := 0; ; quarter = (quarter + 1) % 4 {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			switch quarter {
			case 0:
				t0 := time.Now()
				w.sys.Advance(clock.at(t0))
				c.tickMs = append(c.tickMs, ms(time.Since(t0)))
				continue
			case 2, 3:
				continue
			}
			c.dirtyRows = append(c.dirtyRows, float64(w.embed.Store().Table().DirtyCount()))
			rep := w.embed.RefreshOnce()
			c.refreshMs = append(c.refreshMs, ms(rep.Elapsed))
			c.refreshRows = append(c.refreshRows, float64(rep.Ball))
		}
	}()
	return c
}

// markMem collects, returns what is free to the OS (so that the heap
// training and set-up left behind is not in the resident set the
// measured phases are charged with) and reads the heap.
func markMem() runtime.MemStats {
	var m runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m)
	return m
}

// scrape reads the server's own counters the way an operator would:
// GET /metrics, timed.
func scrape(h http.Handler) (map[string]float64, time.Duration) {
	rr := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseProm(rr.Body.String()), time.Since(t0)
}

func runServe(cfg runConfig, sp serveSpec) (*result, error) {
	ctx := context.Background()
	res := newResult()
	w, setup, err := buildWorld(cfg.spec, cfg.tr, sp.embedTier)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = (cfg.tr.took + setup.total()).Seconds()

	api := w.sys.API()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: api, ReadHeaderTimeout: 5 * time.Second}
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Shutdown(ctx)
		<-srvDone
	}()

	conns := runtime.NumCPU()
	inner := loadgen.NewHTTPTarget("http://"+ln.Addr().String(), conns)
	defer inner.Client.CloseIdleConnections()
	rec := &recorder{inner: inner}
	tf := newTraffic(cfg.seed, len(w.data.Users), sp.auditFrac, sp.zipf)
	src := &opSource{t: tf}

	total := time.Duration(cfg.seconds * float64(time.Second))
	const parts = warmParts + openParts + closedParts
	warm, open, closed := total*warmParts/parts, total*openParts/parts, total*closedParts/parts

	var churn *churnLoop
	stopChurn := func() {}
	if sp.churn {
		snap := w.sys.BNServer().Snapshot()
		tf.partners = make([][]behavior.UserID, tf.users)
		for u := range tf.partners {
			for _, v := range snap.Neighbors(graph.NodeID(u)) {
				tf.partners[u] = append(tf.partners[u], behavior.UserID(v))
			}
		}
		rec.clock = &eventClock{wall0: time.Now(), event0: w.data.End.Add(2 * time.Hour), ratio: churnClockRatio}
		cctx, cancel := context.WithCancel(ctx)
		churn = startChurn(cctx, w, rec.clock)
		stopChurn = func() { cancel(); <-churn.done }
	}
	defer stopChurn()

	served0, err := inner.ServedCounts(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := openLoop(ctx, rec, src, sp.openRate, warm, conns); err != nil {
		return nil, err
	}

	// Measured phases.
	mem0 := markMem()
	rss := watchRSS()
	prom0, _ := scrape(api)
	hits0, misses0 := w.sys.Features().CacheStats()
	checks := min(checkSamples, int(20*cfg.seconds))
	sampleEvery := 0
	if !sp.churn { // churn's check audits come after the quiesce below
		sampleEvery = max(1, int(sp.openRate*sp.auditFrac*open.Seconds())/checks)
	}
	openStats := rec.begin(sampleEvery)
	rep, err := openLoop(ctx, rec, src, sp.openRate, open, conns)
	if err != nil {
		return nil, err
	}
	prom1, scrapeTook := scrape(api)
	closedStats := rec.begin(0)
	t0 := time.Now()
	closedLoop(ctx, rec, src, conns, closed)
	rec.end()
	stopChurn()
	res.e2e["peak_rss_mb"] = rss.peakMB()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	hits1, misses1 := w.sys.Features().CacheStats()
	heap1 := markMem()

	// Output checks.
	ops := openStats.sent + closedStats.sent
	res.attempted = ops
	if f := openStats.failed + closedStats.failed; f > 0 {
		res.fail(f, "%d of %d ops were not answered 200/202", f, ops)
	}
	if sp.churn {
		// Quiesce, so that the reference and the served score see one graph.
		w.sys.Advance(rec.clock.at(time.Now()))
		w.embed.RefreshOnce()
		for i := 0; len(rec.samples) < checks && i < 20*checks; i++ {
			l := src.NextLog(time.Now())
			if l.Value != "" {
				continue
			}
			s, status, err := rec.audit(ctx, l.User)
			if err != nil || status != http.StatusOK {
				res.attempted++
				res.fail(1, "check audit of user %d: status %d: %v", l.User, status, err)
				continue
			}
			rec.audits200++
			rec.samples = append(rec.samples, s)
		}
	}
	orc := &oracle{w: w}
	res.attempted += len(rec.samples)
	for _, s := range rec.samples {
		if err := orc.check(s); err != nil {
			res.fail(1, "%v", err)
		}
	}
	served1, err := inner.ServedCounts(ctx)
	if err != nil {
		return nil, err
	}
	res.attempted++
	if got, want := tierSum(served1)-tierSum(served0), int64(rec.audits200); got != want {
		res.fail(1, "/stats served_by grew by %d, the client saw %d audits answered 200", got, want)
	}

	// End-to-end metrics.
	res.e2e["latency_p50_ms"] = percentile(openStats.auditMs, 50)
	if sp.closedLatency {
		res.e2e["latency_p50_ms"] = percentile(closedStats.auditMs, 50)
	}
	res.e2e["throughput_per_s"] = betterHalfRate(closedStats.okAt, t0, closed, rateWindow)

	// Per-layer metrics that the load phases themselves give.
	L := res.layer
	L["loadgen.sent"] = float64(openStats.sent)
	L["loadgen.ok"] = float64(openStats.sent - openStats.failed)
	L["loadgen.failed"] = float64(openStats.failed)
	L["loadgen.late_ms_p50"] = percentile(openStats.lateMs, 50)
	L["loadgen.late_ms_p99"] = percentile(openStats.lateMs, 99)
	L["loadgen.audit_mean_ms"] = mean(openStats.auditMs)
	L["loadgen.audit_p90_ms"] = percentile(openStats.auditMs, 90)
	L["loadgen.audit_p99_ms"] = percentile(openStats.auditMs, 99)
	L["loadgen.ingest_p50_ms"] = percentile(openStats.ingestMs, 50)
	L["loadgen.ingest_p99_ms"] = percentile(openStats.ingestMs, 99)
	L["loadgen.closed_ops"] = float64(closedStats.sent)
	if audits := float64(len(openStats.auditMs)); audits > 0 {
		L["loadgen.audit_slo_share"] = float64(openStats.withinSLO) / (audits + float64(openStats.failed))
	}
	if int(rep.Stages[0].Scheduled) != openStats.sent {
		res.fail(1, "loadgen scheduled %d ops, the recorder saw %d", rep.Stages[0].Scheduled, openStats.sent)
	}
	for _, tier := range servedTiers {
		L["server.served_by."+tier] = float64(rep.ServedBy[tier])
	}
	L["server.heap_growth_mb"] = (float64(heap1.HeapAlloc) - float64(mem0.HeapAlloc)) / (1 << 20)
	L["runtime.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(ops)
	L["runtime.bytes_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(ops)
	L["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	L["telemetry.scrape_ms"] = ms(scrapeTook)
	delta := func(series string) float64 { return prom1[series] - prom0[series] }
	// The embed tier's counters are read over the open loop alone: the
	// closed loop issues more ops the more of them hit, which would bias
	// the ratio towards hits.
	hit := delta(`turbo_embedding_serve_total{result="hit"}`)
	L["embed.demote_dirty"] = delta(`turbo_embedding_serve_total{result="dirty"}`)
	L["embed.demote_miss"] = delta(`turbo_embedding_serve_total{result="miss"}`)
	L["embed.demote_fallback"] = delta(`turbo_embedding_serve_total{result="fallback"}`)
	if tries := hit + L["embed.demote_dirty"] + L["embed.demote_miss"] + L["embed.demote_fallback"]; tries > 0 {
		L["embed.hit_ratio"] = hit / tries
	}
	if h, m := float64(hits1-hits0), float64(misses1-misses0); h+m > 0 {
		L["feature.cache_hit_ratio"] = h / (h + m)
	}
	if sp.embedTier {
		L["embed.rebuild_ms"] = ms(setup.rebuild)
	}
	if churn != nil {
		L["bn.advance_tick_ms_p50"] = percentile(churn.tickMs, 50)
		L["bn.advance_tick_ms_p99"] = percentile(churn.tickMs, 99)
		L["embed.dirty_rows"] = mean(churn.dirtyRows)
		L["embed.refresh_ms"] = mean(churn.refreshMs)
		L["embed.refresh_rows"] = mean(churn.refreshRows)
	}
	if samples, err := latencySamples(inner); err == nil {
		L["metrics.latency_samples"] = samples
	}
	if !cfg.trace {
		return res, nil
	}

	// Traced part: the batch layers timed once, then the shadow pipeline.
	staticLayers(res, w, []setupTimes{setup}, prom1)
	tr := &tracer{t0: time.Now()}
	st, err := shadow(w, tr, rec, src, shadowOps, total/3)
	if err != nil {
		return nil, err
	}
	res.attempted += st.audits
	if st.parityMiss > 0 {
		res.fail(st.parityMiss, "trace void: %d of %d shadow scores differ from PredictCtx by more than %g", st.parityMiss, st.audits, exactTol)
	}
	shadowLayers(res, w, tr, st)
	return res, tr.write(fmt.Sprintf("out/trace-%s.json", cfg.workload))
}

// latencySamples reads how many samples the server's own recorder holds
// for the whole audit, from GET /latency.
func latencySamples(t *loadgen.HTTPTarget) (float64, error) {
	resp, err := t.Client.Get(t.Base + "/latency")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body map[string]struct {
		Count float64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return body["total"].Count, nil
}

// staticLayers fills the per-layer metrics that do not depend on the
// traffic: what set-up measured, the graph as built, one sweep, and the
// kernels at the serving shape.
func staticLayers(res *result, w *world, times []setupTimes, prom map[string]float64) {
	L := res.layer
	L["datagen.generate_s"] = medianOf(times, func(t setupTimes) time.Duration { return t.generate }).Seconds()
	L["datagen.logs"] = float64(times[0].logs)
	L["behavior.append_ns_per_log"] = float64(medianOf(times, func(t setupTimes) time.Duration { return t.ingest })) / float64(times[0].logs)
	L["behavior.store_logs"] = float64(w.sys.BNServer().Store().Len())
	L["bn.advance_busy_s"] = medianOf(times, func(t setupTimes) time.Duration { return t.advance }).Seconds()
	L["bn.jobs"] = prom["turbo_bn_window_jobs_total"]
	L["bn.edge_updates"] = prom["turbo_bn_edge_updates_total"]
	L["bn.pruned"] = prom["turbo_bn_pruned_edges_total"]
	L["bn.lag_ms"] = prom["turbo_bn_build_lag_seconds"] * 1e3

	g := w.sys.BNServer().Graph()
	stats := w.sys.BNServer().Snapshot().Stats()
	L["graph.nodes"] = float64(stats.Nodes)
	L["graph.edges"] = float64(stats.Edges)
	L["graph.shard_skew"] = g.ShardSkew()
	var snapUs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		g.Snapshot()
		snapUs = append(snapUs, us(time.Since(t0)))
	}
	L["graph.snapshot_us"] = median(snapUs)

	feats := w.sys.Features()
	var vecUs []float64
	for i := 0; i < 200 && i < len(w.data.Users); i++ {
		u := w.data.Users[i].ID
		feats.InvalidateUser(u)
		t0 := time.Now()
		_, _ = feats.VectorCtx(context.Background(), u, t0)
		vecUs = append(vecUs, us(time.Since(t0)))
	}
	L["feature.vector_us"] = median(vecUs)

	t0 := time.Now()
	rep, err := w.sys.Sweeper().RunOnce(context.Background())
	if took := time.Since(t0); err == nil && rep.Scored > 0 {
		L["sweep.run_ms"] = ms(took)
		L["sweep.skipped"] = float64(rep.Skipped)
		L["sweep.users_per_s"] = float64(rep.Scored) / took.Seconds()
	}
}

// shadowLayers turns the trace into per-layer numbers.
func shadowLayers(res *result, w *world, tr *tracer, st *shadowStats) {
	L := res.layer
	self := selfByName(tr.spans)
	L["trace.ops"] = float64(st.ops)
	L["embed.try_serve_us"] = median(self[spanTryServe])
	L["graph.sample_us_p50"] = percentile(self[spanSample], 50)
	L["graph.sample_us_p99"] = percentile(self[spanSample], 99)
	L["graph.sample_nodes"] = mean(st.nodes)
	L["graph.sample_edges"] = mean(st.edges)
	L["feature.fanout_us"] = median(self[spanFanout])
	L["gnn.batch_compile_us"] = median(self[spanCompile])
	L["hag.score_f32_us"] = median(self[spanScore32])
	L["hag.score_f64_us"] = median(self[spanScore64])
	L["hag.tape_us"] = median(self[spanTape])
	L["server.ingest_us"] = median(self[spanIngest])
	L["server.predict_us_p50"] = percentile(self[spanPredict], 50)
	L["server.predict_us_p99"] = percentile(self[spanPredict], 99)
	L["server.predict_us_mean"] = mean(self[spanPredict])
	L["server.unattributed_us"] = mean(st.unattributedUs)
	L["server.attributed_us"] = L["server.predict_us_mean"] - L["server.unattributed_us"]
	L["server.http_overhead_us"] = mean(st.httpOverheadUs)
	L["tensor.flops_per_audit"] = mean(st.flops)
	if !w.f32 {
		L["hag.f32_fallbacks"] = float64(st.audits)
	}
	if st.keptSample == nil {
		return
	}

	// Allocations of one compile + score, and the dense kernels at the
	// mean serving shape (sample rows × feature columns into layer 1).
	const reps = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		b := gnn.NewBatch(st.keptSample, st.keptX)
		if w.f32 {
			gnn.Score32(w.tr.model, b)
		} else {
			gnn.Score(w.tr.model, b)
		}
		b.Release()
	}
	runtime.ReadMemStats(&m1)
	L["gnn.allocs_per_score"] = float64(m1.Mallocs-m0.Mallocs) / reps

	rows, hidden := int(mean(st.nodes)), eval.DefaultHyper().Hidden[0]
	rng := tensor.NewRNG(1)
	cols := st.keptX.Cols
	a, b := tensor.RandNormal(rows, cols, 1, rng), tensor.RandNormal(cols, hidden, 1, rng)
	a32, b32 := tensor.Quantize(a), tensor.Quantize(b)
	dst, dst32 := tensor.New(rows, hidden), tensor.New32(rows, hidden)
	var f64Us, f32Us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		tensor.MatMulInto(dst, a, b)
		t1 := time.Now()
		tensor.MatMul32Into(dst32, a32, b32)
		f64Us, f32Us = append(f64Us, us(t1.Sub(t0))), append(f32Us, us(time.Since(t1)))
	}
	L["tensor.matmul_f64_us"] = median(f64Us)
	L["tensor.matmul_f32_us"] = median(f32Us)
}

// runReplay is the batch tier: on fresh systems, bulk-ingest the world's
// logs and advance the BN through all of its days, then rebuild the
// embed table replayRebuilds times and sweep once. No HTTP. The primary
// op is one RebuildOnce (latency) and one log built into the BN
// (throughput); a round's load is also what the serving workloads pay
// as setup_s, so the rounds double as the set-up repetitions.
func runReplay(cfg runConfig) (*result, error) {
	ctx := context.Background()
	res := newResult()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var (
		w          *world
		times      []setupTimes
		rebuildMs  []float64
		logsPerSec []float64
		sweepMs    []float64
		nodes      []int
		mem0       = markMem()
		rss        = watchRSS()
	)
	for len(times) < minRounds || time.Since(start) < budget {
		var t setupTimes
		var err error
		w = nil
		runtime.GC() // so that the last round's world is not garbage riding along
		if w, t, err = buildWorld(cfg.spec, cfg.tr, true); err != nil {
			return nil, err
		}
		times = append(times, t)
		logsPerSec = append(logsPerSec, float64(t.logs)/(t.ingest+t.advance).Seconds())
		for i := 0; i < replayRebuilds; i++ {
			t0 := time.Now()
			rep, err := w.embed.RebuildOnce(ctx)
			if err != nil {
				return nil, err
			}
			rebuildMs = append(rebuildMs, ms(time.Since(t0)))
			res.attempted++
			if rep.Rows != len(w.data.Users) || rep.Skipped != 0 {
				res.fail(1, "rebuild embedded %d rows and skipped %d, want %d and 0", rep.Rows, rep.Skipped, len(w.data.Users))
			}
		}
		t0 := time.Now()
		rep, err := w.sys.Sweeper().RunOnce(ctx)
		if err != nil {
			return nil, err
		}
		sweepMs = append(sweepMs, ms(time.Since(t0)))
		res.attempted++
		if rep.Scored != len(w.data.Users) {
			res.fail(1, "sweep scored %d users, want %d", rep.Scored, len(w.data.Users))
		}
		st := w.sys.BNServer().Snapshot().Stats()
		nodes = append(nodes, st.Nodes, st.Edges, t.jobs)
	}
	res.e2e["peak_rss_mb"] = rss.peakMB()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)

	// Output checks: every round built the same BN, and the last table
	// serves the tape's full-graph scores.
	for i := 3; i < len(nodes); i++ {
		if nodes[i] != nodes[i%3] {
			res.fail(1, "round %d built nodes/edges/jobs %v, round 0 built %v", i/3, nodes[i-i%3:i-i%3+3], nodes[:3])
			break
		}
	}
	orc := &oracle{w: w}
	tf := newTraffic(cfg.seed, len(w.data.Users), 1, 0)
	for i := uint64(0); i < uint64(min(checkSamples, int(20*cfg.seconds))); i++ {
		u := tf.op(i).uid
		res.attempted++
		p, err := w.sys.AuditCtx(ctx, u, time.Now())
		if err != nil {
			res.fail(1, "audit of user %d: %v", u, err)
			continue
		}
		if err := orc.check(served{uid: u, prob: p.Probability, tier: p.ServedBy}); err != nil {
			res.fail(1, "%v", err)
		}
	}

	res.e2e["setup_s"] = (cfg.tr.took + medianOf(times, setupTimes.total)).Seconds()
	res.e2e["latency_p50_ms"] = percentile(rebuildMs, 50)
	res.e2e["throughput_per_s"] = median(logsPerSec)
	if !cfg.trace {
		return res, nil
	}

	L := res.layer
	prom, scrapeTook := scrape(w.sys.API())
	staticLayers(res, w, times, prom)
	L["telemetry.scrape_ms"] = ms(scrapeTook)
	L["embed.rebuild_ms"] = median(rebuildMs)
	L["sweep.run_ms"] = median(sweepMs)
	L["sweep.users_per_s"] = float64(len(w.data.Users)) / (median(sweepMs) / 1e3)
	work := float64(len(times) * (1 + replayRebuilds))
	L["runtime.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / work
	L["runtime.bytes_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / work
	L["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	L["server.heap_growth_mb"] = (float64(markMem().HeapAlloc) - float64(mem0.HeapAlloc)) / (1 << 20)
	return res, nil
}
