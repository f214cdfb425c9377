package main

import (
	"fmt"

	"turbo/internal/server"
)

// metricSpec names one printed metric. The two lists below are the
// benchmark's whole vocabulary; BENCHMARK.json repeats them with
// direction and bound, and a test keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEnd is printed by every untraced run. The names are generic
// because every workload prints all of them; what the primary op is on
// each workload is in the README's catalogue.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// servedTiers are the server's own outcome strings.
var servedTiers = []string{
	server.TierEmbed, server.TierFull, server.TierFallback, server.TierCache, server.TierPrior, "shed", "unknown",
}

// perLayer is printed by every traced run; a layer a workload does not
// exercise reports 0.
var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"datagen.generate_s", "s"}, {"datagen.logs", "count"},
		{"behavior.append_ns_per_log", "ns"}, {"behavior.store_logs", "count"},
		{"bn.advance_busy_s", "s"}, {"bn.advance_tick_ms_p50", "ms"}, {"bn.advance_tick_ms_p99", "ms"},
		{"bn.jobs", "count"}, {"bn.edge_updates", "count"}, {"bn.pruned", "count"}, {"bn.lag_ms", "ms"},
		{"graph.sample_us_p50", "us"}, {"graph.sample_us_p99", "us"}, {"graph.sample_nodes", "count"},
		{"graph.sample_edges", "count"}, {"graph.snapshot_us", "us"}, {"graph.nodes", "count"},
		{"graph.edges", "count"}, {"graph.shard_skew", "ratio"},
		{"feature.vector_us", "us"}, {"feature.fanout_us", "us"}, {"feature.cache_hit_ratio", "ratio"},
		{"gnn.batch_compile_us", "us"}, {"gnn.allocs_per_score", "count"},
		{"hag.score_f32_us", "us"}, {"hag.score_f64_us", "us"}, {"hag.tape_us", "us"}, {"hag.f32_fallbacks", "count"},
		{"tensor.flops_per_audit", "count"}, {"tensor.matmul_f32_us", "us"}, {"tensor.matmul_f64_us", "us"},
		{"embed.try_serve_us", "us"}, {"embed.hit_ratio", "ratio"}, {"embed.demote_dirty", "count"},
		{"embed.demote_miss", "count"}, {"embed.demote_fallback", "count"}, {"embed.dirty_rows", "count"},
		{"embed.refresh_ms", "ms"}, {"embed.refresh_rows", "count"}, {"embed.rebuild_ms", "ms"},
		{"sweep.run_ms", "ms"}, {"sweep.skipped", "count"}, {"sweep.users_per_s", "1/s"},
		{"server.predict_us_p50", "us"}, {"server.predict_us_p99", "us"}, {"server.predict_us_mean", "us"},
		{"server.attributed_us", "us"}, {"server.unattributed_us", "us"}, {"server.http_overhead_us", "us"},
		{"server.ingest_us", "us"}, {"server.heap_growth_mb", "MB"},
	}
	for _, tier := range servedTiers {
		l = append(l, metricSpec{"server.served_by." + tier, "count"})
	}
	return append(l,
		metricSpec{"telemetry.scrape_ms", "ms"}, metricSpec{"metrics.latency_samples", "count"},
		metricSpec{"runtime.allocs_per_op", "count"}, metricSpec{"runtime.bytes_per_op", "B"},
		metricSpec{"runtime.gc_pause_ms", "ms"},
		metricSpec{"loadgen.sent", "count"}, metricSpec{"loadgen.ok", "count"}, metricSpec{"loadgen.failed", "count"},
		metricSpec{"loadgen.late_ms_p50", "ms"}, metricSpec{"loadgen.late_ms_p99", "ms"}, metricSpec{"loadgen.audit_mean_ms", "ms"}, metricSpec{"loadgen.audit_p90_ms", "ms"}, metricSpec{"loadgen.audit_p99_ms", "ms"},
		metricSpec{"loadgen.audit_slo_share", "share"}, metricSpec{"loadgen.ingest_p50_ms", "ms"},
		metricSpec{"loadgen.ingest_p99_ms", "ms"}, metricSpec{"loadgen.closed_ops", "count"},
		metricSpec{"trace.ops", "count"},
	)
}()

// result is one run's outcome: the contract's four keys, with both
// metric families kept apart until printing picks one.
type result struct {
	attempted, failed int
	notes             []string // what failed, for the human reader
	e2e, layer        map[string]float64
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// fail counts n failed items out of n more attempted ones.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}
