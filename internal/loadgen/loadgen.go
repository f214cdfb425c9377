// Package loadgen is the open-loop load harness for turbo-server: it
// drives the HTTP API with a schedule-based arrival process and scores
// the run into a latency scoreboard (BENCH_load.json).
//
// Open-loop means arrivals follow the configured rate, not the
// server's responses: op i's intended start is start + i/QPS, fixed
// before the run. Latency is recorded from that intended start to
// response completion, so when the server stalls, every op scheduled
// during the stall accrues queueing delay and the percentiles show it.
// A closed-loop driver (issue, wait, issue) would silently stretch the
// schedule instead and hide exactly the pathologies a fraud-scoring
// SLA cares about — the coordinated-omission trap. The worker pool
// only bounds in-flight connections; the schedule never waits for a
// worker, it queues (and, past a deep high-water mark, fails) the op
// with its intended timestamp intact.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/telemetry"
)

// Kind names a driven endpoint.
type Kind string

// The two traffic classes of the mix.
const (
	KindAudit  Kind = "audit"  // GET /predict?uid=
	KindIngest Kind = "ingest" // POST /ingest
)

// Op is one scheduled request.
type Op struct {
	Kind Kind
	UID  behavior.UserID
	Log  behavior.Log // payload when Kind == KindIngest
}

// Stage is one constant-rate segment of the run.
type Stage struct {
	QPS      float64
	Duration time.Duration
}

// RampStages builds a stepped ramp from start to max (inclusive-ish)
// in fixed increments, each held for d — the max-sustainable-QPS
// search schedule.
func RampStages(start, step, max float64, d time.Duration) []Stage {
	var stages []Stage
	for qps := start; qps <= max+1e-9; qps += step {
		stages = append(stages, Stage{QPS: qps, Duration: d})
	}
	return stages
}

// Config parameterizes a run.
type Config struct {
	// Stages run back to back; each is offered at its QPS.
	Stages []Stage
	// AuditFrac is the fraction of ops that are audits; the rest are
	// ingests.
	AuditFrac float64
	// Users is the audit uid space [1, Users].
	Users int
	// ZipfS skews audit uid draws with a Zipf(s) distribution over the
	// uid space: uid 1 is the hottest target, so audits repeatedly
	// re-hit the same neighborhoods (the embedding tier's best case and
	// the invalidation path's worst). 0 keeps the uniform draw; valid
	// values are in (0, 1) — 0.99 is the YCSB-style heavy skew. The
	// draw comes from the op hash, so runs stay deterministic under
	// Seed either way.
	ZipfS float64
	// Workers bounds in-flight requests (default 128). It shapes
	// concurrency, never the schedule.
	Workers int
	// Timeout bounds one request (default 5s); a timed-out op counts
	// as a transport error at its full elapsed latency.
	Timeout time.Duration
	// Seed fixes the op mix and uid draws.
	Seed uint64
	// Source supplies ingest payloads; nil selects a SyntheticSource.
	Source LogSource
	// StopAfterUnsustained ends the run after the first stage that
	// fails the sustainability criteria (ramp searches).
	StopAfterUnsustained bool
	// SustainedAchievedFrac and SustainedErrorRate define "sustained":
	// achieved/offered ≥ the fraction (default 0.9) and error rate ≤
	// the rate (default 0.01).
	SustainedAchievedFrac float64
	SustainedErrorRate    float64

	// zipf is the compiled sampler when ZipfS is set (built in
	// defaults, nil for the uniform mix).
	zipf *zipfSampler
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 128
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Users <= 0 {
		c.Users = 1
	}
	if c.AuditFrac < 0 {
		c.AuditFrac = 0
	}
	if c.AuditFrac > 1 {
		c.AuditFrac = 1
	}
	if c.SustainedAchievedFrac <= 0 {
		c.SustainedAchievedFrac = 0.90
	}
	if c.SustainedErrorRate <= 0 {
		c.SustainedErrorRate = 0.01
	}
	if c.Source == nil {
		c.Source = NewSyntheticSource(c.Seed, c.Users)
	}
	if c.ZipfS > 0 && c.ZipfS < 1 {
		c.zipf = newZipfSampler(c.Users, c.ZipfS)
	}
}

// LogSource supplies ingest payloads. It is called from the dispatcher
// goroutine only, so implementations need no locking.
type LogSource interface {
	// NextLog returns the next payload, stamped at (or near) now so
	// the server's event-time watermark tracks the wall clock.
	NextLog(now time.Time) behavior.Log
}

// SyntheticSource emits deterministic logs over a fixed uid space with
// enough value sharing (household IPs, workplace cells) to grow a
// connected behavior network.
type SyntheticSource struct {
	seed  uint64
	users int
	n     uint64
}

// NewSyntheticSource builds a source over uid space [1, users].
func NewSyntheticSource(seed uint64, users int) *SyntheticSource {
	if users < 1 {
		users = 1
	}
	return &SyntheticSource{seed: seed, users: users}
}

// NextLog implements LogSource.
func (s *SyntheticSource) NextLog(now time.Time) behavior.Log {
	s.n++
	h := splitmix64(s.seed + s.n)
	uid := behavior.UserID(1 + h%uint64(s.users))
	var ty behavior.Type
	var val string
	switch (h >> 32) % 4 {
	case 0:
		ty, val = behavior.DeviceID, fmt.Sprintf("lg-dev-%d", uid)
	case 1:
		ty, val = behavior.IPv4, fmt.Sprintf("lg-ip-%d", uid/4)
	case 2:
		ty, val = behavior.WiFiMAC, fmt.Sprintf("lg-wifi-%d", uid/8)
	default:
		ty, val = behavior.GPS100, fmt.Sprintf("lg-cell-%d", uid/16)
	}
	return behavior.Log{User: uid, Type: ty, Value: val, Time: now}
}

// splitmix64 is the uid/mix hash (deterministic, dependency-free).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Target executes one op and returns the HTTP status (0 with err for
// transport failures).
type Target interface {
	Do(ctx context.Context, op Op) (status int, err error)
}

// TierCounter is an optional Target capability: cumulative counts of
// audits answered per degradation-ladder tier (the served_by section of
// the server's /stats). When a target implements it, Run snapshots the
// counters around every stage and reports the per-stage delta, so the
// scoreboard shows which tier (embed, full, fallback, cache, …)
// actually absorbed the offered load. Failures are soft: a stage whose
// snapshot errs simply omits the breakdown.
type TierCounter interface {
	ServedCounts(ctx context.Context) (map[string]int64, error)
}

// maxPending is the high-water mark of the op queue: past it the
// server is hopelessly behind and ops fail on the spot (still scored
// against their intended start) instead of buffering without bound.
const maxPending = 1 << 20

// endpointStats accumulates one endpoint's counters within a stage.
type endpointStats struct {
	latency *telemetry.Histogram // intended start → response complete
	service *telemetry.Histogram // request sent → response complete
	ok      atomic.Int64
	shed    atomic.Int64 // 429
	notF    atomic.Int64 // 404 (healthy answer for a cold uid)
	other   atomic.Int64 // remaining non-2xx
	transp  atomic.Int64 // transport error / timeout / queue overflow
}

func newEndpointStats() *endpointStats {
	return &endpointStats{latency: telemetry.NewHistogram(), service: telemetry.NewHistogram()}
}

func (s *endpointStats) record(status int, err error, latency, service time.Duration) {
	s.latency.Observe(latency)
	s.service.Observe(service)
	switch {
	case err != nil:
		s.transp.Add(1)
	case status == 429:
		s.shed.Add(1)
	case status == 404:
		s.notF.Add(1)
	case status >= 200 && status < 300:
		s.ok.Add(1)
	default:
		s.other.Add(1)
	}
}

func (s *endpointStats) count() int64 {
	return s.ok.Load() + s.shed.Load() + s.notF.Load() + s.other.Load() + s.transp.Load()
}

func (s *endpointStats) errors() int64 {
	return s.shed.Load() + s.other.Load() + s.transp.Load()
}

// schedOp is an op with its intended start.
type schedOp struct {
	op       Op
	intended time.Time
}

// Run executes every stage against target and scores the run. A
// canceled ctx ends the run early; the stages completed so far are
// still reported (Report.Canceled is set).
func Run(ctx context.Context, cfg Config, target Target) (*Report, error) {
	cfg.defaults()
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("loadgen: no stages configured")
	}
	for _, st := range cfg.Stages {
		if st.QPS <= 0 || st.Duration <= 0 {
			return nil, fmt.Errorf("loadgen: invalid stage %+v", st)
		}
	}
	if cfg.ZipfS != 0 && cfg.zipf == nil {
		return nil, fmt.Errorf("loadgen: ZipfS %v outside (0,1); 0 disables the skew", cfg.ZipfS)
	}
	rep := &Report{
		AuditFrac: cfg.AuditFrac,
		Users:     cfg.Users,
		Workers:   cfg.Workers,
		Seed:      cfg.Seed,
		ZipfS:     cfg.ZipfS,
	}
	tc, _ := target.(TierCounter)
	for _, st := range cfg.Stages {
		var before map[string]int64
		if tc != nil {
			before, _ = tc.ServedCounts(ctx)
		}
		sr := runStage(ctx, &cfg, st, target)
		if tc != nil && before != nil {
			if after, err := tc.ServedCounts(ctx); err == nil {
				sr.ServedBy = diffCounts(before, after)
				for tier, n := range sr.ServedBy {
					if rep.ServedBy == nil {
						rep.ServedBy = make(map[string]int64)
					}
					rep.ServedBy[tier] += n
				}
			}
		}
		rep.Stages = append(rep.Stages, sr)
		if sr.Sustained && st.QPS > rep.MaxSustainableQPS {
			rep.MaxSustainableQPS = st.QPS
		}
		if ctx.Err() != nil {
			rep.Canceled = true
			break
		}
		if cfg.StopAfterUnsustained && !sr.Sustained {
			break
		}
	}
	return rep, nil
}

// runStage offers one constant-rate segment and drains it.
func runStage(ctx context.Context, cfg *Config, st Stage, target Target) StageReport {
	total := int(math.Ceil(st.QPS * st.Duration.Seconds()))
	if total < 1 {
		total = 1
	}
	capacity := total
	if capacity > maxPending {
		capacity = maxPending
	}
	ch := make(chan schedOp, capacity)
	stats := map[Kind]*endpointStats{
		KindAudit:  newEndpointStats(),
		KindIngest: newEndpointStats(),
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for so := range ch {
				opCtx, cancel := context.WithTimeout(ctx, cfg.Timeout)
				sent := time.Now()
				status, err := target.Do(opCtx, so.op)
				cancel()
				done := time.Now()
				stats[so.op.Kind].record(status, err,
					done.Sub(so.intended), done.Sub(sent))
			}
		}()
	}

	// The dispatcher: walk the schedule, never letting the target's
	// pace push the intended times.
	interval := time.Duration(float64(time.Second) / st.QPS)
	start := time.Now()
	scheduled := 0
dispatch:
	for i := 0; i < total; i++ {
		intended := start.Add(time.Duration(i) * interval)
		if d := time.Until(intended); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			}
		}
		so := schedOp{op: cfg.nextOp(uint64(i), intended), intended: intended}
		scheduled++
		select {
		case ch <- so:
		default:
			// Queue past the high-water mark: fail now, scored
			// against the schedule.
			stats[so.op.Kind].record(0, fmt.Errorf("op queue overflow"),
				time.Since(so.intended), 0)
		}
	}
	close(ch)
	wg.Wait()
	elapsed := time.Since(start)

	return scoreStage(cfg, st, elapsed, scheduled, stats)
}

// nextOp derives op i of a stage: the mix and uid draws come from the
// seeded hash so runs with the same seed issue the same request
// sequence — including under the Zipf skew, whose rank is a pure
// function of the same hash.
func (c *Config) nextOp(i uint64, intended time.Time) Op {
	h := splitmix64(c.Seed ^ (i + 0x51ED2701))
	if float64(h>>11)/float64(1<<53) < c.AuditFrac {
		r := splitmix64(h)
		uid := 1 + r%uint64(c.Users)
		if c.zipf != nil {
			uid = uint64(c.zipf.rank(float64(r>>11) / float64(1<<53)))
		}
		return Op{Kind: KindAudit, UID: behavior.UserID(uid)}
	}
	l := c.Source.NextLog(intended)
	return Op{Kind: KindIngest, UID: l.User, Log: l}
}
