package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/loadgen"
)

// traffic is the deterministic request mix of a serving workload: op i
// is a pure function of (seed, i). Uids are datagen's own 0-based ids,
// so no audit can 404 on an id the world never had (the two 404s of
// BENCH_load.json came from loadgen's 1-based draw).
type traffic struct {
	seed      uint64
	users     int
	auditFrac float64
	zipf      zipfCDF // Zipf-skewed audit uids; nil deals them from deck
	// deck is a seeded shuffle of the uids: uniform audits walk it round
	// and round, so every run audits every user equally often and two
	// runs differ in order only, not in which users they happened to draw.
	deck []behavior.UserID
	// partners lists, per user, the users it already shares an edge
	// with; churn's ingests re-link those (see op). Nil on the read-only
	// workloads, which ingest nothing.
	partners [][]behavior.UserID
}

// newTraffic compiles the uid draw: zipf > 0 skews audits towards low
// uids, 0 deals them uniformly.
func newTraffic(seed uint64, users int, auditFrac, zipf float64) *traffic {
	t := &traffic{seed: seed, users: users, auditFrac: auditFrac}
	if zipf > 0 {
		t.zipf = newZipfCDF(users, zipf)
		return t
	}
	t.deck = make([]behavior.UserID, users)
	for i := range t.deck {
		t.deck[i] = behavior.UserID(i)
	}
	for i := users - 1; i > 0; i-- { // Fisher–Yates under the schedule hash
		j := splitmix64(splitmix64(^seed)+uint64(i)) % uint64(i+1)
		t.deck[i], t.deck[j] = t.deck[j], t.deck[i]
	}
	return t
}

// op is one request; an empty value marks an audit.
type op struct {
	uid   behavior.UserID
	value string
}

// op returns request i. Ingests link existing users through shared
// values without growing the graph: slots 2j and 2j+1 share a value no
// other slot has, the first going to a drawn user and the second to one
// of that user's existing neighbours, so when both slots are ingests the
// BN re-weights an edge it already has — a delta that dirties both
// neighbourhoods — and the sample an audit scores stays the size it was.
func (t *traffic) op(i uint64) op {
	h := splitmix64(splitmix64(t.seed) + i)
	if unit(h) < t.auditFrac {
		if t.zipf != nil {
			return op{uid: behavior.UserID(t.zipf.rank(unit(splitmix64(h))))}
		}
		return op{uid: t.deck[i%uint64(len(t.deck))]}
	}
	pair := i / 2
	r := splitmix64(splitmix64(^t.seed) + pair)
	u := behavior.UserID(r % uint64(t.users))
	if i%2 == 1 {
		if ps := t.partners[u]; len(ps) > 0 {
			u = ps[(r>>32)%uint64(len(ps))]
		} else {
			u = (u + 1) % behavior.UserID(t.users)
		}
	}
	return op{uid: u, value: fmt.Sprintf("churn-%d", pair)}
}

// opSource feeds the traffic to loadgen.Run. Run is driven with
// AuditFrac 0 so that every op, audits too, comes through NextLog: it
// is the one hook that sees an op's intended send time, and the Log it
// returns carries that time to the recorder, which loadgen.Target alone
// never learns.
type opSource struct {
	mu   sync.Mutex // the closed loop calls NextLog from every client
	t    *traffic
	next uint64
}

func (s *opSource) NextLog(intended time.Time) behavior.Log {
	s.mu.Lock()
	o := s.t.op(s.next)
	s.next++
	s.mu.Unlock()
	return behavior.Log{User: o.uid, Type: behavior.IPv4, Value: o.value, Time: intended}
}

// eventClock maps wall time onto the churn workload's event time, which
// runs ratio times faster so that BN windows close during a short run.
type eventClock struct {
	wall0, event0 time.Time
	ratio         float64
}

func (c *eventClock) at(wall time.Time) time.Time {
	return c.event0.Add(time.Duration(float64(wall.Sub(c.wall0)) * c.ratio))
}

// sloLimit is the audit latency limit of slo_share.
const sloLimit = 25 * time.Millisecond

// phaseStats is what the recorder keeps for one phase of a run.
// Latencies are exact, in ms, from the intended send time.
type phaseStats struct {
	auditMs, ingestMs, lateMs []float64
	sent, failed, withinSLO   int
	okAt                      []time.Time // when each answered op completed
}

// served is one audit response kept for the output check.
type served struct {
	uid  behavior.UserID
	prob float64
	tier string
}

// recorder is the loadgen.Target the benchmark measures through. It
// wraps the stock HTTP target, times every op from its intended send
// time, counts anything but a 200 audit or a 202 ingest as a failure,
// and keeps every sampleEvery-th audit's response body for the check.
type recorder struct {
	inner *loadgen.HTTPTarget
	clock *eventClock // nil on read-only workloads

	mu          sync.Mutex
	phase       *phaseStats // nil outside measured phases (warm-up)
	audits200   int         // every phase, for the /stats reconciliation
	sampleEvery int         // 0 keeps none
	seen        int
	samples     []served
}

func (r *recorder) begin(sampleEvery int) *phaseStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phase = &phaseStats{}
	r.sampleEvery, r.seen = sampleEvery, 0
	return r.phase
}

func (r *recorder) end() {
	r.mu.Lock()
	r.phase, r.sampleEvery = nil, 0
	r.mu.Unlock()
}

// Do implements loadgen.Target.
func (r *recorder) Do(ctx context.Context, o loadgen.Op) (int, error) {
	intended := o.Log.Time
	audit := o.Log.Value == ""
	r.mu.Lock()
	keep := false
	if audit && r.sampleEvery > 0 {
		keep = r.seen%r.sampleEvery == 0
		r.seen++
	}
	r.mu.Unlock()

	start := time.Now()
	var status int
	var err error
	var body served
	switch {
	case audit && keep:
		body, status, err = r.audit(ctx, o.UID)
	case audit:
		status, err = r.inner.Do(ctx, loadgen.Op{Kind: loadgen.KindAudit, UID: o.UID})
	default:
		o.Log.Time = r.clock.at(intended)
		status, err = r.inner.Do(ctx, o)
	}
	done := time.Now()
	ok := err == nil && ((audit && status == http.StatusOK) || (!audit && status == http.StatusAccepted))

	r.mu.Lock()
	defer r.mu.Unlock()
	if audit && ok {
		r.audits200++
		if keep {
			r.samples = append(r.samples, body)
		}
	}
	if p := r.phase; p != nil {
		p.sent++
		p.lateMs = append(p.lateMs, ms(start.Sub(intended)))
		lat := done.Sub(intended)
		if ok {
			p.okAt = append(p.okAt, done)
		}
		switch {
		case !ok:
			p.failed++
		case audit:
			p.auditMs = append(p.auditMs, ms(lat))
			if lat <= sloLimit {
				p.withinSLO++
			}
		default:
			p.ingestMs = append(p.ingestMs, ms(lat))
		}
	}
	return status, err
}

// audit is one GET /predict that keeps the answer.
func (r *recorder) audit(ctx context.Context, uid behavior.UserID) (served, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.inner.Base+"/predict?uid="+strconv.FormatUint(uint64(uid), 10), nil)
	if err != nil {
		return served{}, 0, err
	}
	resp, err := r.inner.Client.Do(req)
	if err != nil {
		return served{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return served{}, resp.StatusCode, nil
	}
	var p struct {
		Probability float64 `json:"probability"`
		ServedBy    string  `json:"served_by"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return served{}, resp.StatusCode, fmt.Errorf("decoding /predict: %w", err)
	}
	return served{uid: uid, prob: p.Probability, tier: p.ServedBy}, resp.StatusCode, nil
}

// ServedCounts implements loadgen.TierCounter, so Run's report carries
// the server's own per-tier split of each open-loop stage.
func (r *recorder) ServedCounts(ctx context.Context) (map[string]int64, error) {
	return r.inner.ServedCounts(ctx)
}

// openLoop offers the source's next ops at rate for d through
// loadgen.Run with the given number of connections.
func openLoop(ctx context.Context, r *recorder, src *opSource, rate float64, d time.Duration, conns int) (*loadgen.Report, error) {
	return loadgen.Run(ctx, loadgen.Config{
		Stages:  []loadgen.Stage{{QPS: rate, Duration: d}},
		Workers: conns,
		Source:  src,
	}, r)
}

// closedLoop has each of clients issue its next op as soon as the last
// one completed, for d; an op's intended send time is its actual one.
func closedLoop(ctx context.Context, r *recorder, src *opSource, clients int, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				l := src.NextLog(time.Now())
				opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
				_, _ = r.Do(opCtx, loadgen.Op{Kind: loadgen.KindIngest, UID: l.User, Log: l})
				cancel()
			}
		}()
	}
	wg.Wait()
}
