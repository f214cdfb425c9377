package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/embed"
	"turbo/internal/eval"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/loadgen"
	"turbo/internal/tensor"
)

// span is one timed call into a layer. Times are ns since the trace
// began; Parent indexes the span that caused it (-1 for a root); spans
// of one replayed op share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span and returns its duration in µs.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return float64(s.End-s.Start) / 1e3
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName groups self times, in µs, by span name.
func selfByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] = append(out[spans[i].Name], float64(d)/1e3)
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names of the shadow pipeline, one per layer boundary.
const (
	spanShadow   = "shadow"            // root: the layer calls of one audit, made from here
	spanTryServe = "embed.try_serve"   // embed.Store.TryServe
	spanSample   = "graph.sample"      // BNServer.SampleCtx
	spanFanout   = "feature.fanout"    // feature.Service.VectorsCtx + normalizer
	spanCompile  = "gnn.batch_compile" // gnn.NewBatch + the CSRs HAG scores over
	spanScore32  = "hag.score_f32"     // gnn.Score32 on the compiled batch
	spanScore64  = "hag.score_f64"     // gnn.ScoreCtx on the compiled batch
	spanTape     = "hag.tape"          // gnn.TapeScore, the reference path
	spanPredict  = "server.predict"    // root: PredictionServer.PredictCtx
	spanHTTP     = "http.audit"        // root: GET /predict round trip
	spanIngest   = "server.ingest"     // root: BNServer.Ingest
	spanHTTPPost = "http.ingest"       // root: POST /ingest round trip
)

// tapeOps is how many shadow ops also run the tape: it is ~5× the f64
// forward and only its level is wanted.
const tapeOps = 20

// shadowStats is what the shadow pipeline measured besides its spans.
type shadowStats struct {
	ops, audits    int
	nodes, edges   []float64
	unattributedUs []float64 // per audit: PredictCtx − the spans of the path it took
	httpOverheadUs []float64 // per audit: HTTP round trip − PredictCtx
	parityMiss     int       // shadow score ≠ PredictCtx score
	flops          []float64
	keptSample     *graph.Subgraph // one compiled input, for the alloc count
	keptX          *tensor.Matrix
}

// shadow replays ops serially, calling each layer's public function in
// the order PredictCtx does and timing each call as a span. Every audit
// walks both the embed tier and the full path, whichever serving took,
// so each layer is measured on every workload; only the spans of the
// path serving took count against PredictCtx.
func shadow(w *world, tr *tracer, rec *recorder, src *opSource, maxOps int, budget time.Duration) (*shadowStats, error) {
	ctx := context.Background()
	sys := w.sys
	bn, pred, feats := sys.BNServer(), sys.PredictionServer(), sys.Features()
	model := w.tr.model
	types := bn.Graph().NumEdgeTypes()
	st := &shadowStats{}
	deadline := time.Now().Add(budget)

	for req := 0; req < maxOps && (req < 50 || time.Now().Before(deadline)); req++ {
		l := src.NextLog(time.Now())
		st.ops++
		if l.Value != "" {
			l.Time = rec.clock.at(l.Time)
			id := tr.begin(spanIngest, -1, req)
			bn.Ingest(l)
			tr.end(id)
			id = tr.begin(spanHTTPPost, -1, req)
			status, err := rec.inner.Do(ctx, loadgen.Op{Kind: loadgen.KindIngest, UID: l.User, Log: l})
			tr.end(id)
			if err != nil || status != 202 {
				return nil, fmt.Errorf("shadow ingest: status %d: %v", status, err)
			}
			continue
		}
		u := l.User
		st.audits++
		root := tr.begin(spanShadow, -1, req)

		var hitProb float64
		hit := false
		var tryUs float64
		if w.embed != nil {
			id := tr.begin(spanTryServe, root, req)
			p, res := w.embed.Store().TryServe(bn.Snapshot(), graph.NodeID(u), model)
			tryUs = tr.end(id)
			hitProb, hit = p, res == embed.Hit
		}

		id := tr.begin(spanSample, root, req)
		sg, err := bn.SampleCtx(ctx, u)
		fullUs := tr.end(id)
		if err != nil {
			return nil, err
		}

		id = tr.begin(spanFanout, root, req)
		users := make([]behavior.UserID, len(sg.Nodes))
		for i, n := range sg.Nodes {
			users[i] = behavior.UserID(n)
		}
		vecs, errs := feats.VectorsCtx(ctx, users, time.Now())
		var x *tensor.Matrix
		for i, v := range vecs {
			if errs[i] != nil {
				return nil, errs[i]
			}
			v = w.tr.norm(v)
			if x == nil {
				x = tensor.GetMatrix(len(users), len(v))
			}
			copy(x.Row(i), v)
		}
		fullUs += tr.end(id)

		id = tr.begin(spanCompile, root, req)
		b := gnn.NewBatch(sg, x)
		for r := 0; r < types; r++ {
			csr := b.TypedMeanCSR(r)
			if w.f32 {
				b.CSR32For(csr)
			}
		}
		if w.f32 {
			b.X32()
		}
		fullUs += tr.end(id)

		var p32, p64 float64
		id = tr.begin(spanScore32, root, req)
		p32, _ = gnn.Score32(model, b)
		if us := tr.end(id); w.f32 {
			fullUs += us
		}
		id = tr.begin(spanScore64, root, req)
		p64, err = gnn.ScoreCtx(ctx, model, b)
		if us := tr.end(id); !w.f32 {
			fullUs += us
		}
		if err != nil {
			return nil, err
		}
		if st.audits <= tapeOps {
			id = tr.begin(spanTape, root, req)
			gnn.TapeScore(model, b)
			tr.end(id)
		}
		st.nodes = append(st.nodes, float64(sg.NumNodes()))
		st.edges = append(st.edges, float64(sg.NumEdges()))
		st.flops = append(st.flops, hagFlops(sg, x.Cols))
		if st.keptSample == nil {
			st.keptSample, st.keptX = sg, x.Clone()
		}
		b.Release()
		tensor.PutMatrix(x)
		tr.end(root)

		id = tr.begin(spanPredict, -1, req)
		got, err := pred.PredictCtx(ctx, u, time.Now())
		predictUs := tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("shadow PredictCtx(%d): %w", u, err)
		}

		// The shadow score is the one the path PredictCtx took produces.
		want, pathUs := p64, tryUs+fullUs
		if w.f32 {
			want = p32
		}
		if hit {
			want, pathUs = hitProb, tryUs
		}
		if math.Abs(got.Probability-want) > exactTol {
			st.parityMiss++
		}
		st.unattributedUs = append(st.unattributedUs, predictUs-pathUs)

		id = tr.begin(spanHTTP, -1, req)
		status, err := rec.inner.Do(ctx, loadgen.Op{Kind: loadgen.KindAudit, UID: u})
		httpUs := tr.end(id)
		if err != nil || status != 200 {
			return nil, fmt.Errorf("shadow audit of %d: status %d: %v", u, status, err)
		}
		st.httpOverheadUs = append(st.httpOverheadUs, httpUs-predictUs)
	}
	return st, nil
}

// hagFlops computes, from the sample's size and the model's widths, the
// floating-point operations of layer 1 of a HAG-full forward, which runs
// over every sampled node for every edge type: the aggregate (2·E·F) and
// the self and neighbour transforms with their attention projections
// (2·N·F·(2·H+2·A)). Layer 2, CFO and the head run on the target row
// alone and are under 1 % of it. It is computed, not measured.
func hagFlops(sg *graph.Subgraph, f int) float64 {
	h := eval.DefaultHyper()
	n, width := float64(sg.NumNodes()), float64(2*h.Hidden[0]+2*h.AttHidden)
	total := 0.0
	for _, es := range sg.TypedEdges {
		total += 2*float64(len(es))*float64(f) + 2*n*float64(f)*width
	}
	return total
}
