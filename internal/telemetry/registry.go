package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metric families and renders them in Prometheus
// text exposition format. Registration is get-or-create: asking for an
// existing name returns the existing metric when the kind and labels
// match and panics otherwise (a name can mean only one thing).
// Registration takes a lock; observations on the returned handles never
// do.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	hooks []func()
}

// family is one registered metric name.
type family struct {
	name, help string
	kind       string // "counter", "gauge", "histogram"
	labels     []string
	metric     any
	// write renders the family's sample lines (HELP/TYPE excluded).
	write func(w *bufio.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register is the get-or-create core shared by every constructor.
func (r *Registry) register(name, help, kind string, labels []string, mk func() (any, func(w *bufio.Writer))) any {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalLabels(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f.metric
	}
	m, write := mk()
	r.fams[name] = &family{name: name, help: help, kind: kind, labels: labels, metric: m, write: write}
	return m
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", nil, func() (any, func(*bufio.Writer)) {
		c := &Counter{}
		return c, func(w *bufio.Writer) {
			fmt.Fprintf(w, "%s %d\n", name, c.Value())
		}
	}).(*Counter)
}

// CounterVec registers (or returns) the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.register(name, help, "counter", labels, func() (any, func(*bufio.Writer)) {
		v := NewCounterVec(labels...)
		return v, func(w *bufio.Writer) {
			v.Walk(func(values []string, c *Counter) {
				fmt.Fprintf(w, "%s%s %d\n", name, labelString(labels, values), c.Value())
			})
		}
	}).(*CounterVec)
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", nil, func() (any, func(*bufio.Writer)) {
		g := &Gauge{}
		return g, func(w *bufio.Writer) {
			fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
		}
	}).(*Gauge)
}

// GaugeVec registers (or returns) the named labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return r.register(name, help, "gauge", labels, func() (any, func(*bufio.Writer)) {
		v := NewGaugeVec(labels...)
		return v, func(w *bufio.Writer) {
			v.Walk(func(values []string, g *Gauge) {
				fmt.Fprintf(w, "%s%s %s\n", name, labelString(labels, values), formatFloat(g.Value()))
			})
		}
	}).(*GaugeVec)
}

// gaugeFunc wraps a scrape-time callback so repeated registration can
// swap the function without re-registering the family.
type gaugeFunc struct {
	mu sync.Mutex
	fn func() float64
}

func (g *gaugeFunc) value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (snapshot age, shard skew). Re-registering the same name replaces
// the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	g := r.register(name, help, "gauge", nil, func() (any, func(*bufio.Writer)) {
		g := &gaugeFunc{}
		return g, func(w *bufio.Writer) {
			fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.value()))
		}
	}).(*gaugeFunc)
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// Histogram registers (or returns) the named histogram. Every histogram
// is a duration rendered in seconds (see writeHistogram), so name it
// *_seconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, "histogram", nil, func() (any, func(*bufio.Writer)) {
		h := NewHistogram()
		return h, func(w *bufio.Writer) {
			writeHistogram(w, name, nil, nil, h)
		}
	}).(*Histogram)
}

// HistogramVec registers (or returns) the named labeled histogram
// family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return r.register(name, help, "histogram", labels, func() (any, func(*bufio.Writer)) {
		v := NewHistogramVec(labels...)
		return v, func(w *bufio.Writer) {
			v.Walk(func(values []string, h *Histogram) {
				writeHistogram(w, name, labels, values, h)
			})
		}
	}).(*HistogramVec)
}

// OnScrape registers a hook run at the start of every WritePrometheus
// call, before any family is rendered. Hooks refresh scrape-time state
// that is too expensive or too racy to keep current continuously (the
// Go runtime collector drains GC pause samples here). Hooks may call
// registry methods; they run outside the registry lock.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// WritePrometheus renders every registered family in Prometheus text
// format, sorted by metric name, with stable cell ordering inside each
// family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.write(bw)
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target (GET only).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// The exposition layout: one le per power of two of nanoseconds, from
// 2^10 ns (≈1 µs, below every GC pause) to 2^35 ns (≈34 s, above every
// checkpoint). Every power of two starts a histogram slot, so the le
// labelled 2^k−1 ns is a slot's inclusive upper edge and each _bucket
// line counts exactly the observations ≤ its le.
const expoMinShift, expoMaxShift = 10, 35

// expoLe holds the le label values of the layout, in seconds.
var expoLe = func() []string {
	le := make([]string, 0, expoMaxShift-expoMinShift+1)
	for k := expoMinShift; k <= expoMaxShift; k++ {
		le = append(le, formatFloat(float64(int64(1)<<k-1)/1e9))
	}
	return le
}()

// writeHistogram renders one histogram cell from one snapshot:
// cumulative _bucket lines over the exposition layout ending in +Inf,
// then _sum (the nanosecond sum in seconds) and _count.
func writeHistogram(w *bufio.Writer, name string, labels, values []string, h *Histogram) {
	s := h.Snapshot()
	var cum int64
	slot := 0
	for i, le := range expoLe {
		for end := countsIndexOf(1 << (expoMinShift + i)); slot < end; slot++ {
			cum += s.counts[slot]
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelStringLe(labels, values, le), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelStringLe(labels, values, "+Inf"), s.count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labels, values), formatFloat(float64(s.sum)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels, values), s.count)
}

// labelString renders {l1="v1",l2="v2"}, or "" with no labels.
func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelStringLe is labelString with the histogram le label appended.
func labelStringLe(labels, values []string, le string) string {
	return labelString(append(append([]string(nil), labels...), "le"),
		append(append([]string(nil), values...), le))
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mustValidName panics unless name is a valid metric/label identifier
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func mustValidName(name string) {
	if name == "" {
		panic("telemetry: empty metric or label name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", name))
		}
	}
}

func equalLabels(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
