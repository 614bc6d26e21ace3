package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds (seconds), spanning
// the microsecond planner fast path through multi-second degraded plans.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// Counter is a monotonically increasing integer metric; nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram; nil-safe. Bounds are
// upper-inclusive per Prometheus convention (le).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last = +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Sample is one exposition line produced by a Collect callback.
type Sample struct {
	// Suffix is appended to the family name (usually empty).
	Suffix string
	// Labels are rendered as {k="v",...} in declaration order.
	Labels [][2]string
	// Value is the sample value.
	Value float64
}

// family is one named metric family in the registry.
type family struct {
	name, help, typ string

	counter *Counter
	hist    *Histogram
	collect func() []Sample
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are nil-safe: a nil registry hands back nil
// instruments, which accept observations as no-ops.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// register adds f under its name, or returns the existing family. Re-using a
// name with a different metric type panics: that is always a wiring bug.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.fams[f.name]; ok {
		if old.typ != f.typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", f.name, f.typ, old.typ))
		}
		return old
	}
	r.fams[f.name] = f
	r.order = append(r.order, f.name)
	return f
}

// Counter returns the counter named name, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(&family{name: name, help: help, typ: "counter", counter: &Counter{}}).counter
}

// Histogram returns the histogram named name with the given bucket bounds
// (nil selects DefBuckets), creating it on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	return r.register(&family{name: name, help: help, typ: "histogram", hist: h}).hist
}

// Collect registers (or replaces) a callback-backed family sampled at scrape
// time — the bridge for stats that already live behind their own mutexes
// (cache counters, runtime aggregates, per-PE utilization). typ is the
// Prometheus type to declare ("counter" or "gauge").
func (r *Registry) Collect(name, help, typ string, fn func() []Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.fams[name]; ok {
		// Replacement keeps the scrape bound to the live producer when a
		// server or compiler is rebuilt over a shared registry.
		old.help, old.typ, old.collect = help, typ, fn
		old.counter, old.hist = nil, nil
		return
	}
	r.fams[name] = &family{name: name, help: help, typ: typ, collect: fn}
	r.order = append(r.order, name)
}

// fmtFloat renders a value the way Prometheus expects.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// renderLabels formats {k="v",...}; empty labels render as "".
func renderLabels(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(kv[1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in registration order in the text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w *strings.Builder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
		case f.hist != nil:
			h := f.hist
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", f.name, fmtFloat(bound), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
			fmt.Fprintf(w, "%s_sum %s\n", f.name, fmtFloat(h.Sum()))
			fmt.Fprintf(w, "%s_count %d\n", f.name, h.Count())
		case f.collect != nil:
			for _, s := range f.collect() {
				fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.Suffix, renderLabels(s.Labels), fmtFloat(s.Value))
			}
		}
	}
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}
