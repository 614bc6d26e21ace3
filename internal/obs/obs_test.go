package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every entry point must be a no-op on nil receivers — the disabled
	// configuration call sites rely on.
	var o *Obs
	ctx, sp := o.T().Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	sp.Attr("k", 1).End() // must not panic
	if ctx != context.Background() {
		t.Fatal("disabled tracer touched the context")
	}
	o.M().Counter("c", "").Inc()
	o.M().Histogram("h", "", nil).Observe(0.5)
	o.M().Collect("f", "", "gauge", func() []Sample { return nil })
	o.T().SetEnabled(true)
	o.T().Reset()
	if o.T().Snapshot() != nil || o.T().Dropped() != 0 {
		t.Fatal("nil tracer holds data")
	}
	var b strings.Builder
	o.M().WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatal("nil registry rendered output")
	}
}

func TestSpanHierarchyAndRing(t *testing.T) {
	tr := NewTracer(4)
	ctx := context.Background()
	ctx, root := tr.Start(ctx, "root")
	_, child := tr.Start(ctx, "child")
	child.Attr("n", 7).End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Children end first, so order is child, root.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("unexpected order: %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent %d != root id %d", spans[0].Parent, spans[1].ID)
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != (Attr{Key: "n", Value: 7}) {
		t.Fatalf("attrs lost: %+v", spans[0].Attrs)
	}

	// Overflow evicts oldest-first and counts drops.
	for i := 0; i < 6; i++ {
		_, s := tr.Start(context.Background(), "fill")
		s.End()
	}
	spans = tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(spans))
	}
	if tr.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", tr.Dropped())
	}
	for _, s := range spans {
		if s.Name != "fill" {
			t.Fatalf("stale span survived overflow: %s", s.Name)
		}
	}

	tr.Reset()
	if len(tr.Snapshot()) != 0 || tr.Dropped() != 0 {
		t.Fatal("reset did not clear the ring")
	}
}

func TestDisabledTracerIsInert(t *testing.T) {
	tr := NewTracer(8)
	tr.SetEnabled(false)
	ctx := context.Background()
	got, sp := tr.Start(ctx, "x")
	if sp != nil || got != ctx {
		t.Fatal("disabled tracer allocated a span or context")
	}
	if len(tr.Snapshot()) != 0 {
		t.Fatal("disabled tracer recorded spans")
	}
}

func TestTraceHandlerDumpAndReset(t *testing.T) {
	tr := NewTracer(8)
	_, s := tr.Start(context.Background(), "op")
	s.End()

	rr := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/trace?reset=1", nil))
	var dump struct {
		Enabled  bool         `json:"enabled"`
		Capacity int          `json:"capacity"`
		Spans    []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if !dump.Enabled || dump.Capacity != 8 || len(dump.Spans) != 1 || dump.Spans[0].Name != "op" {
		t.Fatalf("bad dump: %+v", dump)
	}
	if len(tr.Snapshot()) != 0 {
		t.Fatal("?reset=1 did not clear the buffer")
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mik_test_ops_total", "ops")
	c.Add(3)
	h := r.Histogram("mik_test_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Collect("mik_test_pe_utilization", "per-PE", "gauge", func() []Sample {
		return []Sample{
			{Labels: [][2]string{{"pe", "0"}}, Value: 0.75},
			{Labels: [][2]string{{"pe", "1"}}, Value: 0.5},
		}
	})

	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE mik_test_ops_total counter\nmik_test_ops_total 3\n",
		`mik_test_latency_seconds_bucket{le="0.1"} 1`,
		`mik_test_latency_seconds_bucket{le="1"} 2`,
		`mik_test_latency_seconds_bucket{le="+Inf"} 3`,
		"mik_test_latency_seconds_sum 5.55",
		"mik_test_latency_seconds_count 3",
		`mik_test_pe_utilization{pe="0"} 0.75`,
		`mik_test_pe_utilization{pe="1"} 0.5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, text)
		}
	}
}

func TestRegistryDedupAndReplace(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "first")
	b := r.Counter("c", "second")
	if a != b {
		t.Fatal("re-registration returned a distinct counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("dedup lost the shared state")
	}

	r.Collect("f", "", "gauge", func() []Sample { return []Sample{{Value: 1}} })
	r.Collect("f", "", "gauge", func() []Sample { return []Sample{{Value: 2}} })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "f 2\n") {
		t.Fatalf("Collect replacement not in effect:\n%s", sb.String())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("type-mismatched re-registration did not panic")
		}
	}()
	r.Histogram("c", "now a histogram", nil)
}

func TestConcurrentInstruments(t *testing.T) {
	// Exercised under -race by CI: counters, histograms, span
	// recording and scraping must all be data-race free.
	o := New(64)
	c := o.M().Counter("n", "")
	h := o.M().Histogram("l", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-5)
				ctx, sp := o.T().Start(context.Background(), "w")
				_, inner := o.T().Start(ctx, "inner")
				inner.End()
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			o.M().WritePrometheus(&b)
			o.T().Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 1600 || h.Count() != 1600 {
		t.Fatalf("lost updates: c=%d h=%d", c.Value(), h.Count())
	}
}
