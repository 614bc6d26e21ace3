package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// newObsServer builds a fully observed stack: compiler with planner metrics
// and tracing, server exporting /metrics and /trace.
func newObsServer(t *testing.T, o *obs.Obs, cfg Config, opts ...core.Option) (*Server, string) {
	t.Helper()
	lib, err := core.SharedLibrary(hw.A100(), tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = o
	srv := New(core.NewCompilerFromLibrary(lib, append(opts, core.WithObs(o))...), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

func TestMetricsEndpoint(t *testing.T) {
	o := obs.New(obs.DefaultTraceCapacity)
	_, ts := newObsServer(t, o, Config{})

	// One uncached plan, one cached replay (a cache hit), one model run —
	// every exported subsystem has something to report.
	for i := 0; i < 2; i++ {
		if resp, data := postJSON(t, ts+"/plan", planRequest{M: 512, N: 512, K: 512}); resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status %d: %s", resp.StatusCode, data)
		}
	}
	if resp, data := postJSON(t, ts+"/model", modelRequest{Model: "distilbert", Seq: 32}); resp.StatusCode != http.StatusOK {
		t.Fatalf("model status %d: %s", resp.StatusCode, data)
	}

	resp, body := getBody(t, ts+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE mik_plan_latency_seconds histogram",
		"mik_plan_latency_seconds_bucket{le=\"+Inf\"}",
		`mik_cache_ops_total{op="hit"}`,
		`mik_cache_ops_total{op="miss"}`,
		`mik_cache_ops_total{op="eviction"}`,
		`mik_cache_entries{state="used"}`,
		"mik_serve_requests_total 3",
		"mik_graph_executions_total 1",
		`mik_pe_utilization{pe="0"}`,
		"mik_wave_imbalance",
		`mik_graph_plan_wall_seconds{kind="hidden"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	resp, body = getBody(t, ts+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	for _, want := range []string{"core.plan", "poly.plan", "graphrt.execute", "graphrt.stage"} {
		if !strings.Contains(body, want) {
			t.Errorf("trace dump missing span %q", want)
		}
	}
}

func TestObsDisabledServes404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, ep := range []string{"/metrics", "/trace"} {
		resp, _ := getBody(t, ts.URL+ep)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without Obs: status %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestConcurrentModelStatsInvalidate is the race regression for the stats
// snapshotting path: model executions mutate the runtime's cumulative
// counters (including the per-PE busy slice) while /stats and /metrics read
// shared compiler state and plans of other shapes evict the models' programs
// from a plan cache too small to hold them all. Run under -race (the CI
// does); any unsynchronized access fails the build.
func TestConcurrentModelStatsInvalidate(t *testing.T) {
	o := obs.New(256)
	srv, ts := newObsServer(t, o, Config{PlanAhead: 2}, core.WithCacheCapacity(4))

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, data := postJSON(t, ts+"/model", modelRequest{Model: "distilbert", Seq: 32})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("model status %d: %s", resp.StatusCode, data)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if resp, _ := getBody(t, ts+"/stats"); resp.StatusCode != http.StatusOK {
					t.Error("stats failed mid-churn")
					return
				}
				if resp, _ := getBody(t, ts+"/metrics"); resp.StatusCode != http.StatusOK {
					t.Error("metrics failed mid-churn")
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				shape := tensor.GemmShape{M: 1 + i, N: 64, K: 64}
				if _, _, err := srv.comp().PlanOrFallback(context.Background(), shape); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if resp, _ := getBody(t, ts+"/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatal("metrics unavailable after churn")
	}
}

// TestBreakerStateMetric pins the per-model breaker gauge: 0 while closed,
// 1 once tripped open, back to 0 after a successful close.
func TestBreakerStateMetric(t *testing.T) {
	o := obs.New(obs.DefaultTraceCapacity)
	srv, ts := newObsServer(t, o, Config{})

	if resp, data := postJSON(t, ts+"/model", modelRequest{Model: "distilbert", Seq: 32}); resp.StatusCode != http.StatusOK {
		t.Fatalf("model status %d: %s", resp.StatusCode, data)
	}
	if _, body := getBody(t, ts+"/metrics"); !strings.Contains(body, `mik_serve_breaker_state{model="distilbert"} 0`) {
		t.Fatalf("metrics missing closed breaker gauge for distilbert:\n%s", grepLines(body, "mik_serve_breaker_state"))
	}

	// Trip the breaker directly (the scrape path is what's under test).
	for i := 0; i < breakerThreshold; i++ {
		srv.breakers.record("distilbert", false)
	}
	if _, body := getBody(t, ts+"/metrics"); !strings.Contains(body, `mik_serve_breaker_state{model="distilbert"} 1`) {
		t.Fatalf("metrics missing open breaker gauge for distilbert:\n%s", grepLines(body, "mik_serve_breaker_state"))
	}

	srv.breakers.record("distilbert", true)
	if _, body := getBody(t, ts+"/metrics"); !strings.Contains(body, `mik_serve_breaker_state{model="distilbert"} 0`) {
		t.Fatalf("breaker gauge did not return to 0 after re-close:\n%s", grepLines(body, "mik_serve_breaker_state"))
	}
}

func grepLines(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestCompiledTableCounters: a repeated /model request is interpreted once and
// replayed after that, and /stats and /metrics show the compiled table's
// hits, misses, evictions and size.
func TestCompiledTableCounters(t *testing.T) {
	o := obs.New(obs.DefaultTraceCapacity)
	_, ts := newObsServer(t, o, Config{})
	for i := 0; i < 3; i++ {
		if resp, data := postJSON(t, ts+"/model", modelRequest{Model: "distilbert", Seq: 32}); resp.StatusCode != http.StatusOK {
			t.Fatalf("model status %d: %s", resp.StatusCode, data)
		}
	}
	_, body := getBody(t, ts+"/stats")
	var st statsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Graph == nil {
		t.Fatalf("no graph section in /stats: %s", body)
	}
	if want := (graphrt.CompiledStats{Hits: 2, Misses: 1, Size: 1}); st.Graph.Compiled != want {
		t.Fatalf("/stats graph.compiled = %+v, want %+v", st.Graph.Compiled, want)
	}
	_, body = getBody(t, ts+"/metrics")
	for _, want := range []string{
		`mik_graph_compiled_ops_total{op="hit"} 2`,
		`mik_graph_compiled_ops_total{op="miss"} 1`,
		`mik_graph_compiled_ops_total{op="eviction"} 0`,
		"mik_graph_compiled_entries 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
