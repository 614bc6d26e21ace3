package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestShutdownLeaksNoGoroutines is the graceful-drain regression test: a
// server running every background subsystem (the generation scheduler loop
// and the plan-ahead workers) must return to the baseline goroutine count
// after Close. A leaked worker here is what turns SIGTERM into a hung pod in
// production.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	// Warm the shared library so lazy tuning doesn't muddy the baseline
	// measurement below.
	c := testCompiler(t)
	// Give goroutines from earlier tests in the package a moment to wind
	// down, then take the baseline.
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()

	srv := New(c, Config{PlanAhead: 2, SchedDecode: true})
	ts := httptest.NewServer(srv.Handler())

	// Exercise every background path: scheduled generation through the
	// scheduler loop, and single-device models to spin up plan-ahead workers.
	for i := 0; i < 3; i++ {
		if resp, data := postTenant(t, ts.URL+"/generate", "acme",
			generateRequest{PromptLen: 48, Group: 1, PrefixLen: 32, Steps: 2, Fanout: 1 + i%2}); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate status %d: %s", resp.StatusCode, data)
		}
	}
	if resp, data := postJSON(t, ts.URL+"/model", modelRequest{Model: "distilbert", Seq: 32}); resp.StatusCode != http.StatusOK {
		t.Fatalf("model status %d: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/model", modelRequest{Model: "llama2-decode", KVLen: 64}); resp.StatusCode != http.StatusOK {
		t.Fatalf("decode status %d: %s", resp.StatusCode, data)
	}

	// Graceful drain, in mikserve's order: HTTP first, then background
	// machinery, then the client's idle keep-alive connections.
	ts.Close()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(15 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			var sb strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&sb, 1)
			t.Fatalf("goroutines leaked across shutdown: %d before, %d after\n%s", before, now, sb.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerCloseIsIdempotent: mikserve calls Close explicitly after
// ListenAndServe returns and again via defer; both must be safe.
func TestServerCloseIsIdempotent(t *testing.T) {
	srv, _ := newTestServer(t, Config{SchedDecode: true})
	t.Cleanup(srv.Close)
	srv.Close()
	srv.Close() // t.Cleanup adds a third call
}
