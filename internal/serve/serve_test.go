package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

func testCompiler(t *testing.T) *core.Compiler {
	t.Helper()
	lib, err := core.SharedLibrary(hw.A100(), tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewCompilerFromLibrary(lib)
}

// newTestServer serves a test compiler over HTTP. Each setup runs on the
// server before it starts serving: tests shrink srv.lim or swap srv.bo there.
func newTestServer(t *testing.T, cfg Config, setup ...func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(testCompiler(t), cfg)
	for _, f := range setup {
		f(srv)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// noBackoff swaps the server's fault-retry backoff for a zero-delay one, so
// tests that drive many retries spend no wall clock asleep.
func noBackoff(s *Server) { s.bo = &backoff{rng: rand.New(rand.NewSource(0))} }

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/plan", planRequest{M: 4096, N: 1024, K: 4096})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr planResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Degraded {
		t.Fatal("healthy plan marked degraded")
	}
	if len(pr.Regions) == 0 || pr.Tasks <= 0 || pr.SimCycles <= 0 {
		t.Fatalf("implausible plan response: %+v", pr)
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"negative dim", `{"m":-4,"n":8,"k":8}`, http.StatusBadRequest},
		{"zero dim", `{"m":0,"n":8,"k":8}`, http.StatusBadRequest},
		{"malformed json", `{"m":4,`, http.StatusBadRequest},
		{"wrong type", `{"m":"four","n":8,"k":8}`, http.StatusBadRequest},
		{"unknown field", `{"m":4,"n":8,"k":8,"x":1}`, http.StatusBadRequest},
		{"huge dim", `{"m":1073741824,"n":8,"k":8}`, http.StatusRequestEntityTooLarge},
		{"huge volume", `{"m":1048576,"n":1048576,"k":1048576}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	// GET on a POST endpoint is routed away by the method pattern.
	resp, err := http.Get(ts.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /plan: status %d, want 405", resp.StatusCode)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{}, func(s *Server) { s.lim.bodyBytes = 64 })
	big := fmt.Sprintf(`{"m":4,"n":8,"k":8,"pad":%q}`, strings.Repeat("x", 256))
	resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestGracefulDegradationEndToEnd is the acceptance scenario: with a planner
// deadline of ~0 every plan falls back, yet /execute still returns a
// numerically correct result, verified against the reference GEMM.
func TestGracefulDegradationEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{PlanTimeout: -1})

	req := execRequest{M: 33, N: 21, K: 17, SeedA: 5, SeedB: 6}
	resp, data := postJSON(t, ts.URL+"/execute", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er execResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Degraded {
		t.Fatal("expired planner deadline must force the fallback path")
	}

	// Client-side verification against the reference GEMM.
	a := tensor.RandomMatrix(req.M, req.K, req.SeedA)
	b := tensor.RandomMatrix(req.K, req.N, req.SeedB)
	want := tensor.Gemm(a, b)
	var wantSum float64
	for _, v := range want.Data {
		wantSum += float64(v)
	}
	if math.Abs(er.Checksum-wantSum) > 1e-2*math.Max(1, math.Abs(wantSum)) {
		t.Fatalf("checksum %g, reference %g", er.Checksum, wantSum)
	}
	wantSample := []float32{
		want.At(0, 0), want.At(0, want.Cols-1),
		want.At(want.Rows-1, 0), want.At(want.Rows-1, want.Cols-1),
	}
	for i, v := range wantSample {
		if math.Abs(float64(er.Sample[i]-v)) > 1e-3*math.Max(1, math.Abs(float64(v))) {
			t.Fatalf("sample[%d] = %g, reference %g", i, er.Sample[i], v)
		}
	}

	// /plan degrades the same way and still returns a legal program.
	presp, pdata := postJSON(t, ts.URL+"/plan", planRequest{M: 100, N: 100, K: 100})
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", presp.StatusCode, pdata)
	}
	var pr planResponse
	if err := json.Unmarshal(pdata, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded || len(pr.Regions) != 1 {
		t.Fatalf("degraded plan response: %+v", pr)
	}
	if srv.nDegraded.Load() < 2 {
		t.Fatalf("degraded counter = %d, want >= 2", srv.nDegraded.Load())
	}
	if h := srv.comp().Health(); h.Fallbacks < 2 {
		t.Fatalf("compiler fallback counter = %d, want >= 2", h.Fallbacks)
	}
}

// TestRetryBackoffOnInjectedFaults drives the fault-retry loop with a
// deterministic seed: every simulated run faults, so the server performs
// exactly maxRetries re-plans with backoff and still answers correctly.
func TestRetryBackoffOnInjectedFaults(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Faults: &sim.Faults{Seed: 42, TaskFaultRate: 1},
	})

	req := execRequest{M: 24, N: 24, K: 24, SeedA: 3, SeedB: 4}
	resp, data := postJSON(t, ts.URL+"/execute", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er execResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Attempts != 1+maxRetries {
		t.Fatalf("attempts = %d, want %d (1 + maxRetries)", er.Attempts, 1+maxRetries)
	}
	if er.FaultedTasks == 0 {
		t.Fatal("rate-1 injection must report faulted tasks")
	}
	if got := srv.nRetries.Load(); got != maxRetries {
		t.Fatalf("retry counter = %d, want %d", got, maxRetries)
	}
	// Each retry invalidated the cache and re-planned.
	if plans, _ := srv.comp().PlanStats(); plans != 1+maxRetries {
		t.Fatalf("planner ran %d times, want %d", plans, 1+maxRetries)
	}
	// Numerics are unaffected by simulated faults.
	a := tensor.RandomMatrix(req.M, req.K, req.SeedA)
	b := tensor.RandomMatrix(req.K, req.N, req.SeedB)
	want := tensor.Gemm(a, b)
	var wantSum float64
	for _, v := range want.Data {
		wantSum += float64(v)
	}
	if math.Abs(er.Checksum-wantSum) > 1e-2*math.Max(1, math.Abs(wantSum)) {
		t.Fatalf("checksum %g, reference %g", er.Checksum, wantSum)
	}

	// A fault-free server answers in one attempt.
	_, ts2 := newTestServer(t, Config{})
	resp2, data2 := postJSON(t, ts2.URL+"/execute", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, data2)
	}
	var er2 execResponse
	if err := json.Unmarshal(data2, &er2); err != nil {
		t.Fatal(err)
	}
	if er2.Attempts != 1 || er2.FaultedTasks != 0 {
		t.Fatalf("healthy execute: %+v", er2)
	}
}

func TestExecuteOperandLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{}, func(s *Server) { s.lim.execElems = 1024 })
	resp, data := postJSON(t, ts.URL+"/execute", execRequest{M: 64, N: 64, K: 64})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, data)
	}
}

func TestAdmissionControl(t *testing.T) {
	srv := New(testCompiler(t), Config{MaxInFlight: 1})
	release := make(chan struct{})
	entered := make(chan struct{})
	blocked := srv.admitMW(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	first := httptest.NewRecorder()
	go func() {
		defer wg.Done()
		blocked.ServeHTTP(first, httptest.NewRequest(http.MethodPost, "/plan", nil))
	}()
	<-entered

	second := httptest.NewRecorder()
	blocked.ServeHTTP(second, httptest.NewRequest(http.MethodPost, "/plan", nil))
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", second.Code)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	close(release)
	wg.Wait()
	if first.Code != http.StatusOK {
		t.Fatalf("admitted request status %d", first.Code)
	}
	if srv.nRejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", srv.nRejected.Load())
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := New(testCompiler(t), Config{})
	h := srv.recoverMW(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if srv.nPanics.Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", srv.nPanics.Load())
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	postJSON(t, ts.URL+"/plan", planRequest{M: 64, N: 64, K: 64})
	postJSON(t, ts.URL+"/plan", planRequest{M: 64, N: 64, K: 64})

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var st statsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Plans != 1 {
		t.Fatalf("stats = %+v, want 2 requests and 1 plan (second was a cache hit)", st)
	}
	if st.Cache.Hits != 1 || st.Cache.Size != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.MaxInFlight != DefaultConfig().MaxInFlight {
		t.Fatalf("max in flight = %d", st.MaxInFlight)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	b1 := newBackoff(10*time.Millisecond, 80*time.Millisecond, 99)
	b2 := newBackoff(10*time.Millisecond, 80*time.Millisecond, 99)
	for attempt := 0; attempt < 6; attempt++ {
		d1 := b1.delay(attempt)
		d2 := b2.delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, d1, d2)
		}
		exp := 10 * time.Millisecond << attempt
		if exp > 80*time.Millisecond {
			exp = 80 * time.Millisecond
		}
		if d1 < exp/2 || d1 > exp {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, exp/2, exp)
		}
		if d1 > 80*time.Millisecond {
			t.Fatalf("attempt %d: delay %v exceeds cap", attempt, d1)
		}
	}
	b3 := newBackoff(10*time.Millisecond, 80*time.Millisecond, 100)
	b4 := newBackoff(10*time.Millisecond, 80*time.Millisecond, 99)
	diff := false
	for attempt := 0; attempt < 6; attempt++ {
		if b3.delay(attempt) != b4.delay(attempt) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}
