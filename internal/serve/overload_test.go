package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
	"mikpoly/internal/sim"
)

// TestOverloadDefensesAlwaysOn: a scheduler-backed server runs the three
// overload defenses without being asked to, and exports their books in
// /stats and /metrics.
func TestOverloadDefensesAlwaysOn(t *testing.T) {
	o := obs.New(obs.DefaultTraceCapacity)
	srv, ts := newObsServer(t, o, Config{SchedDecode: true})
	t.Cleanup(srv.Close)

	sc := srv.sched.Load().Scheduler()
	if cfg := sc.Config(); !cfg.Adaptive || !cfg.ShedDeadlines || cfg.DisableKVPreempt {
		t.Fatalf("scheduler defenses adaptive=%v shed=%v preempt=%v, want all on",
			cfg.Adaptive, cfg.ShedDeadlines, !cfg.DisableKVPreempt)
	}
	resp, data := postTenant(t, ts+"/generate", "acme", generateRequest{PromptLen: 32, Steps: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d: %s", resp.StatusCode, data)
	}

	resp, body := getBody(t, ts+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	budget := sc.Config().MaxInFlightTokens
	if ov := stats.Overload; ov == nil || ov.DeadlineSheds != 0 || ov.AdaptiveLimitTokens != budget {
		t.Fatalf("stats overload section = %+v, want no sheds and the limiter at the %d-token budget", ov, budget)
	}

	resp, body = getBody(t, ts+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`mik_overload_sheds_total{reason="deadline"} 0`,
		`mik_overload_preemptions_total{kind="preempt"} 0`,
		"mik_overload_adaptive_limit_tokens " + strconv.FormatInt(budget, 10),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestAdmitRetryAfterBacklog is the satellite regression: admitMW's 429 must
// carry the same backlog-derived Retry-After as the token-budget path rather
// than a hardcoded "1". With no scheduler bound, the hint degrades to the
// 1-second floor; either way the header parses as a bounded integer.
func TestAdmitRetryAfterBacklog(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, SchedDecode: true})

	if got := srv.retryAfterHint(); got == "" {
		t.Fatal("retryAfterHint empty with a scheduler bound")
	}

	// Occupy the only admission slot, then hit the wall.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	resp, _ := postJSON(t, ts.URL+"/plan", planRequest{M: 64, N: 64, K: 64})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with the semaphore full, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < retryAfterMin || ra > retryAfterMax {
		t.Fatalf("admitMW Retry-After = %q, want an integer in [%d, %d]",
			resp.Header.Get("Retry-After"), retryAfterMin, retryAfterMax)
	}

	// Schedless server: the hint is the floor, not an empty header.
	srv2, _ := newTestServer(t, Config{})
	if got := srv2.retryAfterHint(); got != strconv.Itoa(retryAfterMin) {
		t.Fatalf("schedless retryAfterHint = %q, want %q", got, strconv.Itoa(retryAfterMin))
	}
}

// TestGenerateDeadline504 exercises deadline propagation end to end: a
// queued request with a microscopic deadline budget behind a request that
// fills the token budget must come back 504, shed before it ever touched the
// device, while the occupying request completes normally.
func TestGenerateDeadline504(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		SchedDecode:         true,
		SchedInFlightTokens: 600,
	})

	// Fill the budget with a request that is held inside its first stage's
	// simulator call until the victim sits in the queue behind it: the
	// victim then waits out the rest of that wave on the scheduler's clock
	// and is shed at the next one, however fast or slow the host is.
	admitted, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	srv.runtime.Load().SetSimulator(func(h hw.Hardware, _ health.View, tasks []sim.Task, _ uint64) sim.Result {
		gate.Do(func() {
			close(admitted)
			<-release
		})
		return sim.Run(h, tasks)
	})
	var wg sync.WaitGroup
	wg.Add(1)
	var firstStatus int
	go func() {
		defer wg.Done()
		resp, _ := postTenant(t, ts.URL+"/generate", "acme",
			generateRequest{PromptLen: 512, Steps: 32})
		firstStatus = resp.StatusCode
	}()
	<-admitted
	go func() {
		defer close(release)
		for srv.sched.Load().Scheduler().Stats().Queued == 0 {
			runtime.Gosched()
		}
	}()

	resp, data := postTenant(t, ts.URL+"/generate", "acme",
		generateRequest{PromptLen: 512, Steps: 1, DeadlineMs: 0.0001})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stale queued request status %d, want 504: %s", resp.StatusCode, data)
	}
	wg.Wait()
	if firstStatus != http.StatusOK {
		t.Fatalf("occupying request status %d, want 200", firstStatus)
	}
	if st := srv.sched.Load().Scheduler().Stats(); st.DeadlineSheds != 1 {
		t.Fatalf("scheduler deadline_sheds %d, want 1", st.DeadlineSheds)
	}
}

// TestGenerateDeadlineValidation: a negative deadline is a client error.
func TestGenerateDeadlineValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{SchedDecode: true})
	resp, _ := postTenant(t, ts.URL+"/generate", "acme",
		generateRequest{PromptLen: 32, Steps: 1, DeadlineMs: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline status %d, want 400", resp.StatusCode)
	}
}
