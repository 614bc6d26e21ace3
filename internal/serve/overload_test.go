package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
	"mikpoly/internal/sched"
	"mikpoly/internal/sim"
)

// TestBrownoutLadderHysteresis drives the pure automaton through a load
// spike and decay, pinning the asymmetry: ascent is immediate (including
// multi-rung jumps), descent requires the signal to sit below the exit
// threshold for brownoutDwell consecutive ticks, and a signal oscillating
// inside the hysteresis band holds the stage instead of flapping.
func TestBrownoutLadderHysteresis(t *testing.T) {
	stage, dwell := 0, 0
	step := func(signal float64) int {
		stage, dwell = nextBrownoutStage(stage, dwell, signal)
		return stage
	}

	if got := step(0.50); got != 0 {
		t.Fatalf("calm signal entered stage %d", got)
	}
	if got := step(0.72); got != 1 {
		t.Fatalf("0.72 → stage %d, want 1", got)
	}
	if got := step(0.99); got != 4 {
		t.Fatalf("spike must jump straight to 4, got %d", got)
	}

	// Oscillating inside the band [enter-gap, enter) neither climbs nor
	// descends — and each touch of the band resets the dwell clock.
	for i := 0; i < 3*brownoutDwell; i++ {
		sig := 0.90 // band for stage 4: [0.87, 0.97)
		if i%2 == 1 {
			sig = 0.88
		}
		if got := step(sig); got != 4 {
			t.Fatalf("tick %d: stage %d, want 4 (no flapping in the band)", i, got)
		}
	}

	// A calm signal must dwell before each single-rung descent.
	for want := 3; want >= 0; want-- {
		for i := 0; i < brownoutDwell-1; i++ {
			if got := step(0.10); got != want+1 {
				t.Fatalf("descended to %d after only %d calm ticks", got, i+1)
			}
		}
		if got := step(0.10); got != want {
			t.Fatalf("stage %d after full dwell, want %d", got, want)
		}
	}
	if got := step(0.10); got != 0 {
		t.Fatalf("stage %d below the ladder, want 0", got)
	}
}

// TestBrownoutStageActions applies ladder stages directly and checks each
// rung's effect end to end: tracing off, prefill chunk cap on the live
// scheduler, stage-4 shedding of the lowest priority class at the HTTP edge
// (with Retry-After), urgent traffic still served, and a clean unwind.
func TestBrownoutStageActions(t *testing.T) {
	o := obs.New(obs.DefaultTraceCapacity)
	srv, ts := newObsServer(t, o, Config{SchedDecode: true})
	srv.tracerWasOn = o.T().Enabled()
	if !srv.tracerWasOn {
		t.Fatal("test premise: tracer starts enabled")
	}

	srv.setBrownoutStage(4)
	if o.T().Enabled() {
		t.Error("stage 4 left tracing enabled")
	}
	if srv.OverloadStage() != 4 {
		t.Fatalf("OverloadStage() = %d, want 4", srv.OverloadStage())
	}

	// Lowest class shed with 503 + Retry-After; urgent class still served.
	resp, data := postTenant(t, ts+"/generate", "acme",
		generateRequest{PromptLen: 32, Steps: 1, Priority: sched.NumPriorities - 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("low-class status %d under stage 4, want 503: %s", resp.StatusCode, data)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("brownout 503 Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if got := srv.nBrownoutSheds.Load(); got != 1 {
		t.Fatalf("brownout shed counter %d, want 1", got)
	}
	resp, data = postTenant(t, ts+"/generate", "acme", generateRequest{PromptLen: 32, Steps: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("urgent status %d under stage 4, want 200: %s", resp.StatusCode, data)
	}

	// The live scheduler's prefill budget is capped at stage >= 2.
	sc := srv.sched.Load().Scheduler()
	want := sc.Config().PrefillChunk / 4
	if got := sc.Stats().ChunkTokens; got > want && want > 0 {
		t.Errorf("prefill budget %d exceeds the stage-2 cap %d", got, want)
	}

	// /stats surfaces the stage and the shed books.
	resp, body := getBody(t, ts+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Overload == nil || stats.Overload.Stage != 4 || stats.Overload.BrownoutSheds != 1 {
		t.Fatalf("stats overload section = %+v, want stage 4 with 1 brownout shed", stats.Overload)
	}

	// Unwinding to stage 0 restores tracing and lifts the chunk cap.
	srv.setBrownoutStage(0)
	if !o.T().Enabled() {
		t.Error("stage 0 did not re-enable tracing")
	}
	resp, data = postTenant(t, ts+"/generate", "acme",
		generateRequest{PromptLen: 32, Steps: 1, Priority: sched.NumPriorities - 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("low-class status %d after unwind, want 200: %s", resp.StatusCode, data)
	}

	// The overload metrics are exported.
	resp, body = getBody(t, ts+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, wantM := range []string{
		"mik_overload_stage",
		`mik_overload_sheds_total{reason="brownout"} 1`,
		`mik_overload_sheds_total{reason="deadline"}`,
		`mik_overload_preemptions_total{kind="preempt"}`,
		"mik_overload_adaptive_limit_tokens",
	} {
		if !strings.Contains(body, wantM) {
			t.Errorf("metrics output missing %q", wantM)
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
		ShedDeadlines:       true,
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
	if got := srv.nDeadlineSheds.Load(); got != 1 {
		t.Fatalf("deadline shed counter %d, want 1", got)
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

// TestBrownoutControllerLifecycle: a Brownout server starts calm, survives
// traffic, and Close joins the controller goroutine (run under -race).
func TestBrownoutControllerLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{SchedDecode: true, Brownout: true,
		AdaptiveAdmission: true, KVPreempt: true})
	resp, data := postTenant(t, ts.URL+"/generate", "acme", generateRequest{PromptLen: 64, Steps: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	time.Sleep(2 * brownoutInterval) // let the controller tick against live state
	if got := srv.OverloadStage(); got != 0 {
		t.Fatalf("idle server climbed to stage %d", got)
	}
	srv.Close()
}
