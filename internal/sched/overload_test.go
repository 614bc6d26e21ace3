package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mikpoly/internal/hw"
	"mikpoly/internal/workload"
)

// overloadTrace is a surge-shaped trace: the base rate alone saturates the
// small test device and a ×6 burst piles on top.
func overloadTrace(seed uint64, n int) []workload.TraceRequest {
	return workload.GenerateTrace(workload.TraceConfig{
		Seed:           seed,
		Requests:       n,
		Tenants:        3,
		ArrivalsPerSec: 3000,
		ClockHz:        hw.A100().ClockHz,
		PromptMin:      32,
		PromptMax:      512,
		DecodeMin:      4,
		DecodeMax:      24,
		BurstFactor:    6,
		BurstStartSec:  0.002,
		BurstLenSec:    0.01,
	})
}

// TestPreemptRestoreBitwise is the preemption invariant: a run through an
// arena tight enough to force preemption churn must complete every request
// with decode digests bitwise-identical to a run through an arena that
// never preempts. KV words and decode tokens are pure functions of
// (token, position), so a correct preempt→restore leaves no trace in the
// output; any divergence means restore rebuilt the wrong KV state.
func TestPreemptRestoreBitwise(t *testing.T) {
	trace := testTrace(13, 48)
	run := func(pages int, preempt bool) (Report, Stats) {
		cfg := testCfg()
		cfg.KV.NumPages = pages
		cfg.DisableKVPreempt = !preempt
		s := New(newFakeExec(), cfg)
		rep, _, err := s.Replay(context.Background(), trace)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.KV().Quiescent(); err != nil {
			t.Fatalf("pages=%d preempt=%v: %v", pages, preempt, err)
		}
		return rep, s.Stats()
	}

	wide, _ := run(4096, false)
	tight, st := run(192, true)

	if st.Preemptions == 0 || st.Restores == 0 {
		t.Fatalf("tight arena exercised no preemption: preemptions=%d restores=%d",
			st.Preemptions, st.Restores)
	}
	if tight.Completed != wide.Completed || tight.Failed != 0 {
		t.Fatalf("tight arena completed %d (failed %d), wide completed %d — preemption lost requests",
			tight.Completed, tight.Failed, wide.Completed)
	}
	if tight.DigestBits != wide.DigestBits {
		t.Fatalf("preempt→restore not bitwise-identical: tight %016x, wide %016x",
			tight.DigestBits, wide.DigestBits)
	}
	if tight.LeakedPages != 0 {
		t.Fatalf("preemption churn leaked %d pages", tight.LeakedPages)
	}

	// Per-seed determinism under preemption churn.
	again, st2 := run(192, true)
	if tight != again || st != st2 {
		t.Fatalf("preemption replay not deterministic:\n%+v\n%+v", tight, again)
	}
}

// TestPreemptionPrefersLowPriorityYoungest pins the victim order: under
// pressure the low-priority class parks, the urgent class keeps running.
func TestPreemptionPrefersLowPriorityYoungest(t *testing.T) {
	cfg := testCfg()
	cfg.KV.NumPages = 160
	cfg.RecordEvents = true
	s := New(newFakeExec(), cfg)

	var trace []workload.TraceRequest
	for i := 0; i < 12; i++ {
		trace = append(trace, workload.TraceRequest{
			ArrivalCycle: float64(i) * 1000,
			Tenant:       "t",
			Priority:     i % 2 * 2, // alternate urgent (0) and background (2)
			PromptLen:    256,
			DecodeTokens: 24,
			PromptSeed:   uint64(i + 1),
		})
	}
	if _, _, err := s.Replay(context.Background(), trace); err != nil {
		t.Fatal(err)
	}
	events := s.Events()
	preempted := 0
	for _, e := range events {
		if e.Kind != "preempt" {
			continue
		}
		preempted++
		// IDs are trace indices; odd indices are the background class.
		if e.ID%2 == 0 {
			t.Fatalf("preempted urgent request %d while background requests ran: %+v", e.ID, e)
		}
	}
	if preempted == 0 {
		t.Fatal("scenario exercised no preemption")
	}
	if err := s.KV().Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineShedQueueTime: with ShedDeadlines on and a TTFT bound the
// surge makes unmeetable, stale queued requests must drain as ErrDeadline
// — provably-late work never reaches the device — while survivors still
// complete, deterministically.
func TestDeadlineShedQueueTime(t *testing.T) {
	run := func() (Report, []Result, Stats) {
		cfg := testCfg()
		cfg.TTFTSLOMs = 2
		cfg.MaxInFlightTokens = 2048 // force a queue so waits actually build
		cfg.ShedDeadlines = true
		s := New(newFakeExec(), cfg)
		rep, results, err := s.Replay(context.Background(), overloadTrace(17, 96))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.KV().Quiescent(); err != nil {
			t.Fatal(err)
		}
		return rep, results, s.Stats()
	}
	rep, results, st := run()
	if st.DeadlineSheds == 0 {
		t.Fatal("surge shed no deadlines")
	}
	sheds := 0
	for _, r := range results {
		if errors.Is(r.Err, ErrDeadline) {
			sheds++
		} else if r.Err != nil {
			t.Fatalf("unexpected failure: %v", r.Err)
		}
	}
	if int64(sheds) != st.DeadlineSheds {
		t.Fatalf("%d ErrDeadline results, stats count %d", sheds, st.DeadlineSheds)
	}
	if rep.Completed == 0 {
		t.Fatal("shedding drained everything; survivors should complete")
	}
	rep2, _, _ := run()
	if rep != rep2 {
		t.Fatalf("deadline shedding not deterministic:\n%+v\n%+v", rep, rep2)
	}
}

// TestAdaptiveLimitTracksLoad: the AIMD limiter must cut the admitted mass
// under step-SLO violations and never leave [min, max].
func TestAdaptiveLimitTracksLoad(t *testing.T) {
	cfg := testCfg()
	cfg.StepSLOMs = 0.1 // tight enough that full admission violates
	cfg.Adaptive = true
	cfg.AdaptiveMinTokens = 512
	s := New(newFakeExec(), cfg)
	rep, _, err := s.Replay(context.Background(), overloadTrace(23, 96))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.StepViolations == 0 {
		t.Fatal("load never violated the step SLO; limiter untested")
	}
	if st.AdaptiveLimitTokens >= cfg.MaxInFlightTokens && cfg.MaxInFlightTokens > 0 {
		t.Fatalf("limit %d never moved below the static budget", st.AdaptiveLimitTokens)
	}
	if st.AdaptiveLimitTokens < cfg.AdaptiveMinTokens {
		t.Fatalf("limit %d fell under the floor %d", st.AdaptiveLimitTokens, cfg.AdaptiveMinTokens)
	}
	if rep.Completed+rep.Failed == 0 {
		t.Fatal("nothing drained")
	}
	if err := s.KV().Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestLimitCutAllocatesNothing: with RecordEvents off an AIMD cut must not
// format its event detail. The serving layer runs the limiter on every
// decode wave, so a Sprintf here would be an allocation per cut in
// production for a log nobody keeps.
func TestLimitCutAllocatesNothing(t *testing.T) {
	cfg := testCfg()
	cfg.Adaptive = true
	s := New(newFakeExec(), cfg)
	over := 2 * s.stepBound
	allocs := testing.AllocsPerRun(100, func() {
		s.mu.Lock()
		s.limit = float64(cfg.MaxInFlightTokens)
		s.adaptLimitLocked(over)
		s.mu.Unlock()
	})
	if s.limit >= float64(s.cfg.MaxInFlightTokens) {
		t.Fatalf("limit %.0f was not cut", s.limit)
	}
	if allocs != 0 {
		t.Fatalf("limit cut with RecordEvents off allocated %.0f times per run", allocs)
	}
}

// TestStarvationGuardPerRequest is the regression for the global deferral
// counter: with a high-priority prefill stream hogging every guard page,
// the old guard reset globally whenever *any* prefill ran, so a
// low-priority prefill starved unboundedly. The per-request guard must
// round-robin guard pages to the most-starved request, bounding every
// request's deferral by the guard cadence times the contending queue.
func TestStarvationGuardPerRequest(t *testing.T) {
	s := New(newFakeExec(), testCfg())
	urgent := &reqState{req: Request{ID: 1, Priority: 0}, need: 4096}
	background := &reqState{req: Request{ID: 2, Priority: 2}, need: 4096}
	s.running = []*reqState{urgent, background}
	s.cyclesPerTk = 2000 // established cost model

	s.mu.Lock()
	defer s.mu.Unlock()
	const waves = 60
	for w := 0; w < waves; w++ {
		// Decode fills the whole bound: zero slack, every wave defers.
		budget := s.prefillBudgetLocked(true, s.stepBound)
		for _, job := range s.buildPrefillLocked(budget) {
			job.st.filled += job.chunk
		}
	}
	if urgent.filled == 0 {
		t.Fatal("urgent prefill made no progress")
	}
	if background.filled == 0 {
		t.Fatalf("background prefill starved across %d waves (urgent got %d tokens)",
			waves, urgent.filled)
	}
	// Both contenders progress at the guard cadence; neither may defer much
	// past one full rotation of the two-deep queue.
	bound := int64(2 * (starvedWaves + 1) * 2)
	if s.stats.MaxDeferredWaves > bound {
		t.Fatalf("max deferral %d exceeds bound %d", s.stats.MaxDeferredWaves, bound)
	}
}

// TestLoopLiveSubmitShutdown closes the loop mid-wave while submitters are
// still firing, with every overload defense enabled over a tight arena:
// each submit must deliver exactly one result, no goroutine may leak, and
// the KV arena must drain quiescent with no tenant queue stranded.
func TestLoopLiveSubmitShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		cfg := testCfg()
		cfg.KV.NumPages = 192
		cfg.Adaptive = true
		cfg.ShedDeadlines = true
		s := New(newFakeExec(), cfg)
		loop := NewLoop(s)

		const submitters, perSubmitter = 4, 24
		var wg sync.WaitGroup
		results := make(chan Result, submitters*perSubmitter)
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					req := Request{
						ID:       uint64(g*perSubmitter + i),
						Tenant:   string(rune('a' + g)),
						Priority: i % NumPriorities,
						Prompt:   make([]int32, 64+16*(i%8)),
						Decode:   8,
					}
					if i%8 == 0 {
						req.Fanout = 2
					}
					results <- <-loop.Submit(req)
				}
			}(g)
		}
		// Let some waves run, then slam the door mid-flight.
		for s.Stats().Waves < int64(1+round) {
			runtime.Gosched()
		}
		loop.Close()
		wg.Wait()
		close(results)

		delivered := 0
		for range results {
			delivered++
		}
		if delivered != submitters*perSubmitter {
			t.Fatalf("round %d: %d results for %d submits", round, delivered, submitters*perSubmitter)
		}
		st := s.Stats()
		if st.Queued != 0 || st.Running != 0 || st.Parked != 0 {
			t.Fatalf("round %d: stranded state after close: queued=%d running=%d parked=%d",
				round, st.Queued, st.Running, st.Parked)
		}
		if err := s.KV().Quiescent(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// The loop goroutine must be gone; allow the runtime a moment to reap.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestZeroConfigPreemptsOnExhaustion: KV preemption is the default. A
// scheduler whose Config leaves DisableKVPreempt unset rides out a tight
// arena by preempting and fails nothing; opted out, the same trace over the
// same arena fails requests whose decode append finds it full.
func TestZeroConfigPreemptsOnExhaustion(t *testing.T) {
	trace := testTrace(13, 48)
	run := func(disable bool) (Report, Stats) {
		cfg := testCfg()
		cfg.KV.NumPages = 192
		cfg.DisableKVPreempt = disable
		s := New(newFakeExec(), cfg)
		rep, _, err := s.Replay(context.Background(), trace)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.KV().Quiescent(); err != nil {
			t.Fatalf("DisableKVPreempt=%v: %v", disable, err)
		}
		return rep, s.Stats()
	}
	if rep, st := run(false); rep.Failed != 0 || st.Preemptions == 0 {
		t.Fatalf("default config: %d failed, %d preemptions; want 0 failed and some preemptions", rep.Failed, st.Preemptions)
	}
	if rep, st := run(true); rep.Failed == 0 || st.Preemptions != 0 {
		t.Fatalf("preemption opted out: %d failed, %d preemptions; want failures and no preemption", rep.Failed, st.Preemptions)
	}
}
