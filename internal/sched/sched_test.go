package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/nn"
	"mikpoly/internal/workload"
)

// fakeExec prices graphs with a deterministic analytic model parsed from
// the llama graph names: prefill costs per token, decode costs a base plus
// a KV-length term. Good enough to exercise every scheduling decision
// without tuning a kernel library.
type fakeExec struct {
	mu        sync.Mutex
	calls     []string
	perToken  float64
	decodeFix float64
	perKV     float64
	failWhen  func(g nn.Graph, pool string) error
}

func newFakeExec() *fakeExec {
	return &fakeExec{perToken: 2000, decodeFix: 40000, perKV: 50}
}

func (f *fakeExec) ExecGraph(_ context.Context, g nn.Graph, pool string) (float64, error) {
	f.mu.Lock()
	f.calls = append(f.calls, pool+":"+g.Name)
	fail := f.failWhen
	f.mu.Unlock()
	if fail != nil {
		if err := fail(g, pool); err != nil {
			return 0, err
		}
	}
	var b, s int
	if _, err := fmt.Sscanf(g.Name, "llama2-13b-prefill@b%d_s%d", &b, &s); err == nil {
		return float64(b*s) * f.perToken, nil
	}
	if _, err := fmt.Sscanf(g.Name, "llama2-13b-decode@b%d_kv%d", &b, &s); err == nil {
		return f.decodeFix + float64(s)*f.perKV, nil
	}
	return 0, fmt.Errorf("fakeExec: unknown graph %q", g.Name)
}

func testCfg() Config {
	return Config{
		HW:           hw.A100(),
		KV:           kvcache.Config{NumPages: 4096, TokensPerPage: 16},
		StepSLOMs:    0.2, // 282k cycles at 1.41 GHz
		TTFTSLOMs:    50,
		PrefillChunk: 256,
	}
}

func testTrace(seed uint64, n int) []workload.TraceRequest {
	return workload.GenerateTrace(workload.TraceConfig{
		Seed:           seed,
		Requests:       n,
		Tenants:        3,
		ArrivalsPerSec: 2000,
		ClockHz:        hw.A100().ClockHz,
		PromptMin:      32,
		PromptMax:      512,
		DecodeMin:      4,
		DecodeMax:      24,
	})
}

// Replaying the same trace twice must produce bit-identical reports.
func TestReplayDeterministic(t *testing.T) {
	run := func() Report {
		s := New(newFakeExec(), testCfg())
		rep, _, err := s.Replay(context.Background(), testTrace(7, 64))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Completed != 64 || a.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 64/0", a.Completed, a.Failed)
	}
	if a.LeakedPages != 0 {
		t.Fatalf("leaked %d pages", a.LeakedPages)
	}
}

// Decode digests must be bitwise-equal with prefix reuse on vs off, while
// reuse measurably cuts prefill work on a shared-prefix trace.
func TestReuseOnOffBitwiseEqualAndCheaper(t *testing.T) {
	trace := testTrace(11, 96)
	run := func(disable bool) Report {
		cfg := testCfg()
		cfg.KV.DisableSharing = disable
		s := New(newFakeExec(), cfg)
		rep, _, err := s.Replay(context.Background(), trace)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LeakedPages != 0 {
			t.Fatalf("leaked %d pages (disable=%v)", rep.LeakedPages, disable)
		}
		return rep
	}
	on, off := run(false), run(true)
	if on.Completed != off.Completed || on.Completed != 96 {
		t.Fatalf("completed on=%d off=%d", on.Completed, off.Completed)
	}
	if on.DigestBits != off.DigestBits {
		t.Fatalf("decode digests differ: reuse-on %x, reuse-off %x", on.DigestBits, off.DigestBits)
	}
	if on.ReusedTokens == 0 {
		t.Fatal("shared-prefix trace produced zero reused tokens")
	}
	if on.PrefillCycles >= off.PrefillCycles {
		t.Fatalf("prefix reuse did not reduce prefill cycles: on=%g off=%g",
			on.PrefillCycles, off.PrefillCycles)
	}
}

// Chunked prefill: long prompts arriving during decode must not push the
// p99 decode-step latency past the SLO bound.
func TestChunkedPrefillBoundsStepLatency(t *testing.T) {
	cfg := testCfg()
	cfg.StepSLOMs = 0.6
	cfg.MaxInFlightTokens = 16384 // bound concurrency: decode can't eat the SLO alone
	s := New(newFakeExec(), cfg)
	trace := workload.GenerateTrace(workload.TraceConfig{
		Seed: 3, Requests: 48, Tenants: 2,
		ArrivalsPerSec: 5000, ClockHz: cfg.HW.ClockHz,
		PromptMin: 512, PromptMax: 4096, // long prompts
		DecodeMin: 16, DecodeMax: 64,
		GroupsPerTenant: -1, // no shared prefixes: maximum prefill pressure
	})
	rep, _, err := s.Replay(context.Background(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if rep.P99StepMs > cfg.StepSLOMs {
		t.Fatalf("p99 decode step %.3fms exceeds SLO bound %.3fms", rep.P99StepMs, cfg.StepSLOMs)
	}
	st := s.Stats()
	if st.PrefillChunks <= int64(rep.Completed) {
		t.Fatalf("prompts were not chunked: %d chunks for %d requests", st.PrefillChunks, rep.Completed)
	}
}

// Fanout requests fork after prefill and diverge through COW; the KV books
// must record the copies and still balance to zero on drain.
func TestFanoutForksAndCOW(t *testing.T) {
	s := New(newFakeExec(), testCfg())
	trace := workload.GenerateTrace(workload.TraceConfig{
		Seed: 9, Requests: 24, Tenants: 2,
		ArrivalsPerSec: 1000, ClockHz: hw.A100().ClockHz,
		PromptMin: 40, PromptMax: 200, DecodeMin: 8, DecodeMax: 16,
		FanoutEvery: 2,
	})
	rep, results, err := s.Replay(context.Background(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KV.COWCopies == 0 {
		t.Fatal("fanout trace triggered no COW copies")
	}
	if rep.CopyCycles <= 0 {
		t.Fatal("COW bandwidth was not charged")
	}
	var fanned bool
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
		if tr := trace[res.ID]; tr.Fanout > 1 {
			fanned = true
			if res.DecodeTokens != tr.DecodeTokens*tr.Fanout {
				t.Fatalf("fanout request decoded %d tokens, want %d",
					res.DecodeTokens, tr.DecodeTokens*tr.Fanout)
			}
		}
	}
	if !fanned {
		t.Fatal("trace had no fanout requests")
	}
	if err := s.KV().Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// An executor crash mid-decode must fail only the affected requests,
// release their pages, and leave the queue moving for everyone else.
func TestExecutorCrashNoLeakNoStrandedQueue(t *testing.T) {
	fe := newFakeExec()
	calls := 0
	fe.failWhen = func(g nn.Graph, pool string) error {
		calls++
		if pool == PoolDecode && calls%17 == 0 {
			return errors.New("device crashed mid-decode")
		}
		return nil
	}
	s := New(fe, testCfg())
	rep, results, err := s.Replay(context.Background(), testTrace(13, 48))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("crash schedule failed nothing")
	}
	if rep.Completed == 0 {
		t.Fatal("crashes stranded the whole queue")
	}
	if rep.Completed+rep.Failed != 48 {
		t.Fatalf("completed+failed = %d, want 48", rep.Completed+rep.Failed)
	}
	if rep.LeakedPages != 0 {
		t.Fatalf("crash leaked %d KV pages", rep.LeakedPages)
	}
	if err := s.KV().Quiescent(); err != nil {
		t.Fatal(err)
	}
	_ = results
}

// Token-budget admission: a request that can never fit is rejected fast;
// fitting requests from other tenants keep flowing around a heavy one.
func TestTokenBudgetAdmission(t *testing.T) {
	cfg := testCfg()
	cfg.MaxInFlightTokens = 600
	s := New(newFakeExec(), cfg)
	l := NewLoop(s)
	defer l.Close()

	if res := <-l.Submit(Request{ID: 1, Tenant: "big", Prompt: make([]int32, 700), Decode: 8}); !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("oversized request err = %v, want ErrRejected", res.Err)
	}
	var chans []<-chan Result
	for i := 0; i < 6; i++ {
		chans = append(chans, l.Submit(Request{
			ID: uint64(10 + i), Tenant: fmt.Sprintf("t%d", i%2),
			Prompt: make([]int32, 200), Decode: 4,
		}))
	}
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	if err := s.KV().Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// Priority classes: under a budget that admits one request at a time, the
// urgent request always finishes first even when submitted last.
func TestPriorityOrdering(t *testing.T) {
	cfg := testCfg()
	cfg.KV.NumPages = 8
	cfg.KV.TokensPerPage = 16
	cfg.MaxInFlightTokens = 1 << 40 // KV arena is the bottleneck
	fe := newFakeExec()
	s := New(fe, cfg)

	trace := []workload.TraceRequest{
		{ArrivalCycle: 0, Tenant: "t", Priority: 2, PromptLen: 96, DecodeTokens: 4, Fanout: 1, PromptSeed: 101},
		{ArrivalCycle: 0, Tenant: "t", Priority: 2, PromptLen: 96, DecodeTokens: 4, Fanout: 1, PromptSeed: 102},
		{ArrivalCycle: 0, Tenant: "t", Priority: 0, PromptLen: 96, DecodeTokens: 4, Fanout: 1, PromptSeed: 103},
	}
	_, results, err := s.Replay(context.Background(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	// Completion order: the priority-0 request (ID 2) must finish first.
	if results[0].ID != 2 {
		t.Fatalf("first completion was request %d, want the priority-0 request (2)", results[0].ID)
	}
}

// Online loop under -race: concurrent submits from several tenants all
// complete and the KV books balance.
func TestLoopConcurrentSubmits(t *testing.T) {
	s := New(newFakeExec(), testCfg())
	l := NewLoop(s)
	defer l.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				prompt := make([]int32, 64+w*16+i)
				for j := range prompt {
					prompt[j] = int32((w*1000 + i*100 + j) % 32000)
				}
				res := <-l.Submit(Request{
					ID: uint64(w*100 + i), Tenant: fmt.Sprintf("t%d", w),
					Priority: w % NumPriorities, Prompt: prompt, Decode: 4,
				})
				if res.Err != nil {
					errs <- fmt.Errorf("w%d/%d: %w", w, i, res.Err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.KV().Quiescent(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed != 40 {
		t.Fatalf("completed %d, want 40", st.Completed)
	}
}

// TestDecodeWavesReuseStepGraphs: consecutive decode waves at one (batch,
// padded KV length) hand the executor the same step graph rather than build it
// again, and every graph handed over is the one a fresh build would be.
func TestDecodeWavesReuseStepGraphs(t *testing.T) {
	var decodes, reused int
	last := make(map[string]*nn.Op) // graph name → first op of the graph last seen under it
	exec := newFakeExec()
	s := New(ExecutorFunc(func(ctx context.Context, g nn.Graph, pool string) (float64, error) {
		if pool == PoolDecode {
			var b, kv int
			if _, err := fmt.Sscanf(g.Name, "llama2-13b-decode@b%d_kv%d", &b, &kv); err != nil {
				t.Errorf("decode graph named %q", g.Name)
			} else if fresh := nn.Llama2Decode(b, kv); !reflect.DeepEqual(g, fresh) {
				t.Errorf("%s differs from a fresh build", g.Name)
			}
			decodes++
			if last[g.Name] == &g.Ops[0] {
				reused++
			}
			last[g.Name] = &g.Ops[0]
		}
		return exec.ExecGraph(ctx, g, pool)
	}), testCfg())
	if _, _, err := s.Replay(context.Background(), testTrace(5, 40)); err != nil {
		t.Fatal(err)
	}
	if decodes == 0 || reused*2 < decodes {
		t.Fatalf("%d of %d decode graphs were the previous wave's", reused, decodes)
	}
}

// TestPrefillWavesReuseGraphs: two waves that each grant a full 256-token
// chunk hand the executor one prefill graph, equal to a fresh build, and
// once the last request finishes the scheduler holds no step graph at all.
func TestPrefillWavesReuseGraphs(t *testing.T) {
	var prefills []nn.Graph
	exec := newFakeExec()
	s := New(ExecutorFunc(func(ctx context.Context, g nn.Graph, pool string) (float64, error) {
		if pool == PoolPrefill {
			prefills = append(prefills, g)
		}
		return exec.ExecGraph(ctx, g, pool)
	}), testCfg())
	prompt := make([]int32, 600) // chunks of 256, 256 and 88 tokens
	for i := range prompt {
		prompt[i] = int32(i)
	}
	s.mu.Lock()
	s.enqueueLocked(&reqState{req: Request{ID: 1, Tenant: "t", Prompt: prompt, Decode: 2}})
	s.mu.Unlock()
	for {
		if _, worked := s.runWave(context.Background()); !worked {
			break
		}
	}
	if st := s.Stats(); st.Completed != 1 || len(prefills) != 3 {
		t.Fatalf("completed %d requests over %d prefill chunks, want 1 over 3", st.Completed, len(prefills))
	}
	first, second := prefills[0], prefills[1]
	if &first.Ops[0] != &second.Ops[0] {
		t.Fatal("the second 256-token chunk built its prefill graph again")
	}
	if !reflect.DeepEqual(second, nn.Llama2Prefill(1, 256)) {
		t.Fatalf("reused graph %s differs from a fresh build", second.Name)
	}
	if !reflect.DeepEqual(prefills[2], nn.Llama2Prefill(1, 88)) {
		t.Fatalf("tail chunk ran %s, want a fresh 88-token graph", prefills[2].Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastPrefill != nil || s.lastDecode != nil {
		t.Fatalf("idle scheduler holds %d prefill and %d decode graphs", len(s.lastPrefill), len(s.lastDecode))
	}
}
