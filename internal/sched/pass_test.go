package sched

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/workload"
)

// TestPassReusedAcrossWaves: a pass that last ran two or more waves ago is
// handed to the executor again without a rebuild. One request decodes alone,
// a second joins its KV bucket for two waves and leaves, and the first
// request's single-sequence pass comes back as the very graph it ran before.
func TestPassReusedAcrossWaves(t *testing.T) {
	ctx := context.Background()
	var decodes []nn.Graph
	exec := newFakeExec()
	s := New(ExecutorFunc(func(ctx context.Context, g nn.Graph, pool string) (float64, error) {
		if pool == PoolDecode {
			decodes = append(decodes, g)
		}
		return exec.ExecGraph(ctx, g, pool)
	}), testCfg())
	submit := func(id uint64, first int32, decode int) {
		prompt := make([]int32, 20) // one 128-token KV bucket for the whole run
		for i := range prompt {
			prompt[i] = first + int32(i)
		}
		s.mu.Lock()
		s.enqueueLocked(&reqState{req: Request{ID: id, Tenant: "t", Prompt: prompt, Decode: decode}})
		s.mu.Unlock()
	}
	wave := func() bool {
		_, worked := s.runWave(ctx)
		return worked
	}

	submit(1, 0, 8)
	wave() // request 1 prefills
	wave() // request 1 decodes alone
	submit(2, 1000, 2)
	for wave() {
	}

	want := []string{
		"llama2-13b@t1_kv128", // request 1 alone
		"llama2-13b@t1_kv128", // request 1 alone while request 2 prefills
		"llama2-13b@t2_kv256", // both decode
		"llama2-13b@t2_kv256", // both decode; request 2 finishes
		"llama2-13b@t1_kv128", // request 1 alone again
	}
	if len(decodes) < len(want) {
		t.Fatalf("%d decode graphs, want at least %d", len(decodes), len(want))
	}
	for i, name := range want {
		if decodes[i].Name != name {
			t.Fatalf("decode graph %d is %s, want %s", i, decodes[i].Name, name)
		}
	}
	if &decodes[4].Ops[0] != &decodes[0].Ops[0] {
		t.Fatal("the single-sequence pass that last ran three waves before was built again")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.passes.Len(); n != 0 {
		t.Fatalf("idle scheduler holds %d step graphs", n)
	}
}

// TestReplayRandomTraces replays random traces — parallel-sampling forks, an
// arena tight enough to force preemption and injected executor failures —
// twice: once with the pass memo emptied after every executor call, so each
// wave builds its graphs afresh, and once as served. The memo must hand over,
// call for call, a graph equal to a fresh build of the pass the memo-free
// replay ran, and both replays must report the same bits. Both hold the KV
// books after every executor call and leave no step graph once drained.
func TestReplayRandomTraces(t *testing.T) {
	errInjected := errors.New("injected device fault")
	var preemptions, failed int64
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		cfg := testCfg()
		cfg.KV.NumPages = 80 + rng.IntN(48) // 1 280–2 032 tokens: preemption churns
		failEvery := 40 + rng.IntN(60)
		trace := workload.GenerateTrace(workload.TraceConfig{
			Seed:           seed,
			Requests:       24 + rng.IntN(24),
			Tenants:        1 + rng.IntN(3),
			ArrivalsPerSec: float64(2000 + rng.IntN(4000)),
			ClockHz:        hw.A100().ClockHz,
			PromptMin:      16,
			PromptMax:      256 << rng.IntN(2),
			DecodeMin:      2,
			DecodeMax:      8 + rng.IntN(24),
			FanoutEvery:    2 + rng.IntN(3),
		})

		// replay runs the trace and returns the graph names it executed.
		// With want nil it empties the memo after every call; otherwise
		// call i must hand over a fresh build of the pass named want[i].
		replay := func(want []string) (Report, []string) {
			var s *Scheduler
			var names []string
			exec := newFakeExec()
			s = New(ExecutorFunc(func(ctx context.Context, g nn.Graph, pool string) (float64, error) {
				// The scheduler does not touch its KV manager or its
				// memo while the executor runs, so this is the state
				// the call left.
				defer func() {
					if err := s.KV().CheckInvariants(); err != nil {
						t.Errorf("seed %d, executor call %d: %v", seed, len(names), err)
					}
				}()
				names = append(names, g.Name)
				call := len(names)
				if want == nil {
					s.mu.Lock()
					s.passes.RemoveIf(func(passKey, nn.Graph) bool { return true })
					s.mu.Unlock()
				} else if call > len(want) {
					t.Fatalf("seed %d: executor call %d, the memo-free replay made %d", seed, call, len(want))
				} else if tokens, kvTokens, err := parsePass(want[call-1]); err != nil {
					t.Fatalf("seed %d: graph named %q", seed, want[call-1])
				} else if !reflect.DeepEqual(g, nn.LlamaPass(tokens, kvTokens)) {
					t.Fatalf("seed %d, executor call %d: handed %s, want a fresh %s", seed, call, g.Name, want[call-1])
				}
				if call%failEvery == 0 {
					return 0, errInjected
				}
				return exec.ExecGraph(ctx, g, pool)
			}), cfg)

			rep, results, err := s.Replay(context.Background(), trace)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(trace) || rep.Completed+rep.Failed != len(trace) {
				t.Fatalf("seed %d: %d results, %d completed + %d failed, want %d",
					seed, len(results), rep.Completed, rep.Failed, len(trace))
			}
			if rep.LeakedPages != 0 {
				t.Fatalf("seed %d: leaked %d pages", seed, rep.LeakedPages)
			}
			if err := s.KV().Quiescent(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			s.mu.Lock()
			held := s.passes.Len()
			s.mu.Unlock()
			if held != 0 {
				t.Fatalf("seed %d: drained scheduler holds %d step graphs", seed, held)
			}
			st := s.Stats()
			preemptions += st.Preemptions
			failed += st.Failed
			return rep, names
		}

		fresh, want := replay(nil)
		memo, got := replay(want)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d executor calls, the memo-free replay made %d", seed, len(got), len(want))
		}
		if memo != fresh {
			t.Fatalf("seed %d: the memo changed the replay:\n%+v\n%+v", seed, memo, fresh)
		}
	}
	if preemptions == 0 || failed == 0 {
		t.Fatalf("traces exercised %d preemptions and %d failures, want some of each", preemptions, failed)
	}
}
