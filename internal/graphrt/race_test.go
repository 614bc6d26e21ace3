package graphrt

import (
	"context"
	"sync"
	"testing"

	"mikpoly/internal/nn"
)

// TestRaceConcurrentDecodeAndExecute exercises the plan-ahead pipeline under
// concurrent decode traffic (run with -race): decode step graphs at differing
// KV lengths and repeated executions of one graph share one runtime, and
// every execution must remain cycle-for-cycle deterministic against a
// sequential baseline while the stall accounting invariants hold.
func TestRaceConcurrentDecodeAndExecute(t *testing.T) {
	g := nn.Llama2Decode(1, 100)
	kvs := []int{90, 97, 104, 111, 118, 125}

	// Sequential baselines on their own cold compiler.
	base := fastRuntime(t, Config{})
	want := map[int]float64{}
	for _, kv := range append(kvs, 100) {
		rep, err := base.Execute(context.Background(), nn.Llama2Decode(1, kv))
		if err != nil {
			t.Fatal(err)
		}
		want[kv] = rep.Cycles
	}

	rt := fastRuntime(t, Config{PlanAhead: 3})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	run := func(g nn.Graph, want float64) {
		defer wg.Done()
		rep, err := rt.Execute(context.Background(), g)
		if err != nil {
			errs <- err
			return
		}
		if rep.Cycles != want {
			errs <- errCycles{rep.Cycles, want}
		}
	}
	// Concurrent decode steps with differing KV lengths, beside concurrent
	// plan-ahead executions of one graph: all must cost exactly their
	// sequential baseline's cycles.
	for _, kv := range kvs {
		wg.Add(1)
		go run(nn.Llama2Decode(1, kv), want[kv])
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go run(g, want[100])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := rt.Stats()
	if st.Stalls > st.Plans {
		t.Errorf("stalls %d > plans %d", st.Stalls, st.Plans)
	}
	if st.HiddenWall > st.PlanWall {
		t.Errorf("hidden wall %v > plan wall %v", st.HiddenWall, st.PlanWall)
	}
	if st.PlanWall > st.StallWall+st.HiddenWall {
		t.Errorf("plan wall %v > stall %v + hidden %v", st.PlanWall, st.StallWall, st.HiddenWall)
	}
	if st.Graphs != int64(len(kvs)+3) {
		t.Errorf("aggregated %d graphs, want %d executions", st.Graphs, len(kvs)+3)
	}
}

type errCycles struct{ got, want float64 }

func (e errCycles) Error() string {
	return "plan-ahead cycles diverged from sequential baseline"
}
