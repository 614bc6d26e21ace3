package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// chaosRecord is one request's externally visible outcome.
type chaosRecord struct {
	Endpoint string
	Status   int
	Cycles   float64
	Faulted  int
	Checksum float64
}

// chaosOutcome is everything a chaos scenario exposes to its invariants:
// the per-request records plus the final health state. Two runs of the same
// seed must produce identical outcomes.
type chaosOutcome struct {
	Records     []chaosRecord
	Quarantined []int
	HealthState string
	Recovered   int64 // ladder recoveries (retried+migrated+replanned)
	GraphCycles float64
}

// runChaosScenario drives a scripted traffic mix through a full serve stack
// wired with the seed's chaos fault schedule, and collects the outcome.
func runChaosScenario(t *testing.T, seed uint64) chaosOutcome {
	t.Helper()
	faults := sim.ChaosSchedule(seed, hw.A100())
	srv, ts := newTestServer(t, Config{Faults: &faults}, noBackoff)
	t.Cleanup(srv.Close)

	var out chaosOutcome
	record := func(endpoint string, body any) {
		resp, data := postJSON(t, ts.URL+endpoint, body)
		rec := chaosRecord{Endpoint: endpoint, Status: resp.StatusCode}
		switch resp.StatusCode {
		case http.StatusOK:
			switch endpoint {
			case "/model":
				var mr modelResponse
				if err := json.Unmarshal(data, &mr); err != nil {
					t.Fatalf("%s: %v", endpoint, err)
				}
				rec.Cycles, rec.Faulted = mr.SimCycles, mr.FaultedTasks
			case "/execute":
				var er execResponse
				if err := json.Unmarshal(data, &er); err != nil {
					t.Fatalf("%s: %v", endpoint, err)
				}
				rec.Cycles, rec.Faulted, rec.Checksum = er.SimCycles, er.FaultedTasks, er.Checksum
			}
		case http.StatusServiceUnavailable:
			// Typed rejection: acceptable chaos outcome.
		default:
			t.Fatalf("%s: status %d is neither success nor typed 503: %s", endpoint, resp.StatusCode, data)
		}
		out.Records = append(out.Records, rec)
	}

	// The traffic mix: repeated model graphs (stage memo + plan cache under
	// a changing health view), a decode graph, and a numeric execution.
	for i := 0; i < 3; i++ {
		record("/model", modelRequest{Model: "distilbert", Seq: 32})
	}
	record("/model", modelRequest{Model: "llama2-decode", KVLen: 128, Steps: 2})
	record("/execute", execRequest{M: 96, N: 96, K: 64, SeedA: 7, SeedB: 9})
	record("/model", modelRequest{Model: "distilbert", Seq: 32})

	// Final health state.
	data := getJSON(t, ts.URL+"/healthz")
	var hr healthResponse
	if err := json.Unmarshal(data, &hr); err != nil {
		t.Fatal(err)
	}
	out.Quarantined = hr.Quarantined
	out.HealthState = hr.Status

	if rt := srv.runtime.Load(); rt != nil {
		gs := rt.Stats()
		out.Recovered = gs.RetriedStages + gs.MigratedStages + gs.ReplannedStages
		out.GraphCycles = gs.Cycles
	}

	// Invariant: no panics anywhere in the stack.
	if n := srv.nPanics.Load(); n != 0 {
		t.Fatalf("seed %d: %d handler panics recovered", seed, n)
	}
	// Invariant: health status consistent with the quarantine set.
	if len(hr.Quarantined) > 0 && hr.Status != "degraded" {
		t.Fatalf("seed %d: quarantined %v but status %q", seed, hr.Quarantined, hr.Status)
	}
	return out
}

// getJSON fetches a GET endpoint's body.
func getJSON(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf []byte
	buf, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, buf)
	}
	return buf
}

// TestChaosSeedsInvariants is the chaos harness: for several seeds, a full
// serve stack under that seed's persistent-fault schedule (PE death, sticky
// streaks, brownouts, transient faults) must (a) answer every request with a
// correct result or a typed error, (b) never panic, (c) never leak a
// degraded program into the healthy cache, and (d) behave identically when
// the same seed is replayed.
func TestChaosSeedsInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			first := runChaosScenario(t, seed)
			second := runChaosScenario(t, seed)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("seed %d nondeterministic:\n first %+v\nsecond %+v", seed, first, second)
			}
			for _, rec := range first.Records {
				if rec.Status == http.StatusOK && rec.Faulted != 0 {
					t.Fatalf("seed %d: %s answered 200 with %d unhealed faulted tasks", seed, rec.Endpoint, rec.Faulted)
				}
			}
		})
	}
}

// TestChaosNoCachePoisoning plants a persistent PE death, lets the stack
// degrade, and then verifies the healthy cache entry was never overwritten
// by a degraded-view program: back on the pristine device, the same shape is
// served its full-width program from the cache.
func TestChaosNoCachePoisoning(t *testing.T) {
	faults := sim.Faults{Seed: 5, PEDeathCycle: map[int]float64{4: 1}}
	srv, ts := newTestServer(t, Config{Faults: &faults}, noBackoff)
	t.Cleanup(srv.Close)

	base := hw.A100().NumPEs
	shape := tensor.GemmShape{M: 96, N: 96, K: 64}

	// Healthy plan first: cached under fp "".
	resp, data := postJSON(t, ts.URL+"/plan", planRequest{M: 96, N: 96, K: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %s", resp.StatusCode, data)
	}
	c := srv.comp()

	// Drive executions until the PE death is observed and quarantined.
	for i := 0; i < 6; i++ {
		postJSON(t, ts.URL+"/model", modelRequest{Model: "distilbert", Seq: 32})
		if len(srv.health.Load().View().Quarantined) > 0 {
			break
		}
	}
	reg := srv.health.Load()
	fp := reg.View().Fingerprint()
	if fp == "" {
		t.Fatal("persistent PE death never quarantined a PE")
	}

	// A degraded re-plan of the same shape lands under fp, not "".
	resp, data = postJSON(t, ts.URL+"/plan", planRequest{M: 96, N: 96, K: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded plan: %d %s", resp.StatusCode, data)
	}
	if c.Lookup(shape) == nil {
		t.Fatalf("degraded plan not cached under fp %q", fp)
	}

	// The healthy entry must be intact: back on the pristine device, the
	// cache must hand back the full-width program without replanning.
	c.SetHealth(nil)
	prog := c.Lookup(shape)
	if prog == nil {
		t.Fatal("healthy plan no longer cached under the pristine fingerprint")
	}
	if prog.HW.NumPEs != base {
		t.Fatalf("healthy cache entry poisoned: targets %d PEs, want %d", prog.HW.NumPEs, base)
	}
}

// TestChaosPEDeathHealsWithCorrectNumerics is the acceptance scenario: a PE
// dies mid-graph; the stack must quarantine it, replan on the degraded view,
// and return numerics identical to a fault-free run — while /healthz reports
// the quarantined PE.
func TestChaosPEDeathHealsWithCorrectNumerics(t *testing.T) {
	exec := execRequest{M: 192, N: 160, K: 96, SeedA: 3, SeedB: 5}

	// Reference numerics: fault-free stack.
	_, refTS := newTestServer(t, Config{})
	resp, data := postJSON(t, refTS.URL+"/execute", exec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference execute: %d %s", resp.StatusCode, data)
	}
	var ref execResponse
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}

	// Chaos stack: PE 6 dies at cycle 1 of every run — every stage faults
	// until the registry quarantines it and the remap drops its schedule.
	faults := sim.Faults{Seed: 11, PEDeathCycle: map[int]float64{6: 1}}
	srv, ts := newTestServer(t, Config{Faults: &faults}, noBackoff)
	t.Cleanup(srv.Close)

	resp, data = postJSON(t, ts.URL+"/model", modelRequest{Model: "distilbert", Seq: 32})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model under PE death: %d %s", resp.StatusCode, data)
	}
	var mr modelResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.FaultedTasks != 0 {
		t.Fatalf("model surfaced %d faulted tasks despite recovery", mr.FaultedTasks)
	}
	if mr.RecoveredStages == 0 {
		t.Fatal("PE death healed without any recorded stage recovery")
	}

	// /healthz must now report the quarantined PE and degraded status.
	data = getJSON(t, ts.URL+"/healthz")
	var hr healthResponse
	if err := json.Unmarshal(data, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || len(hr.Quarantined) != 1 || hr.Quarantined[0] != 6 {
		t.Fatalf("healthz %+v, want degraded with PE 6 quarantined", hr)
	}

	// Degraded-mode numerics must equal the fault-free reference exactly:
	// every program partitions the same iteration space with sequential-K
	// accumulation, so region layout cannot change the result.
	resp, data = postJSON(t, ts.URL+"/execute", exec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded execute: %d %s", resp.StatusCode, data)
	}
	var er execResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.FaultedTasks != 0 {
		t.Fatalf("degraded execute surfaced %d faults", er.FaultedTasks)
	}
	if er.Checksum != ref.Checksum || !reflect.DeepEqual(er.Sample, ref.Sample) {
		t.Fatalf("degraded numerics diverged: checksum %v vs %v, sample %v vs %v",
			er.Checksum, ref.Checksum, er.Sample, ref.Sample)
	}
}

// TestChaosDegradedCycleRegression pins the degraded-mode execution cost:
// the same seed must reproduce the exact same device-cycle count, so any
// change to fault simulation, health classification, or the recovery ladder
// shows up as a diff here.
func TestChaosDegradedCycleRegression(t *testing.T) {
	run := func() (float64, int) {
		faults := sim.Faults{Seed: 21, PEDeathCycle: map[int]float64{2: 1}, StickyFaults: map[int]int{9: 3}}
		srv, ts := newTestServer(t, Config{Faults: &faults}, noBackoff)
		t.Cleanup(srv.Close)
		resp, data := postJSON(t, ts.URL+"/model", modelRequest{Model: "distilbert", Seq: 32})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model: %d %s", resp.StatusCode, data)
		}
		var mr modelResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		return mr.SimCycles, mr.RecoveredStages
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("degraded-mode outcome drifted: cycles %v vs %v, recovered %d vs %d", c1, c2, r1, r2)
	}
	if r1 == 0 {
		t.Fatal("scenario exercised no recovery — regression pin is vacuous")
	}
	if c1 <= 0 {
		t.Fatalf("implausible cycle count %v", c1)
	}
	t.Logf("pinned degraded-mode cycles: %v (recovered stages: %d)", c1, r1)
}
