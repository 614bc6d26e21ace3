package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/fleet"
	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
	"mikpoly/internal/sim"
	"mikpoly/internal/tune"
)

// newFleetServer builds a server backed by a mixed-class fleet (2×A100 +
// 1×NPU) with per-device fault schedules, fast hedging, and manual probing.
func newFleetServer(t *testing.T, cfg Config, faults []sim.DeviceFaults) (*Server, *httptest.Server, *fleet.Dispatcher) {
	t.Helper()
	opts := tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256}
	classes := []hw.Hardware{hw.A100(), hw.A100(), hw.Ascend910()}
	names := []string{"a100-0", "a100-1", "npu-0"}
	devices := make([]*fleet.Device, len(classes))
	for i, h := range classes {
		lib, err := core.SharedLibrary(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		dcfg := fleet.DeviceConfig{Name: names[i]}
		if i < len(faults) {
			dcfg.DevFaults = faults[i]
		}
		devices[i] = fleet.NewDevice(lib, dcfg)
	}
	f := fleet.NewDispatcher(devices, fleet.Config{
		MaxAttempts:      6,
		HedgeAfter:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Millisecond,
	})
	f.Start()
	srv := New(testCompiler(t), cfg)
	srv.SetFleet(f)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, f
}

func TestGemmEndpointRoutesAcrossFleet(t *testing.T) {
	_, ts, _ := newFleetServer(t, Config{}, nil)

	// The fleet-backed /gemm and the single-device /execute must agree
	// bitwise: routing must never change numerics.
	req := execRequest{M: 96, N: 96, K: 64, SeedA: 11, SeedB: 22}
	resp, data := postJSON(t, ts.URL+"/execute", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status %d: %s", resp.StatusCode, data)
	}
	var ref execResponse
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}

	served := map[string]int{}
	for i := 0; i < 9; i++ {
		resp, data := postJSON(t, ts.URL+"/gemm", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gemm %d status %d: %s", i, resp.StatusCode, data)
		}
		var er execResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatal(err)
		}
		if er.Device == "" {
			t.Fatalf("gemm response %d missing device: %s", i, data)
		}
		if er.Checksum != ref.Checksum {
			t.Fatalf("gemm checksum %g != execute checksum %g (device %s)", er.Checksum, ref.Checksum, er.Device)
		}
		served[er.Device]++
	}
	if len(served) < 2 {
		t.Fatalf("9 sequential requests all landed on one replica: %v", served)
	}
}

func TestGemmWithoutFleetIs503(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/gemm", execRequest{M: 64, N: 64, K: 64})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gemm without fleet: status %d, want 503: %s", resp.StatusCode, data)
	}
}

func TestGemmEndpointValidatesShapes(t *testing.T) {
	_, ts, _ := newFleetServer(t, Config{}, nil)
	cases := []struct {
		body   string
		status int
	}{
		{`{"m":-4,"n":8,"k":8}`, http.StatusBadRequest},
		{`{"m":4,`, http.StatusBadRequest},
		{`{"m":1073741824,"n":8,"k":8}`, http.StatusRequestEntityTooLarge},
		{`{"m":1048576,"n":1048576,"k":8}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/gemm", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.status)
		}
	}
}

func TestModelEndpointRoutesAcrossFleet(t *testing.T) {
	// A multi-step decode on the fleet runs every step, not just the first.
	_, ts, _ := newFleetServer(t, Config{}, nil)
	resp, data := postJSON(t, ts.URL+"/model", modelRequest{Model: "llama2-decode", KVLen: 64, Steps: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model status %d: %s", resp.StatusCode, data)
	}
	var mr modelResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Device == "" {
		t.Fatalf("fleet-routed model response missing device: %s", data)
	}
	if mr.Tokens != 3 || mr.Attempts < 3 {
		t.Fatalf("fleet-routed decode ran %d tokens in %d attempts, want 3 in >= 3: %s", mr.Tokens, mr.Attempts, data)
	}
	if mr.SimCycles <= 0 || mr.Ops <= 0 {
		t.Fatalf("implausible model response: %+v", mr)
	}
}

func TestGemmEndpointFailsOverCrashedDevice(t *testing.T) {
	// Device 0 dies on its first op; every request must still succeed.
	_, ts, f := newFleetServer(t, Config{}, []sim.DeviceFaults{{CrashAtOp: 1}})
	req := execRequest{M: 96, N: 96, K: 64}
	for i := 0; i < 8; i++ {
		resp, data := postJSON(t, ts.URL+"/gemm", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gemm %d status %d: %s", i, resp.StatusCode, data)
		}
	}
	if d := f.Device("a100-0"); d.State() != fleet.StateDead {
		t.Fatalf("crash victim state = %s, want dead", d.State())
	}

	// /healthz reports the fleet: status degraded, summaries attached.
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, body)
	}
	var hr healthResponse
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" {
		t.Fatalf("healthz status %q with a dead replica, want degraded", hr.Status)
	}
	if len(hr.Devices) != 3 {
		t.Fatalf("healthz reported %d devices, want 3: %s", len(hr.Devices), body)
	}
}

func TestFleetSummaryAndDrainEndpoints(t *testing.T) {
	_, ts, f := newFleetServer(t, Config{}, nil)

	resp, body := getBody(t, ts.URL+"/fleet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet status %d: %s", resp.StatusCode, body)
	}
	var fr fleetResponse
	if err := json.Unmarshal([]byte(body), &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Devices) != 3 {
		t.Fatalf("fleet summary has %d devices, want 3", len(fr.Devices))
	}

	drain := func(query string) *http.Response {
		resp, err := http.Post(ts.URL+"/fleet/drain"+query, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := drain(""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("drain without device: status %d, want 400", resp.StatusCode)
	}
	if resp := drain("?device=nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown device: status %d, want 404", resp.StatusCode)
	}
	if resp := drain("?device=a100-1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain a100-1: status %d, want 200", resp.StatusCode)
	}
	if resp := drain("?device=a100-1"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double drain: status %d, want 409", resp.StatusCode)
	}
	if d := f.Device("a100-1"); d.State() != fleet.StateDead {
		t.Fatalf("drained idle device state = %s, want dead", d.State())
	}

	// The drained replica takes no further traffic.
	for i := 0; i < 6; i++ {
		resp, data := postJSON(t, ts.URL+"/gemm", execRequest{M: 96, N: 96, K: 64})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gemm after drain: status %d: %s", resp.StatusCode, data)
		}
		var er execResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatal(err)
		}
		if er.Device == "a100-1" {
			t.Fatal("drained device served a request")
		}
	}
}

func TestFleetEndpointsWithoutFleetAre404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := getBody(t, ts.URL+"/fleet"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /fleet without fleet: status %d, want 404: %s", resp.StatusCode, body)
	}
	resp, err := http.Post(ts.URL+"/fleet/drain?device=x", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /fleet/drain without fleet: status %d, want 404", resp.StatusCode)
	}
}

func TestFleetMetricsExported(t *testing.T) {
	o := obs.New(obs.DefaultTraceCapacity)
	_, ts, _ := newFleetServer(t, Config{Obs: o}, []sim.DeviceFaults{{CrashAtOp: 1}})

	for i := 0; i < 6; i++ {
		if resp, data := postJSON(t, ts.URL+"/gemm", execRequest{M: 96, N: 96, K: 64}); resp.StatusCode != http.StatusOK {
			t.Fatalf("gemm status %d: %s", resp.StatusCode, data)
		}
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`mik_fleet_device_state{device="a100-0",class="nvidia-a100"} 4`, // crashed → dead
		`mik_fleet_device_state{device="a100-1",class="nvidia-a100"} 1`,
		"mik_fleet_requests_total 6",
		`mik_fleet_events_total{event="failover"}`,
		"mik_fleet_served_total",
		"mik_fleet_device_weight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
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
