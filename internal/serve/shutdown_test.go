package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/fleet"
	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
	"mikpoly/internal/tune"
)

// TestShutdownLeaksNoGoroutines is the graceful-drain regression test: a
// server running every background subsystem (plan-ahead workers, fleet
// device workers + prober) must return to the baseline goroutine count after
// Close. A leaked worker here is what turns SIGTERM
// into a hung pod in production.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	opts := tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256}
	// Warm the class-shared libraries so lazy tuning doesn't muddy the
	// baseline measurement below.
	for _, h := range []hw.Hardware{hw.A100(), hw.Ascend910()} {
		if _, err := core.SharedLibrary(h, opts); err != nil {
			t.Fatal(err)
		}
	}
	// Give goroutines from earlier tests in the package a moment to wind
	// down, then take the baseline.
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()

	devices := make([]*fleet.Device, 0, 2)
	for i, h := range []hw.Hardware{hw.A100(), hw.Ascend910()} {
		lib, err := core.SharedLibrary(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		name := []string{"gpu-0", "npu-0"}[i]
		devices = append(devices, fleet.NewDevice(lib, fleet.DeviceConfig{Name: name}))
	}
	f := fleet.NewDispatcher(devices, fleet.Config{
		ProbeInterval: 10 * time.Millisecond, // background prober must stop too
	})
	f.Start()

	srv := New(testCompiler(t), Config{PlanAhead: 2})
	srv.SetFleet(f)
	ts := httptest.NewServer(srv.Handler())

	// Exercise every background path: fleet-routed gemm and model, and a
	// single-device model to spin up plan-ahead workers.
	for i := 0; i < 3; i++ {
		if resp, data := postJSON(t, ts.URL+"/gemm", execRequest{M: 96, N: 96, K: 64}); resp.StatusCode != http.StatusOK {
			t.Fatalf("gemm status %d: %s", resp.StatusCode, data)
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
// ListenAndServe returns and again via defer; both must be safe, fleet
// bound or not.
func TestServerCloseIsIdempotent(t *testing.T) {
	srv, _, _ := newFleetServer(t, Config{}, []sim.DeviceFaults{})
	srv.Close()
	srv.Close() // t.Cleanup from the helper adds a third call
}
