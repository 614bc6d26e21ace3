// A dynamic-shape compilation service: the deployment shape of MikPoly in a
// serving stack. Worker processes POST the GEMM shapes they encounter at
// runtime; the hardened serving layer (internal/serve) polymerizes a program
// for each — caching per shape, degrading gracefully under planner deadlines,
// and healing a faulted stage through the graph runtime's recovery ladder
// when fault injection reports a bad run.
//
//	go run ./examples/server            # serves on 127.0.0.1:8097
//	curl -s localhost:8097/plan -d '{"m":4096,"n":1024,"k":4096}'
//
// The example also exercises itself: it starts the server, issues plan and
// execute requests (including one against a fault-injected device), prints
// the responses and server stats, and shuts down cleanly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/serve"
	"mikpoly/internal/sim"
	"mikpoly/internal/tune"
)

// planRequest is the wire format of a compilation request.
type planRequest struct {
	M int `json:"m"`
	N int `json:"n"`
	K int `json:"k"`
}

// planResponse mirrors the fields of serve's /plan answer we print.
type planResponse struct {
	Shape      string `json:"shape"`
	Pattern    string `json:"pattern"`
	Regions    []json.RawMessage
	Degraded   bool    `json:"degraded"`
	SimTFLOPS  float64 `json:"sim_tflops"`
	Efficiency float64 `json:"pe_efficiency"`
}

// execResponse mirrors the fields of serve's /execute answer we print.
type execResponse struct {
	Shape           string  `json:"shape"`
	Degraded        bool    `json:"degraded"`
	FaultedTasks    int     `json:"faulted_tasks"`
	RecoveredStages int     `json:"recovered_stages"`
	RecoveredFaults int     `json:"recovered_faults"`
	Checksum        float64 `json:"checksum"`
}

func post(client *http.Client, url string, req any, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(r.Body).Decode(&e)
		return fmt.Errorf("%s: %s", r.Status, e.Error)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// startServer builds a hardened server for the compiler and serves it on a
// loopback listener until shutdown.
func startServer(compiler *core.Compiler, cfg serve.Config) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{
		Handler: serve.New(compiler, cfg).Handler(),
		// The serve layer already bounds bodies (http.MaxBytesReader) and
		// per-request work; these bound the connection itself.
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 20 * time.Second,
		IdleTimeout:  time.Minute,
	}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	return hs, ln, nil
}

func main() {
	fmt.Println("== MikPoly compilation service ==")
	compiler, err := core.NewCompiler(hw.A100(), tune.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// A mildly hostile device: 5% of simulated tasks report transient
	// faults, so the recovery ladder re-runs some /execute stages.
	hs, ln, err := startServer(compiler, serve.Config{
		MaxInFlight: 8,
		Faults:      &sim.Faults{Seed: 11, TaskFaultRate: 0.05},
	})
	if err != nil {
		log.Fatal(err)
	}
	base := fmt.Sprintf("http://%s", ln.Addr())
	fmt.Printf("serving on %s/plan\n\n", base)

	client := &http.Client{Timeout: 10 * time.Second}
	for _, req := range []planRequest{
		{M: 4096, N: 1024, K: 4096},
		{M: 105, N: 1024, K: 12544},
		{M: 37, N: 768, K: 768},
	} {
		var pr planResponse
		if err := post(client, base+"/plan", req, &pr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s -> pattern %s, %d region(s), %.1f TFLOPS, %.0f%% PE efficiency\n",
			pr.Shape, pr.Pattern, len(pr.Regions), pr.SimTFLOPS, 100*pr.Efficiency)
	}

	fmt.Println("\nexecuting on the fault-injected device:")
	var er execResponse
	if err := post(client, base+"/execute", planRequest{M: 96, N: 80, K: 64}, &er); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s -> %d stage(s) healed, %d faulted task(s) absorbed, %d surfaced, checksum %.1f\n",
		er.Shape, er.RecoveredStages, er.RecoveredFaults, er.FaultedTasks, er.Checksum)

	// Malformed and oversized requests are rejected, not crashed on.
	for _, bad := range []planRequest{{M: -3, N: 8, K: 8}, {M: 1 << 30, N: 1 << 30, K: 1 << 30}} {
		var pr planResponse
		err := post(client, base+"/plan", bad, &pr)
		fmt.Printf("rejected %v: %v\n", bad, err)
	}

	var stats struct {
		Requests int64 `json:"requests"`
		Degraded int64 `json:"degraded"`
		Cache    struct {
			Size int `json:"size"`
			Hits int `json:"hits"`
		} `json:"cache"`
		Graph struct {
			RetriedStages   int64 `json:"retried_stages"`
			MigratedStages  int64 `json:"migrated_stages"`
			ReplannedStages int64 `json:"replanned_stages"`
		} `json:"graph"`
	}
	r, err := client.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	r.Body.Close()
	fmt.Printf("\nstats: %d requests, %d degraded, %d cached program(s); stages healed by retry %d, migration %d, replan %d\n",
		stats.Requests, stats.Degraded, stats.Cache.Size,
		stats.Graph.RetriedStages, stats.Graph.MigratedStages, stats.Graph.ReplannedStages)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver drained and stopped")
}
