package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mikpoly/internal/nn"
)

func TestModelEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/model", modelRequest{Model: "distilbert", Seq: 32})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var mr modelResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Graph == "" || mr.Ops == 0 || mr.Stages == 0 {
		t.Fatalf("implausible model response: %+v", mr)
	}
	if mr.SimCycles <= 0 {
		t.Fatalf("no device time reported: %+v", mr)
	}
	if mr.Attempts != 1 || mr.FaultedTasks != 0 || mr.Degraded != 0 {
		t.Fatalf("healthy run reported retries/faults/degradation: %+v", mr)
	}
	if mr.PlanMs > mr.StallMs+mr.HiddenMs+1e-6 {
		t.Fatalf("plan accounting broken: plan=%g stall=%g hidden=%g", mr.PlanMs, mr.StallMs, mr.HiddenMs)
	}
	if mr.PeakMemBytes <= 0 || mr.WorkingSetBytes <= 0 {
		t.Fatalf("memory plan missing: %+v", mr)
	}
}

// TestModelEndpointDecodeSteps: llama2-decode with steps N decodes N tokens
// as N step graphs at KV lengths kv, kv+1, ..., at any batch. Its
// sim_cycles are, bit for bit, the sum of those step graphs' cycles.
func TestModelEndpointDecodeSteps(t *testing.T) {
	const kv, steps = 100, 4
	for _, row := range []struct {
		name  string
		batch int
	}{
		{"local batch 1", 1},
		{"local batch 2", 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{})
			t.Cleanup(srv.Close)
			resp, data := postJSON(t, ts.URL+"/model",
				modelRequest{Model: "llama2-decode", Batch: row.batch, KVLen: kv, Steps: steps})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var mr modelResponse
			if err := json.Unmarshal(data, &mr); err != nil {
				t.Fatal(err)
			}
			if mr.Tokens != steps {
				t.Fatalf("tokens %d, want %d: %s", mr.Tokens, steps, data)
			}
			var want float64
			for i := 0; i < steps; i++ {
				rep, err := srv.runtime.Load().Execute(context.Background(), nn.Llama2Decode(row.batch, kv+i))
				if err != nil {
					t.Fatal(err)
				}
				want += rep.Cycles
			}
			if mr.SimCycles != want {
				t.Fatalf("sim_cycles %v, want the sum of the step graphs %v", mr.SimCycles, want)
			}
			if st := srv.nModels.Load(); st != 1 {
				t.Fatalf("models counter %d, want 1", st)
			}
		})
	}
}

func TestModelEndpointRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{}, func(s *Server) {
		s.lim.modelSteps = 4
		s.lim.modelOps = 50
	})
	cases := []struct {
		name   string
		req    modelRequest
		status int
	}{
		{"unknown model", modelRequest{Model: "gpt-17"}, http.StatusBadRequest},
		{"negative seq", modelRequest{Model: "bert-base", Seq: -1}, http.StatusBadRequest},
		{"tiny resolution", modelRequest{Model: "resnet18", Resolution: 4}, http.StatusBadRequest},
		{"too many steps", modelRequest{Model: "llama2-decode", Steps: 5}, http.StatusRequestEntityTooLarge},
		{"too many ops", modelRequest{Model: "bert-base"}, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.URL+"/model", c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, data)
		}
	}
}

// TestReadinessGate is the late-binding acceptance scenario: a server built
// without a compiler answers 503 on /healthz and every work endpoint, then
// flips ready when SetCompiler binds the tuned library.
func TestReadinessGate(t *testing.T) {
	srv := New(nil, Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz before ready: %d, want 503", resp.StatusCode)
	}
	for _, ep := range []string{"/plan", "/execute", "/model"} {
		resp, _ := postJSON(t, ts.URL+ep, map[string]any{})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s before ready: %d, want 503", ep, resp.StatusCode)
		}
	}
	// /stats stays reachable while not ready and says so.
	sresp, sdata := get(t, ts.URL+"/stats")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats before ready: %d", sresp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(sdata, &st); err != nil {
		t.Fatal(err)
	}
	if st.Ready {
		t.Fatal("stats claims ready before SetCompiler")
	}

	srv.SetCompiler(testCompiler(t))

	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after ready: %d, want 200", resp.StatusCode)
	}
	resp, data := postJSON(t, ts.URL+"/model", modelRequest{Model: "llama2-decode", KVLen: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model after ready: %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/plan", planRequest{M: 128, N: 64, K: 128})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan after ready: %d: %s", resp.StatusCode, data)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf
}
