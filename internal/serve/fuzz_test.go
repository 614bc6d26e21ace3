package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// fuzzServer builds one small shared server for all fuzz iterations; tight
// size, op and step limits keep even "accepted" inputs cheap.
func fuzzServer(tb testing.TB) http.Handler {
	tb.Helper()
	lib, err := core.SharedLibrary(hw.A100(), tune.Options{NGen: 4, NSyn: 6, NMik: 6, NPred: 128})
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(core.NewCompilerFromLibrary(lib), Config{})
	srv.lim = limits{
		bodyBytes:  1 << 10,
		dim:        256,
		planElems:  1 << 21,
		execElems:  1 << 16,
		simTasks:   1 << 12,
		modelOps:   256,
		modelSteps: 2,
	}
	return srv.Handler()
}

// FuzzPlanRequest feeds arbitrary bodies to /plan and /execute. The contract
// under fuzzing: the handler never panics (recoverMW would turn that into a
// 500, which the fuzz body rejects for shape-level failures), never accepts
// an invalid shape, and classifies every failure as a 4xx.
func FuzzPlanRequest(f *testing.F) {
	h := fuzzServer(f)

	f.Add(`{"m":64,"n":64,"k":64}`)
	f.Add(`{"m":-1,"n":0,"k":9223372036854775807}`)
	f.Add(`{"m":1073741824,"n":1073741824,"k":1073741824}`)
	f.Add(`{"m":4,`)
	f.Add(`[1,2,3]`)
	f.Add(`{"m":"x","n":true,"k":null}`)
	f.Add(`{"m":1e308,"n":2,"k":2}`)
	f.Add("")
	f.Add(strings.Repeat(`{"m":1},`, 64))

	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/plan", "/execute"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req) // must not panic

			switch {
			case rec.Code == http.StatusOK:
				// Accepted inputs must have been a valid, in-limit shape.
			case rec.Code >= 400 && rec.Code < 500:
				// Rejected cleanly.
			default:
				t.Fatalf("%s %q: unexpected status %d: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}

// FuzzModelRequest feeds arbitrary bodies to /model: unknown models, negative
// or oversized dimensions, step counts outside the limit, malformed JSON.
// Every answer is a 200 or a clean 4xx — never a panic or a 5xx.
func FuzzModelRequest(f *testing.F) {
	h := fuzzServer(f)

	f.Add(`{"model":"llama2-decode","kv_len":100,"steps":2}`)
	f.Add(`{"model":"llama2-decode","batch":2,"kv_len":1}`)
	f.Add(`{"model":"llama2-decode","steps":3}`)
	f.Add(`{"model":"distilbert","seq":16}`)
	f.Add(`{"model":"bert-base"}`)
	f.Add(`{"model":"resnet18","resolution":4}`)
	f.Add(`{"model":"gpt-17"}`)
	f.Add(`{"model":"llama2-decode","kv_len":-1,"steps":-1}`)
	f.Add(`{"model":"llama2-prefill","seq":9223372036854775807}`)
	f.Add(`{"model":1,"seq":"x"}`)
	f.Add("")

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/model", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("/model %q: unexpected status %d: %s", body, rec.Code, rec.Body)
		}
	})
}

// FuzzGenerateRequest feeds arbitrary /generate bodies and X-Tenant headers to
// a small scheduler-backed server with a tenant allowlist and tight prompt,
// step and token-budget limits. Every answer is a 200, a clean 4xx, or a 503
// that tells the client when to come back — never a panic or another 5xx.
func FuzzGenerateRequest(f *testing.F) {
	lib, err := core.SharedLibrary(hw.A100(), tune.Options{NGen: 4, NSyn: 6, NMik: 6, NPred: 128})
	if err != nil {
		f.Fatal(err)
	}
	srv := New(core.NewCompilerFromLibrary(lib), Config{
		SchedDecode:         true,
		SchedInFlightTokens: 512,
		Tenants:             []string{"acme", "globex"},
	})
	srv.lim.bodyBytes = 1 << 10
	srv.lim.dim = 256
	srv.lim.modelSteps = 2
	f.Cleanup(srv.Close)
	h := srv.Handler()

	f.Add(`{"prompt_len":96,"group":1,"prefix_len":64,"steps":4}`, "acme")
	f.Add(`{"prompt_len":96,"group":1,"prefix_len":64,"steps":2}`, "acme")
	f.Add(`{"prompt_len":0}`, "acme")
	f.Add(`{"prompt_len":32,"steps":1}`, "intruder")
	f.Add(`{"prompt_len":32,"steps":1}`, "")
	f.Add(`{"prompt_len":32,"steps":1}`, "globex")
	f.Add(`{"prompt_len":128,"steps":4}`, "acme")
	f.Add(`{"prompt_len":32,"steps":2}`, "acme")
	f.Add(`{"prompt_len":64,"fanout":8,"steps":2}`, "globex")
	f.Add(`{"prompt_len":16,"deadline_ms":-1}`, "acme")
	f.Add(`{"prompt_len":16,"prefix_len":17}`, "acme")
	f.Add(`{"prompt_len":"x","steps":null}`, "acme")
	f.Add("", "acme")

	f.Fuzz(func(t *testing.T, body, tenant string) {
		req := httptest.NewRequest(http.MethodPost, "/generate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		switch {
		case rec.Code == http.StatusOK, rec.Code >= 400 && rec.Code < 500:
		case rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") != "":
		default:
			t.Fatalf("/generate %q (tenant %q): unexpected status %d: %s", body, tenant, rec.Code, rec.Body)
		}
	})
}

// FuzzGemmShape attacks the shape validator and the fallback program builder
// directly with arbitrary dimension triples: Valid() must agree with what the
// planner/fallback accept, and nothing may panic.
func FuzzGemmShape(f *testing.F) {
	lib, err := core.SharedLibrary(hw.A100(), tune.Options{NGen: 4, NSyn: 6, NMik: 6, NPred: 128})
	if err != nil {
		f.Fatal(err)
	}
	c := core.NewCompilerFromLibrary(lib)

	f.Add(64, 64, 64)
	f.Add(0, 1, 1)
	f.Add(-1, -1, -1)
	f.Add(1<<30, 1, 1)
	f.Add(1, 1<<30, 1<<30)
	f.Add(7, 13, 3)

	f.Fuzz(func(t *testing.T, m, n, k int) {
		shape := tensor.GemmShape{M: m, N: n, K: k}
		// Bound the accepted volume so fuzzing stays fast; validity itself is
		// checked for every input.
		huge := !shape.Valid() ||
			m > 1<<12 || n > 1<<12 || k > 1<<12
		if huge {
			if shape.Valid() {
				return
			}
			if _, _, err := c.PlanOrFallback(context.Background(), shape); err == nil {
				t.Fatalf("invalid shape %v accepted by PlanOrFallback", shape)
			}
			return
		}
		prog, _, err := c.PlanOrFallback(context.Background(), shape)
		if err != nil {
			t.Fatalf("valid shape %v rejected: %v", shape, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("shape %v: illegal program: %v", shape, err)
		}
	})
}
