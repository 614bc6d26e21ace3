package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
	"mikpoly/internal/serve"
	"mikpoly/internal/tune"
)

// liveHeap names the runtime's own figure for the heap the last collection
// found reachable.
const liveHeap = "/gc/heap/live:bytes"

// stack is the server under test, built in-process exactly as cmd/mikserve
// builds it with default flags: obs attached with tracing on, plan-ahead 2,
// decode-batch on, default cache capacity, and -sched for /generate.
type stack struct {
	hw      hw.Hardware
	lib     *tune.Library
	srv     *serve.Server
	handler http.Handler
	tuneS   float64 // wall time of tune.Generate
}

func buildStack(w *workload, opt tune.Options) (*stack, error) {
	o := obs.New(obs.DefaultTraceCapacity)
	o.T().SetEnabled(true)
	srv := serve.New(nil, serve.Config{DecodeBatch: true, PlanAhead: 2, SchedDecode: w.sched, Obs: o})
	h := w.hw()
	t0 := time.Now()
	lib, err := tune.Generate(h, opt)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("tune.Generate(%s): %w", h.Name, err)
	}
	tuneS := time.Since(t0).Seconds()
	srv.SetCompiler(core.NewCompilerFromLibrary(lib,
		core.WithCacheCapacity(core.DefaultCacheCapacity), core.WithObs(o)))
	return &stack{hw: h, lib: lib, srv: srv, handler: srv.Handler(), tuneS: tuneS}, nil
}

// recorder is a reusable http.ResponseWriter: the client allocates nothing
// per request beyond the *http.Request itself.
type recorder struct {
	hdr  http.Header
	code int
	buf  *bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }

// client is the single closed-loop client: it calls the handler and waits
// for the answer before sending the next request, as a caller of a
// compilation service waits for the program before launching the operator.
type client struct {
	handler http.Handler
	rec     recorder
	body    bytes.Reader
}

func newClient(h http.Handler) *client {
	return &client{handler: h, rec: recorder{hdr: make(http.Header)}}
}

// do sends one request, leaves the response body in out, and returns the
// status and the handler's wall time.
func (c *client) do(method, path string, body []byte, out *bytes.Buffer) (int, time.Duration) {
	c.body.Reset(body)
	req, err := http.NewRequest(method, path, &c.body)
	if err != nil {
		panic(err) // only a malformed literal path can get here
	}
	out.Reset()
	c.rec.code, c.rec.buf = http.StatusOK, out
	for k := range c.rec.hdr {
		delete(c.rec.hdr, k)
	}
	t0 := time.Now()
	c.handler.ServeHTTP(&c.rec, req)
	return c.rec.code, time.Since(t0)
}

// statsView is the part of GET /stats the harness reads.
type statsView struct {
	Requests       int64 `json:"requests"`
	Plans          int64 `json:"plans"`
	PlanCandidates int64 `json:"plan_candidates"`
	Cache          struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Graph struct {
		Graphs   int64   `json:"graphs"`
		Stages   int64   `json:"stages"`
		PlanMs   float64 `json:"plan_ms"`
		StallMs  float64 `json:"stall_ms"`
		HiddenMs float64 `json:"hidden_ms"`
	} `json:"graph"`
	Sched struct {
		Completed      int64   `json:"completed"`
		SLOGood        int64   `json:"slo_good"`
		Waves          int64   `json:"waves"`
		PrefillChunks  int64   `json:"prefill_chunks"`
		PrefillTokens  int64   `json:"prefill_tokens"`
		DecodeSteps    int64   `json:"decode_steps"`
		PrefillCycles  float64 `json:"prefill_cycles"`
		DecodeCycles   float64 `json:"decode_cycles"`
		CopyCycles     float64 `json:"copy_cycles"`
		StepViolations int64   `json:"step_violations"`
	} `json:"sched"`
	KV struct {
		ActivePages     int   `json:"active_pages"`
		Sequences       int   `json:"sequences"`
		PrefixHitTokens int64 `json:"prefix_hit_tokens"`
		COWCopies       int64 `json:"cow_copies"`
		Evictions       int64 `json:"evictions"`
		Allocs          int64 `json:"allocs"`
		FailedAllocs    int64 `json:"failed_allocs"`
	} `json:"kv"`
}

func (c *client) stats() (statsView, error) {
	var out bytes.Buffer
	var v statsView
	if code, _ := c.do("GET", "/stats", nil, &out); code != http.StatusOK {
		return v, fmt.Errorf("GET /stats: status %d", code)
	}
	err := json.Unmarshal(out.Bytes(), &v)
	return v, err
}

func (v statsView) deviceCycles() float64 {
	return v.Sched.PrefillCycles + v.Sched.DecodeCycles + v.Sched.CopyCycles
}

// phaseCount reports what one phase sent and how it went.
type phaseCount struct {
	name         string
	sent, failed int
}

// timed is everything the closed loop measured over the timed phase.
type timed struct {
	n          int
	roundWall  []float64 // seconds, one per round
	latencyMs  []float64 // handler wall time, one per request
	liveBytes  float64   // Σ over requests of the live heap as of the last GC
	allocBytes uint64    // Σ TotalAlloc deltas inside rounds
	mallocs    uint64
	gcCycles   uint32
	cpu        time.Duration // user+system over the rounds
	spinMs     []float64     // calibration between rounds
	allocMs    []float64
}

// driver owns one (workload, seed) run against one stack.
type driver struct {
	w      *workload
	st     *stack
	cl     *client
	next   func() request
	chk    *checker
	phases []phaseCount

	reqs []request      // reused per round
	outs []bytes.Buffer // reused per round
	live [1]metrics.Sample
}

func newDriver(w *workload, st *stack, seed uint64, quick bool) *driver {
	d := &driver{w: w, st: st, cl: newClient(st.handler), next: w.gen(&rng{s: seed}, quick),
		chk: newChecker(st.hw.ClockHz)}
	d.live[0].Name = liveHeap
	return d
}

// send generates n requests, runs them back to back through the handler,
// and only then checks the responses, so that neither generation nor
// checking sits inside the measured window. lat, when non-nil, receives
// the per-request handler wall time in milliseconds, and the live heap is
// sampled after every request.
func (d *driver) send(n int, keep bool, lat []float64) (wall time.Duration, liveBytes float64, failed int) {
	if cap(d.reqs) < n {
		d.reqs, d.outs = make([]request, n), make([]bytes.Buffer, n)
	}
	reqs, outs := d.reqs[:n], d.outs[:n]
	codes := make([]int, n)
	for i := range reqs {
		reqs[i] = d.next()
	}
	t0 := time.Now()
	for i := range reqs {
		var dt time.Duration
		codes[i], dt = d.cl.do("POST", reqs[i].path, reqs[i].body, &outs[i])
		if lat != nil {
			lat[i] = float64(dt) / 1e6
			metrics.Read(d.live[:])
			liveBytes += float64(d.live[0].Value.Uint64())
		}
	}
	wall = time.Since(t0)
	for i := range reqs {
		if err := d.chk.check(&reqs[i], codes[i], outs[i].Bytes(), keep); err != nil {
			failed++
			d.chk.fail(err)
		}
	}
	return wall, liveBytes, failed
}

func (d *driver) phase(name string, sent, failed int) {
	d.phases = append(d.phases, phaseCount{name, sent, failed})
}

// warmup sends n untimed requests from the same generator the timed phase
// continues.
func (d *driver) warmup(n int) {
	_, _, failed := d.send(n, false, nil)
	d.phase("warm-up", n, failed)
}

// measure runs the timed phase: n requests in equal rounds, with the two
// calibration loops and the response checks between rounds.
func (d *driver) measure(n, rounds int) timed {
	per := n / rounds
	t := timed{n: per * rounds, latencyMs: make([]float64, per*rounds)}
	var m0, m1 runtime.MemStats
	failed := 0
	for r := 0; r < rounds; r++ {
		t.spinMs = append(t.spinMs, calibSpin())
		t.allocMs = append(t.allocMs, calibAlloc())
		cpu0, _ := rusage()
		runtime.ReadMemStats(&m0)
		wall, live, f := d.send(per, true, t.latencyMs[r*per:(r+1)*per])
		t.liveBytes += live
		runtime.ReadMemStats(&m1)
		cpu1, _ := rusage()
		t.cpu += cpu1 - cpu0
		t.roundWall = append(t.roundWall, wall.Seconds())
		t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		t.mallocs += m1.Mallocs - m0.Mallocs
		t.gcCycles += m1.NumGC - m0.NumGC
		failed += f
	}
	d.phase("timed", t.n, failed)
	return t
}

// handlerPass is what both kinds of run do against the server: warm up,
// then the timed phase between two /stats snapshots, then the end-of-run
// checks.
func (d *driver) handlerPass(warm, n, rounds int) (t timed, s0, s1 statsView, warmS float64, err error) {
	t0 := time.Now()
	d.warmup(warm)
	warmS = time.Since(t0).Seconds()
	if s0, err = d.cl.stats(); err != nil {
		return
	}
	t = d.measure(n, rounds)
	if s1, err = d.cl.stats(); err != nil {
		return
	}
	d.finish(s1)
	return
}

// rusage returns the process's user+system CPU time and its peak RSS.
func rusage() (cpu time.Duration, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var calibSink uint64

// calibSpin is a fixed ALU loop and calibAlloc a fixed allocate-and-fill
// loop. Their medians are reported, never divided by: they tell a slow host
// (both commits' runs slow down together, the spin or the fill with them)
// from a slow commit.
func calibSpin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(t0)) / 1e6
}

func calibAlloc() float64 {
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		b := make([]uint64, 32<<10)
		for j := range b {
			b[j] = uint64(j)
		}
		calibSink += b[len(b)-1]
	}
	return float64(time.Since(t0)) / 1e6
}
