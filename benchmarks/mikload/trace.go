package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/nn"
	"mikpoly/internal/obs"
	"mikpoly/internal/poly"
	"mikpoly/internal/sched"
	"mikpoly/internal/sim"
	"mikpoly/internal/stats"
	"mikpoly/internal/tensor"
	wl "mikpoly/internal/workload"
)

// perLayer is one block per package. Counts are /stats deltas over an
// untraced handler pass; times come from the traced replay and the isolated
// calls. README.md says which end-to-end metric each should move, where.
var perLayer = []metricDef{
	{"serve.requests", "count", "higher", 0},
	{"serve.failed", "count", "lower", 0},
	{"serve.self_us_per_request", "us", "lower", 0},
	{"serve.latency_p99_ms", "ms", "lower", 0},

	{"sched.waves_per_request", "count", "lower", 0},
	{"sched.exec_calls_per_request", "count", "lower", 0},
	{"sched.prefill_tokens_per_request", "count", "lower", 0},
	{"sched.decode_steps_per_request", "count", "lower", 0},
	{"sched.self_ms_per_request", "ms", "lower", 0},
	{"sched.slo_good_frac", "ratio", "higher", 0},
	{"sched.step_violations", "count", "lower", 0},
	{"sched.replay_goodput_tps", "1/s", "higher", 0},
	{"sched.replay_ttft_p99_ms", "ms", "lower", 0},
	{"sched.replay_step_p99_ms", "ms", "lower", 0},

	{"kvcache.prefix_hit_token_frac", "ratio", "higher", 0},
	{"kvcache.allocs_per_request", "count", "lower", 0},
	{"kvcache.evictions", "count", "lower", 0},
	{"kvcache.cow_copies", "count", "lower", 0},
	{"kvcache.failed_allocs", "count", "lower", 0},
	{"kvcache.leaked_pages", "count", "lower", 0},
	{"kvcache.op_us", "us", "lower", 0},

	{"nn.build_us_per_graph", "us", "lower", 0},
	{"nn.ops_per_graph", "count", "lower", 0},

	{"graphrt.execute_ms_per_request", "ms", "lower", 0},
	{"graphrt.self_ms_per_request", "ms", "lower", 0},
	{"graphrt.stages_per_request", "count", "lower", 0},
	{"graphrt.memo_hit_ratio", "ratio", "higher", 0},
	{"graphrt.stall_ms_per_request", "ms", "lower", 0},
	{"graphrt.hidden_frac", "ratio", "higher", 0},

	{"core.lookups_per_request", "count", "lower", 0},
	{"core.hit_ratio", "ratio", "higher", 0},
	{"core.evictions_per_request", "count", "lower", 0},
	{"core.hit_ns", "ns", "lower", 0},
	{"core.miss_us", "us", "lower", 0},

	{"poly.plans_per_request", "count", "lower", 0},
	{"poly.candidates_per_plan", "count", "lower", 0},
	{"poly.plan_us", "us", "lower", 0},
	{"poly.lower_us_per_program", "us", "lower", 0},
	{"poly.tasks_per_program", "count", "lower", 0},

	{"sim.calls_per_request", "count", "lower", 0},
	{"sim.tasks_per_call", "count", "lower", 0},
	{"sim.run_us_per_call", "us", "lower", 0},

	{"tune.generate_s", "s", "lower", 0},

	{"proc.cpu_ms_per_request", "ms", "lower", 0},
	{"proc.gc_cycles_per_request", "count", "lower", 0},
	{"proc.mallocs_per_request", "count", "lower", 0},
	{"proc.rss_peak_mb", "MiB", "lower", 0},
	{"calib.spin_ms", "ms", "lower", 0},
	{"calib.alloc_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// span is one traced interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for a request's root); spans of one request
// share Request. Times are nanoseconds since the tracer was made.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends. With one closed-loop
// client the calls into the layers nest strictly, whichever goroutine makes
// them, so the parent of a new span is the innermost open one.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	on      bool
	spans   []span
	open    []int
	request int
}

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: t.request})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].Start = int64(time.Since(t.t0))
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
}

// layerTime is one span name's totals: count, duration, and self time
// (duration minus the part its children cover).
type layerTime struct {
	n          int
	total, own float64 // ms
}

func (t *tracer) byName() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.n++
		lt.total += float64(s.End-s.Start) / 1e6
		lt.own += float64(s.End-s.Start-child[i]) / 1e6
		out[s.Name] = lt
	}
	return out
}

func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layers is the same stack the server builds, composed by the harness
// through the packages' public constructors so that it can put a span
// around every call from one layer into the next.
type layers struct {
	hw   hw.Hardware
	comp *core.Compiler
	rt   *graphrt.Runtime
	loop *sched.Loop // generate workloads only
	tr   *tracer

	// Counted at the same boundaries the spans sit on.
	simCalls, simTasks int64
	graphs, graphOps   int64
	gemmStages         int64         // stages that consult the stage memo
	planWall           time.Duration // Σ graphrt.Report.PlanWall while spans are on
	gemmStagesByGraph  map[string]int64
}

func compose(st *stack, w *workload) *layers {
	o := obs.New(obs.DefaultTraceCapacity)
	o.T().SetEnabled(true)
	l := &layers{hw: st.hw, tr: &tracer{t0: time.Now()}, gemmStagesByGraph: make(map[string]int64)}
	l.comp = core.NewCompilerFromLibrary(st.lib, core.WithCacheCapacity(core.DefaultCacheCapacity), core.WithObs(o))
	l.rt = graphrt.New(l.comp, graphrt.Config{
		PlanAhead: 2, PlanTimeout: 2 * time.Second, Obs: o,
		Health: health.NewRegistry(st.hw.NumPEs, health.Config{}),
	})
	l.rt.SetSimulator(func(h hw.Hardware, _ health.View, tasks []sim.Task, _ uint64) sim.Result {
		return l.simulate(h, tasks)
	})
	if w.sched {
		l.loop = sched.NewLoop(sched.New(sched.ExecutorFunc(func(ctx context.Context, g nn.Graph, _ string) (float64, error) {
			rep, err := l.execute(ctx, g)
			return rep.Cycles, err
		}), sched.Config{HW: st.hw}))
	}
	return l
}

func (l *layers) close() {
	if l.loop != nil {
		l.loop.Close()
	}
}

func (l *layers) simulate(h hw.Hardware, tasks []sim.Task) sim.Result {
	i := l.tr.begin("sim.run")
	res := sim.Run(h, tasks)
	l.tr.end(i)
	l.simCalls++
	l.simTasks += int64(len(tasks))
	return res
}

func (l *layers) execute(ctx context.Context, g nn.Graph) (graphrt.Report, error) {
	i := l.tr.begin("graphrt.execute")
	rep, err := l.rt.Execute(ctx, g)
	l.tr.end(i)
	l.graphs++
	l.graphOps += int64(len(g.Ops))
	if i >= 0 {
		l.planWall += rep.PlanWall
	}
	n, ok := l.gemmStagesByGraph[g.Name]
	if !ok {
		stages, _ := g.Stages()
		for _, stage := range stages {
			for _, op := range stage {
				if g.Ops[op].Kind != nn.OpOther {
					n++
					break
				}
			}
		}
		l.gemmStagesByGraph[g.Name] = n
	}
	l.gemmStages += n
	return rep, err
}

// replay runs one request through the layers the handler would call and
// returns its wall time and the device milliseconds the checker compares
// with the handler's answer (first result; worst step).
func (l *layers) replay(ctx context.Context, rq *request) (wall time.Duration, firstMs, stepMs float64, err error) {
	toMs := func(cycles float64) float64 { return cycles / l.hw.ClockHz * 1e3 }
	l.tr.request++
	switch rq.path {
	case "/plan":
		shape := tensor.GemmShape{M: rq.shape[0], N: rq.shape[1], K: rq.shape[2]}
		t0 := time.Now()
		root := l.tr.begin("request")
		i := l.tr.begin("core.plan")
		prog, degraded, perr := l.comp.PlanOrFallback(ctx, shape)
		l.tr.end(i)
		if perr != nil || degraded {
			l.tr.end(root)
			return 0, 0, 0, fmt.Errorf("plan %v: degraded=%v err=%v", shape, degraded, perr)
		}
		i = l.tr.begin("poly.lower")
		tasks := prog.Tasks(l.hw)
		l.tr.end(i)
		res := l.simulate(l.hw, tasks)
		l.tr.end(root)
		ms := toMs(res.Cycles)
		return time.Since(t0), ms, ms, nil
	case "/model":
		t0 := time.Now()
		root := l.tr.begin("request")
		i := l.tr.begin("nn.build")
		g, berr := nn.BuildModel("bert-base", nn.ModelDims{Seq: rq.seq})
		l.tr.end(i)
		if berr != nil {
			l.tr.end(root)
			return 0, 0, 0, berr
		}
		rep, xerr := l.execute(ctx, g)
		l.tr.end(root)
		ms := toMs(rep.Cycles)
		return time.Since(t0), ms, ms, xerr
	default:
		sreq := sched.Request{
			ID: uint64(l.tr.request), Tenant: "default",
			Prompt: rq.gen.trace(0).PromptTokens(), Decode: rq.gen.steps, Fanout: rq.gen.fanout,
		}
		t0 := time.Now()
		root := l.tr.begin("request")
		i := l.tr.begin("sched.submit")
		res := <-l.loop.Submit(sreq)
		l.tr.end(i)
		l.tr.end(root)
		return time.Since(t0), toMs(res.TTFTCycles), toMs(res.MaxStepCycle), res.Err
	}
}

// tracedPass replays warm-up and timed requests through the composed
// layers. Spans are on for every other request: those give the layer times,
// the rest the same stack's untraced request time, and the ratio of the two
// means is the tracing overhead.
type tracedPass struct {
	onMs, offMs  []float64 // request wall time with and without spans
	failed, sent int
	kept         []request // every 8th timed request, for the isolated calls
}

func (l *layers) run(w *workload, seed uint64, quick bool, warm, n int, want *checker) (tracedPass, error) {
	ctx := context.Background()
	next := w.gen(&rng{s: seed}, quick)
	var p tracedPass
	for i := 0; i < warm; i++ {
		rq := next()
		if _, _, _, err := l.replay(ctx, &rq); err != nil {
			return p, fmt.Errorf("traced warm-up: %w", err)
		}
	}
	// A handler pass with failed requests has gaps in its device readings;
	// it has already failed the run, so only then is there nothing to compare.
	exact := len(want.deviceMs) == n
	for k := 0; k < n; k++ {
		rq := next()
		if k%8 == 0 {
			p.kept = append(p.kept, rq)
		}
		on := k%2 == 0
		l.tr.enable(on)
		dt, first, step, err := l.replay(ctx, &rq)
		p.sent++
		// The composed layers must reproduce the handler's device clock
		// bit for bit: same programs, same waves, same reuse.
		if err != nil {
			p.failed++
			want.fail(fmt.Errorf("traced replay of %s %s: %w", rq.path, rq.body, err))
		} else if exact && (first != want.deviceMs[k] || step != want.stepMs[k]) {
			p.failed++
			want.fail(fmt.Errorf("traced replay of %s %s: device %v/%v ms, handler said %v/%v",
				rq.path, rq.body, first, step, want.deviceMs[k], want.stepMs[k]))
		}
		if on {
			p.onMs = append(p.onMs, float64(dt)/1e6)
		} else {
			p.offMs = append(p.offMs, float64(dt)/1e6)
		}
	}
	l.tr.enable(false)
	return p, nil
}

// isolated times single calls into the layers, outside any request, on the
// shapes and prompts the workload produced.
type isolated struct {
	planUs, lowerUs, tasks float64
	hitNs, missUs          float64
	kvOpUs, buildUs        float64
}

func isolate(st *stack, l *layers, kept []request) isolated {
	var out isolated
	// The shapes the /plan requests named, or else the ones the graphs of
	// the other endpoints sent to the compiler most often.
	const maxShapes = 256
	var shapes []tensor.GemmShape
	for _, rq := range kept {
		if rq.path == "/plan" && len(shapes) < maxShapes {
			shapes = append(shapes, tensor.GemmShape{M: rq.shape[0], N: rq.shape[1], K: rq.shape[2]})
		}
	}
	if len(shapes) == 0 {
		shapes = l.comp.HotShapes(maxShapes)
	}
	since := func(t0 time.Time, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(time.Since(t0)) / float64(unit) / float64(n)
	}

	// poly: the online search and the lowering, no cache in front.
	planner := poly.NewPlanner(st.lib)
	progs := make([]*poly.Program, 0, len(shapes))
	t0 := time.Now()
	for _, s := range shapes {
		if prog, _, err := planner.Plan(s); err == nil {
			progs = append(progs, prog)
		}
	}
	out.planUs = since(t0, len(progs), time.Microsecond)
	t0 = time.Now()
	for _, p := range progs {
		out.tasks += float64(len(p.Tasks(st.hw)))
	}
	out.lowerUs = since(t0, len(progs), time.Microsecond)
	if len(progs) > 0 {
		out.tasks /= float64(len(progs))
	}

	// core: a fresh cache misses on the first pass and hits on the second.
	comp := core.NewCompilerFromLibrary(st.lib, core.WithCacheCapacity(core.DefaultCacheCapacity))
	t0 = time.Now()
	for _, s := range shapes {
		_, _ = comp.Plan(s) // timing only; failures were counted above
	}
	out.missUs = since(t0, len(shapes), time.Microsecond)
	const hitPasses = 64
	t0 = time.Now()
	for pass := 0; pass < hitPasses; pass++ {
		for _, s := range shapes {
			_, _ = comp.Plan(s)
		}
	}
	out.hitNs = since(t0, hitPasses*len(shapes), time.Nanosecond)

	// nn and kvcache: the graphs and the page traffic of the kept requests.
	graphs, kvOps := 0, 0
	var buildT, kvT time.Duration
	kv := kvcache.New(kvcache.Config{})
	for _, rq := range kept {
		switch rq.path {
		case "/model":
			t0 = time.Now()
			_, _ = nn.BuildModel("bert-base", nn.ModelDims{Seq: rq.seq})
			buildT += time.Since(t0)
			graphs++
		case "/generate":
			chunk := rq.gen.promptLen
			if chunk > 256 {
				chunk = 256 // the scheduler's default prefill chunk
			}
			t0 = time.Now()
			_ = nn.Llama2Prefill(1, chunk)
			_ = nn.Llama2Decode(1, (rq.gen.promptLen+127)/128*128)
			buildT += time.Since(t0)
			graphs += 2

			prompt := rq.gen.trace(0).PromptTokens()
			t0 = time.Now()
			seq, err := kv.NewSequence("default", prompt)
			if err != nil {
				continue
			}
			kvOps++
			branches := []*kvcache.Sequence{seq}
			if rq.gen.fanout > 1 {
				branches = append(branches, kv.Fork(seq))
				kvOps++
			}
			for _, b := range branches {
				for s := 0; s < rq.gen.steps; s++ {
					if kv.Append(b, int32(s)) == nil {
						kvOps++
					}
				}
				kv.Release(b)
				kvOps++
			}
			kvT += time.Since(t0)
		}
	}
	if graphs > 0 {
		out.buildUs = float64(buildT) / 1e3 / float64(graphs)
	}
	if kvOps > 0 {
		out.kvOpUs = float64(kvT) / 1e3 / float64(kvOps)
	}
	return out
}

// openLoop replays the first n generate requests through sched.Replay on
// the virtual device clock with Poisson arrivals: the open-loop view, where
// requests queue and batch. It is bit-exact, so it needs no wall clock.
func openLoop(st *stack, w *workload, l *layers, seed uint64, quick bool, n int) (sched.Report, error) {
	next := w.gen(&rng{s: seed}, quick)
	arrivals := &rng{s: seed ^ 0xa771fa15}
	trace := make([]wl.TraceRequest, n)
	clock := 0.0
	for i := range trace {
		clock += -math.Log(1-arrivals.float()) / w.replayRate * st.hw.ClockHz
		trace[i] = next().gen.trace(clock)
	}
	s := sched.New(sched.ExecutorFunc(func(ctx context.Context, g nn.Graph, _ string) (float64, error) {
		rep, err := l.rt.Execute(ctx, g)
		return rep.Cycles, err
	}), sched.Config{HW: st.hw})
	rep, _, err := s.Replay(context.Background(), trace)
	if err == nil && (rep.Failed != 0 || rep.LeakedPages != 0) {
		err = fmt.Errorf("open-loop replay: %d failed, %d leaked pages", rep.Failed, rep.LeakedPages)
	}
	return rep, err
}

// runTraced is the traced run. It never yields end-to-end numbers: it
// spends half its requests on an untraced handler pass (counts from /stats,
// serve's own time) and half on the traced replay through composed layers.
func runTraced(w *workload, seed uint64, sz sizing, outDir string) (*result, error) {
	res := &result{values: make(map[string]float64)}
	sz.setups = 1
	half := sz.timed / 2 / sz.rounds * sz.rounds
	if half < sz.rounds {
		half = sz.rounds
	}
	warm := half / 4

	st, _, err := setUp(w, sz, seed)
	if err != nil {
		return nil, err
	}
	defer st.srv.Close()
	d := newDriver(w, st, seed, sz.quick)
	t, s0, s1, _, err := d.handlerPass(warm, half, sz.rounds)
	if err != nil {
		return nil, err
	}

	l := compose(st, w)
	defer l.close()
	p, err := l.run(w, seed, sz.quick, warm, half, d.chk)
	if err != nil {
		return nil, err
	}
	d.phase("traced", p.sent, p.failed)
	iso := isolate(st, l, p.kept)
	var open sched.Report
	if w.sched {
		if open, err = openLoop(st, w, l, seed, sz.quick, half/2); err != nil {
			d.chk.fail(err)
		}
	}
	path, err := l.tr.write(outDir)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	n := float64(t.n)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	by := l.tr.byName()
	traced := float64(len(p.onMs))
	handlerMs, layersMs := stats.Mean(t.latencyMs), stats.Mean(p.offMs)

	res.set("serve.requests", float64(s1.Requests-s0.Requests))
	res.set("serve.failed", float64(d.chk.failed))
	res.set("serve.self_us_per_request", (handlerMs-layersMs)*1e3)
	res.set("serve.latency_p99_ms", stats.Percentile(t.latencyMs, 99))

	sc0, sc1 := s0.Sched, s1.Sched
	res.set("sched.waves_per_request", float64(sc1.Waves-sc0.Waves)/n)
	execCalls := 0.0
	if w.sched {
		execCalls = float64(s1.Graph.Graphs-s0.Graph.Graphs) / n
	}
	res.set("sched.exec_calls_per_request", execCalls)
	res.set("sched.prefill_tokens_per_request", float64(sc1.PrefillTokens-sc0.PrefillTokens)/n)
	res.set("sched.decode_steps_per_request", float64(sc1.DecodeSteps-sc0.DecodeSteps)/n)
	res.set("sched.self_ms_per_request", ratio(by["sched.submit"].own, traced))
	res.set("sched.slo_good_frac", ratio(float64(sc1.SLOGood-sc0.SLOGood), float64(sc1.Completed-sc0.Completed)))
	res.set("sched.step_violations", float64(sc1.StepViolations-sc0.StepViolations))
	res.set("sched.replay_goodput_tps", open.GoodputTokensPerSec)
	res.set("sched.replay_ttft_p99_ms", open.P99TTFTMs)
	res.set("sched.replay_step_p99_ms", open.P99StepMs)

	res.set("kvcache.prefix_hit_token_frac", ratio(float64(d.chk.reusedTokens), float64(d.chk.promptTokens)))
	res.set("kvcache.allocs_per_request", float64(s1.KV.Allocs-s0.KV.Allocs)/n)
	res.set("kvcache.evictions", float64(s1.KV.Evictions-s0.KV.Evictions))
	res.set("kvcache.cow_copies", float64(s1.KV.COWCopies-s0.KV.COWCopies))
	res.set("kvcache.failed_allocs", float64(s1.KV.FailedAllocs-s0.KV.FailedAllocs))
	res.set("kvcache.leaked_pages", float64(s1.KV.ActivePages))
	res.set("kvcache.op_us", iso.kvOpUs)

	res.set("nn.build_us_per_graph", iso.buildUs)
	res.set("nn.ops_per_graph", ratio(float64(l.graphOps), float64(l.graphs)))

	exec := by["graphrt.execute"]
	planMs := float64(l.planWall) / 1e6
	self := exec.own - planMs
	if self < 0 {
		self = 0
	}
	res.set("graphrt.execute_ms_per_request", ratio(exec.total, traced))
	res.set("graphrt.self_ms_per_request", ratio(self, traced))
	res.set("graphrt.stages_per_request", float64(s1.Graph.Stages-s0.Graph.Stages)/n)
	memo := 0.0
	if l.gemmStages > 0 {
		memo = 1 - float64(l.simCalls)/float64(l.gemmStages)
	}
	res.set("graphrt.memo_hit_ratio", memo)
	res.set("graphrt.stall_ms_per_request", (s1.Graph.StallMs-s0.Graph.StallMs)/n)
	res.set("graphrt.hidden_frac", ratio(s1.Graph.HiddenMs-s0.Graph.HiddenMs, s1.Graph.PlanMs-s0.Graph.PlanMs))

	lookups := float64(s1.Cache.Hits - s0.Cache.Hits + s1.Cache.Misses - s0.Cache.Misses)
	res.set("core.lookups_per_request", lookups/n)
	res.set("core.hit_ratio", ratio(float64(s1.Cache.Hits-s0.Cache.Hits), lookups))
	res.set("core.evictions_per_request", float64(s1.Cache.Evictions-s0.Cache.Evictions)/n)
	res.set("core.hit_ns", iso.hitNs)
	res.set("core.miss_us", iso.missUs)

	plans := float64(s1.Plans - s0.Plans)
	res.set("poly.plans_per_request", plans/n)
	res.set("poly.candidates_per_plan", ratio(float64(s1.PlanCandidates-s0.PlanCandidates), plans))
	res.set("poly.plan_us", iso.planUs)
	res.set("poly.lower_us_per_program", iso.lowerUs)
	res.set("poly.tasks_per_program", iso.tasks)

	res.set("sim.calls_per_request", float64(l.simCalls)/float64(p.sent+warm))
	res.set("sim.tasks_per_call", ratio(float64(l.simTasks), float64(l.simCalls)))
	res.set("sim.run_us_per_call", ratio(by["sim.run"].total*1e3, float64(by["sim.run"].n)))

	res.set("tune.generate_s", st.tuneS)
	res.set("proc.cpu_ms_per_request", float64(t.cpu)/1e6/n)
	res.set("proc.gc_cycles_per_request", float64(t.gcCycles)/n)
	res.set("proc.mallocs_per_request", float64(t.mallocs)/n)
	_, peakMB := rusage()
	res.set("proc.rss_peak_mb", peakMB)
	res.set("calib.spin_ms", stats.Percentile(t.spinMs, 50))
	res.set("calib.alloc_ms", stats.Percentile(t.allocMs, 50))
	res.set("trace.overhead_frac", ratio(stats.Mean(p.onMs), stats.Mean(p.offMs))-1)

	res.phases, res.digest, res.err = d.phases, d.chk.digest, d.chk.first
	polyShare := ratio(plans/n*iso.planUs/1e3, handlerMs)
	res.notes = append(res.notes,
		fmt.Sprintf("handler pass %d requests, traced replay %d (spans on %d), %d spans in %s", t.n, p.sent, len(p.onMs), len(l.tr.spans), path),
		fmt.Sprintf("request time: handler %.4f ms, composed layers %.4f ms", handlerMs, layersMs),
		fmt.Sprintf("share of handler request time: poly %.3f  graphrt.self %.3f  sched+kvcache self %.3f  serve %.3f",
			polyShare, ratio(ratio(self, traced), handlerMs), ratio(ratio(by["sched.submit"].own, traced), handlerMs),
			ratio(handlerMs-layersMs, handlerMs)))
	return res, nil
}
