// Command mikload is the repository's benchmark: one closed-loop client
// drives an in-process mikserve through a fixed, seeded request sequence
// and prints every metric by name with its unit. See ../README.md.
//
//	mikload -workload plan-cold -seed 1 -seconds 20 -trace 0   # end-to-end metrics
//	mikload -workload plan-cold -seed 1 -seconds 20 -trace 1   # per-layer metrics, writes trace.jsonl
//	mikload -repeat 10                                          # noise table over seeds 1..10, two sets
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mikpoly/internal/stats"
	"mikpoly/internal/tune"
)

// metricDef declares one metric. bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of mikserve sees. BENCHMARK.json repeats this
// table; mikload_test.go holds the two together.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"device_ms_per_request", "ms", "lower", 0.03},
	{"device_ttft_p50_ms", "ms", "lower", 0.05},
	{"device_ttft_p90_ms", "ms", "lower", 0.03},
	{"device_step_mean_ms", "ms", "lower", 0.03},
	{"alloc_kb_per_request", "KiB", "lower", 0.05},
	{"mem_live_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// result is one run's outcome.
type result struct {
	values map[string]float64
	phases []phaseCount
	digest uint64
	err    error // first correctness failure
	notes  []string
}

func (r *result) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		panic("metric emitted twice: " + name)
	}
	r.values[name] = v
}

func (r *result) attempted() (sent, failed int) {
	for _, p := range r.phases {
		sent += p.sent
		failed += p.failed
	}
	return
}

// sizing turns -seconds into request counts: fixed counts, so that two runs
// of one seed do the same work and the device-clock metrics are identical.
type sizing struct {
	// The timed phase is split into equal rounds: the wall-clock
	// throughput is requests per round over the median round time, so a GC
	// pause or a host hiccup that lands in one round does not move it.
	timed, rounds, warm, setups int
	opt                         tune.Options
	quick                       bool
}

func size(w *workload, seconds float64, quick bool) sizing {
	if quick {
		// A small library, 8 small requests: every code path of the
		// harness in a fraction of a second.
		return sizing{timed: 8, rounds: 2, warm: 2, setups: 1, quick: true,
			opt: tune.Options{NGen: 4, NSyn: 6, NMik: 8, NPred: 64}}
	}
	const rounds = 16
	n := int(w.perSecond*seconds) / rounds * rounds
	if n < rounds {
		n = rounds
	}
	return sizing{timed: n, rounds: rounds, warm: n / 4, setups: 3, opt: tune.DefaultOptions()}
}

// setUp builds the stack sz.setups times, each followed by the numeric
// pre-checks, keeps the last, and returns the median set-up time.
func setUp(w *workload, sz sizing, seed uint64) (*stack, float64, error) {
	var st *stack
	var took []float64
	for i := 0; i < sz.setups; i++ {
		if st != nil {
			st.srv.Close()
		}
		t0 := time.Now()
		var err error
		if st, err = buildStack(w, sz.opt); err != nil {
			return nil, 0, err
		}
		if err := checkExecute(newClient(st.handler), &rng{s: seed ^ 0xec5ec}); err != nil {
			st.srv.Close()
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return st, stats.Percentile(took, 50), nil
}

// runEndToEnd is the untraced run: the only source of end-to-end numbers.
func runEndToEnd(w *workload, seed uint64, sz sizing) (*result, error) {
	res := &result{values: make(map[string]float64)}
	st, setupS, err := setUp(w, sz, seed)
	if err != nil {
		return nil, err
	}
	defer st.srv.Close()
	d := newDriver(w, st, seed, sz.quick)

	t, s0, s1, warmS, err := d.handlerPass(sz.warm, sz.timed, sz.rounds)
	if err != nil {
		return nil, err
	}

	n := float64(t.n)
	deviceMs := d.chk.simCycles / st.hw.ClockHz * 1e3 / n
	if w.sched {
		deviceMs = (s1.deviceCycles() - s0.deviceCycles()) / st.hw.ClockHz * 1e3 / n
	}
	res.set("throughput_rps", n/float64(sz.rounds)/stats.Percentile(t.roundWall, 50))
	res.set("latency_p50_ms", stats.Percentile(t.latencyMs, 50))
	res.set("latency_p90_ms", stats.Percentile(t.latencyMs, 90))
	res.set("device_ms_per_request", deviceMs)
	res.set("device_ttft_p50_ms", stats.Percentile(d.chk.deviceMs, 50))
	res.set("device_ttft_p90_ms", stats.Percentile(d.chk.deviceMs, 90))
	res.set("device_step_mean_ms", stats.Mean(d.chk.stepMs))
	res.set("alloc_kb_per_request", float64(t.allocBytes)/1024/n)
	res.set("mem_live_mb", t.liveBytes/n/(1<<20))
	res.set("setup_s", setupS+warmS)

	res.phases, res.digest, res.err = d.phases, d.chk.digest, d.chk.first
	res.notes = append(res.notes,
		fmt.Sprintf("timed %d requests in %d rounds, warm-up %d; set-up %.3f s (median of %d) + warm-up %.3f s",
			t.n, sz.rounds, sz.warm, setupS, sz.setups, warmS),
		fmt.Sprintf("diagnostics: calib.spin_ms %.3f  calib.alloc_ms %.3f  proc.cpu_ms_per_request %.4f  proc.gc_cycles_per_request %.4f  tune.generate_s %.3f",
			stats.Percentile(t.spinMs, 50), stats.Percentile(t.allocMs, 50), float64(t.cpu)/1e6/n, float64(t.gcCycles)/n, st.tuneS),
		fmt.Sprintf("round wall s: %.3f", t.roundWall),
		fmt.Sprintf("round calib.alloc_ms: %.2f", t.allocMs))
	return res, nil
}

// finish runs the end-of-run checks: the scheduler drained, and decode
// output is the same with and without KV sharing.
func (d *driver) finish(last statsView) {
	if !d.w.sched {
		return
	}
	if err := checkDrained(last); err != nil {
		d.chk.fail(err)
	}
	if err := checkSharing(d.st.hw, d.chk.sampled); err != nil {
		d.chk.fail(err)
	}
}

// report prints the human-readable table and, as the last line, the JSON
// object the driver reads.
func report(out io.Writer, w *workload, seed uint64, defs []metricDef, res *result) error {
	fmt.Fprintf(out, "workload %s  seed %d\n", w.name, seed)
	for _, p := range res.phases {
		fmt.Fprintf(out, "phase %-8s sent %6d  succeeded %6d  failed %d\n", p.name, p.sent, p.sent-p.failed, p.failed)
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(out, "%-34s %16.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = jm{v, d.unit}
	}
	if len(res.values) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(res.values), len(defs))
	}
	fmt.Fprintf(out, "run_digest %016x\n", res.digest)
	if res.err != nil {
		fmt.Fprintf(out, "FAILED: %v\n", res.err)
	}
	sent, failed := res.attempted()
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.err == nil && failed == 0, sent, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: plan-cold, model-dynamic, generate-shared, generate-unique")
		seed    = flag.Uint64("seed", 1, "seed of the harness's request generator")
		seconds = flag.Float64("seconds", 20, "nominal length of the timed phase; scales the fixed request count")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace.jsonl instead of end-to-end metrics")
		quick   = flag.Bool("quick", false, "tiny counts and a tiny kernel library: a smoke test, not a measurement")
		repeat  = flag.Int("repeat", 0, "run every workload (or -workload) N times in fresh processes, twice, and print the noise table")
		outDir  = flag.String("out", ".bench_build", "directory for trace.jsonl")
	)
	flag.Parse()
	if *repeat > 0 {
		os.Exit(runRepeat(os.Stdout, *name, *seed, *seconds, *repeat))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "mikload: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	sz := size(w, *seconds, *quick)
	var (
		res  *result
		defs = endToEnd
		err  error
	)
	if *trace != 0 {
		defs = perLayer
		res, err = runTraced(w, *seed, sz, *outDir)
	} else {
		res, err = runEndToEnd(w, *seed, sz)
	}
	if err == nil {
		err = report(os.Stdout, w, *seed, defs, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mikload: %v\n", err)
		os.Exit(1)
	}
	if res.err != nil {
		os.Exit(1)
	}
}
