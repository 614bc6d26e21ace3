package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// quickRun runs one workload in -quick size and returns what it printed
// last, parsed, plus the run_digest line.
func quickRun(t *testing.T, w *workload, traced bool) (reported, string) {
	t.Helper()
	sz := size(w, 0, true)
	var (
		res  *result
		defs = endToEnd
		err  error
	)
	if traced {
		defs = perLayer
		res, err = runTraced(w, 1, sz, t.TempDir())
	} else {
		res, err = runEndToEnd(w, 1, sz)
	}
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var out bytes.Buffer
	if err := report(&out, w, 1, defs, res); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep reported
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", w.name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.name, rep.Correct, rep.Attempted, rep.Failed, res.err)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d declared", w.name, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", w.name, d.name)
		case m.Unit == "" || m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", w.name, d.name, m.Unit, d.unit)
		case strings.Count(out.String(), "\n"+d.name+" ") != 1:
			t.Errorf("%s: metric %s is not printed exactly once in the table", w.name, d.name)
		}
	}
	return rep, fmt.Sprintf("%016x", res.digest)
}

// TestQuick passes all four workloads through both kinds of run.
func TestQuick(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		rep, first := quickRun(t, w, false)
		for name, m := range rep.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v; the contract wants it never 0", w.name, name, m.Value)
			}
		}
		if _, again := quickRun(t, w, false); again != first {
			t.Errorf("%s: run_digest %s, then %s on the same seed", w.name, first, again)
		}
		quickRun(t, w, true)
	}
}

// TestNames holds the metric tables to the contract's naming rules and to
// BENCHMARK.json.
func TestNames(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	compare := func(kind string, defs []metricDef, listed []benchmarkMetric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in mikload, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if !metricName.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, d.name)
			}
			seen[d.name] = true
			if want := (benchmarkMetric{d.name, d.unit, d.better, d.bound}); listed[i] != want {
				t.Errorf("%s: BENCHMARK.json has %+v, mikload %+v", kind, listed[i], want)
			}
		}
	}
	compare("end_to_end", endToEnd, file.EndToEnd)
	compare("per_layer", perLayer, file.PerLayer)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in mikload", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || !metricName.MatchString(w.name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in mikload", i, file.Workloads[i].Name, w.name)
		}
	}
}

// TestCorruptedResponse feeds the checker answers that are wrong in one
// field each; every one must be caught.
func TestCorruptedResponse(t *testing.T) {
	w := findWorkload("plan-cold")
	st, _, err := setUp(w, size(w, 0, true), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.Close()
	cl, chk := newClient(st.handler), newChecker(st.hw.ClockHz)

	rq := w.gen(&rng{s: 1}, true)()
	var out bytes.Buffer
	code, _ := cl.do("POST", rq.path, rq.body, &out)
	good := append([]byte(nil), out.Bytes()...)
	if err := chk.check(&rq, code, good, true); err != nil {
		t.Fatalf("honest /plan answer rejected: %v", err)
	}
	rows := regexp.MustCompile(`"rows":(\d+)`)
	for name, bad := range map[string][]byte{
		"region one row short": rows.ReplaceAll(good, []byte(`"rows":${1}1`)),
		"degraded":             bytes.Replace(good, []byte(`"degraded":false`), []byte(`"degraded":true`), 1),
		"no simulation":        bytes.Replace(good, []byte(`"sim_cycles":`), []byte(`"sim_cycles":-`), 1),
		"truncated":            good[:len(good)/2],
	} {
		if bytes.Equal(bad, good) {
			t.Fatalf("%s: the corruption did not change the answer", name)
		}
		if chk.check(&rq, code, bad, true) == nil {
			t.Errorf("%s: corrupted /plan answer accepted", name)
		}
	}
	if chk.check(&rq, 500, good, true) == nil {
		t.Error("status 500 accepted")
	}

	body := `{"m":7,"n":5,"k":9,"seed_a":3,"seed_b":4}`
	if code, _ := cl.do("POST", "/execute", []byte(body), &out); code != 200 {
		t.Fatalf("/execute: status %d", code)
	}
	good = append([]byte(nil), out.Bytes()...)
	if err := verifyExecute(good, 7, 5, 9, 3, 4); err != nil {
		t.Fatalf("honest /execute answer rejected: %v", err)
	}
	sum := regexp.MustCompile(`"checksum":(-?)`)
	if verifyExecute(sum.ReplaceAll(good, []byte(`"checksum":${1}1`)), 7, 5, 9, 3, 4) == nil {
		t.Error("corrupted /execute checksum accepted")
	}
	if verifyExecute(good, 7, 5, 9, 3, 5) == nil {
		t.Error("/execute answer accepted against the wrong operands")
	}

	// A decode digest that differs from the no-sharing reference.
	gw := findWorkload("generate-shared")
	p := gw.gen(&rng{s: 1}, true)().gen
	if checkSharing(st.hw, []sampledGen{{p, "0000000000000000"}}) == nil {
		t.Error("wrong /generate digest accepted")
	}
}
