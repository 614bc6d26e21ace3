package bench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// gateFixture is a clean two-suite report the comparer tests mutate.
func gateFixture() *Report {
	return &Report{
		Schema: ReportSchema,
		Cases: []Case{
			{
				Suite: "planner", Name: "a100-bert",
				Exact:  map[string]string{"program": "II[128x768|k0 + 0x0|k0]", "cycle_cost_bits": "40c3880000000000"},
				NoGrow: map[string]int64{"allocs_per_op": 2, "bytes_per_op": 320},
				Info:   map[string]float64{"ns_per_op": 2512},
			},
			{
				Suite: "serve", Name: "a100-shared-prefix",
				Exact: map[string]string{"digest_bits": "f1ea0dee9f1ddd11", "leaked_pages": "0"},
				Info:  map[string]float64{"wall_sec": 3.5},
			},
		},
		SelfChecks: []string{},
	}
}

// cloneReport deep-copies through JSON — which also proves the schema
// round-trips losslessly.
func cloneReport(t *testing.T, r *Report) *Report {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &out) {
		t.Fatalf("report did not round-trip through JSON:\n%+v\n%+v", r, &out)
	}
	return &out
}

// TestCompareRules feeds Compare a clean pair and one mutation per rule and
// expects exactly that regression, naming the case and field.
func TestCompareRules(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(base, cur *Report)
		want   []string // substrings of the one expected regression; nil = pass
	}{
		{"clean", func(_, _ *Report) {}, nil},
		{"info never gated", func(_, cur *Report) {
			cur.Cases[0].Info["ns_per_op"] *= 100
			delete(cur.Cases[1].Info, "wall_sec")
		}, nil},
		{"no_grow may shrink", func(_, cur *Report) { cur.Cases[0].NoGrow["bytes_per_op"] -= 32 }, nil},
		{"suite not run is not judged", func(_, cur *Report) { cur.Cases = cur.Cases[:1] }, nil},
		{"flipped exact bit", func(_, cur *Report) { cur.Cases[0].Exact["cycle_cost_bits"] = "40c3880000000001" },
			[]string{"planner/a100-bert", "exact cycle_cost_bits", "40c3880000000001", "40c3880000000000"}},
		{"changed program string", func(_, cur *Report) { cur.Cases[0].Exact["program"] = "I[128x768|k1]" },
			[]string{"planner/a100-bert", "exact program"}},
		{"exact field dropped", func(_, cur *Report) { delete(cur.Cases[1].Exact, "leaked_pages") },
			[]string{"serve/a100-shared-prefix", "exact leaked_pages"}},
		{"no_grow field dropped", func(_, cur *Report) { delete(cur.Cases[0].NoGrow, "bytes_per_op") },
			[]string{"planner/a100-bert", "no_grow bytes_per_op", "one side only"}},
		{"no_grow +1 alloc", func(_, cur *Report) { cur.Cases[0].NoGrow["allocs_per_op"]++ },
			[]string{"planner/a100-bert", "no_grow allocs_per_op = 3 > baseline 2"}},
		{"no_grow +1 byte", func(_, cur *Report) { cur.Cases[0].NoGrow["bytes_per_op"]++ },
			[]string{"planner/a100-bert", "no_grow bytes_per_op = 321 > baseline 320"}},
		{"missing case", func(base, _ *Report) {
			base.Cases = append(base.Cases, Case{Suite: "serve", Name: "a100-long-prompts"})
		}, []string{"serve/a100-long-prompts", "missing from current run"}},
		{"deleted suite leaves stale rows", func(base, _ *Report) {
			base.Cases = append(base.Cases, Case{Suite: "fusion", Name: "mlp-relu-14k"})
		}, []string{"fusion/mlp-relu-14k", "suite no longer exists"}},
		{"extra case", func(_, cur *Report) {
			cur.Cases = append(cur.Cases, Case{Suite: "serve", Name: "new-case"})
		}, []string{"serve/new-case", "absent from baseline"}},
		{"non-empty self-check", func(_, cur *Report) {
			cur.SelfChecks = []string{"serve: a100-shared-prefix: 1 leaked KV pages"}
		}, []string{"self-check failed", "1 leaked KV pages"}},
		{"schema mismatch", func(_, cur *Report) { cur.Schema = "mikpoly-bench/v0" },
			[]string{"schema", "mikpoly-bench/v0"}},
	} {
		base := gateFixture()
		cur := cloneReport(t, base)
		tc.mutate(base, cur)
		regs := Compare(base, cur)
		if tc.want == nil {
			if len(regs) != 0 {
				t.Errorf("%s: unexpected regressions %q", tc.name, regs)
			}
			continue
		}
		if len(regs) != 1 {
			t.Errorf("%s: got %d regressions %q, want exactly 1", tc.name, len(regs), regs)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(regs[0], w) {
				t.Errorf("%s: regression %q lacks %q", tc.name, regs[0], w)
			}
		}
	}
}

// TestRunRejectsUnknownSuite: a typo in -suite is a failure to run, not an
// empty passing report.
func TestRunRejectsUnknownSuite(t *testing.T) {
	if _, err := Run("plannner", true, nil); err == nil {
		t.Fatal("unknown suite ran")
	}
}
