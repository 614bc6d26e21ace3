// The benchmark gate: one report schema, one comparer, one suite runner.
//
// Every mikbench suite measures its own workload and emits Cases whose
// fields fall into three kinds, told apart by how the gate treats them:
//
//   - exact: machine-independent values the simulator, planner and replay
//     clock produce bit for bit — program strings, IEEE-754 bit patterns in
//     hex, digests, integer counts. They must equal the baseline.
//   - no_grow: steady-state allocation counts and bytes. They may not exceed
//     the baseline.
//   - info: wall-clock and derived numbers (ns/op, seconds, ratios). Printed
//     and recorded, never gated: wall-clock claims belong to mikload.
//
// Besides cases a report lists the self-checks that failed — invariants a
// suite can judge without a baseline (no leaked KV pages, a warm replica
// plans nothing). Compare is the whole gate.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// ReportSchema versions the report layout.
const ReportSchema = "mikpoly-bench/v1"

// Case is one measured case of one suite.
type Case struct {
	Suite  string             `json:"suite"`
	Name   string             `json:"name"`
	Exact  map[string]string  `json:"exact,omitempty"`
	NoGrow map[string]int64   `json:"no_grow,omitempty"`
	Info   map[string]float64 `json:"info,omitempty"`
}

// Report is the document mikbench writes and the committed baseline holds.
// A report may carry the cases of several suites.
type Report struct {
	Schema string `json:"schema"`
	Cases  []Case `json:"cases"`
	// SelfChecks lists the baseline-free invariants that failed (empty on a
	// healthy run).
	SelfChecks []string `json:"self_checks"`
}

// suites lists every suite in the order "all" runs them. A suite measures one
// pinned workload set and returns its cases plus the self-checks that failed;
// seeds overrides the trace seeds of suites that replay seeded traffic. An
// error means the suite itself could not run.
var suites = []struct {
	name string
	run  func(quick bool, seeds []uint64) ([]Case, []string, error)
}{
	{"planner", plannerSuite},
	{"sim", simSuite},
	{"serve", serveSuite},
	{"overload", overloadSuite},
	{"graph", graphSuite},
}

// SuiteNames lists the suites Run accepts besides "all".
func SuiteNames() []string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return names
}

// Run measures the named suite ("all" runs every suite) into one report.
func Run(name string, quick bool, seeds []uint64) (*Report, error) {
	rep := &Report{Schema: ReportSchema, SelfChecks: []string{}}
	for _, s := range suites {
		if name != "all" && name != s.name {
			continue
		}
		cases, failed, err := s.run(quick, seeds)
		if err != nil {
			return nil, fmt.Errorf("bench: suite %s: %w", s.name, err)
		}
		for i := range cases {
			cases[i].Suite = s.name
		}
		rep.Cases = append(rep.Cases, cases...)
		for _, f := range failed {
			rep.SelfChecks = append(rep.SelfChecks, s.name+": "+f)
		}
	}
	// A typo in the suite name must not read as a pass.
	if len(rep.Cases) == 0 {
		return nil, fmt.Errorf("bench: no cases for suite %q (want all or one of %v)", name, SuiteNames())
	}
	return rep, nil
}

// Compare is the gate: it returns every regression of cur against base
// (empty = pass), each naming its case and field.
//
//   - the schemas must match;
//   - for every suite cur ran, the case sets must be equal (a changed suite
//     needs an explicit baseline refresh); other suites base holds are not
//     judged, unless Run no longer knows them: a deleted suite's cases must
//     leave the baseline with it;
//   - every exact field must equal the baseline's, and the field sets must
//     match;
//   - every no_grow field must be <= the baseline's;
//   - cur must list no failed self-check.
func Compare(base, cur *Report) []string {
	if base.Schema != cur.Schema {
		return []string{fmt.Sprintf("schema %q != baseline %q (refresh the baseline)", cur.Schema, base.Schema)}
	}
	var regs []string
	for _, f := range cur.SelfChecks {
		regs = append(regs, "self-check failed: "+f)
	}

	ran := map[string]bool{}
	for _, c := range cur.Cases {
		ran[c.Suite] = true
	}
	known := map[string]bool{}
	for _, s := range suites {
		known[s.name] = true
	}
	unmatched := map[string]Case{}
	var stale []string
	for _, b := range base.Cases {
		switch {
		case ran[b.Suite]:
			unmatched[b.Suite+"/"+b.Name] = b
		case !known[b.Suite]:
			stale = append(stale, b.Suite+"/"+b.Name)
		}
	}
	for _, c := range cur.Cases {
		id := c.Suite + "/" + c.Name
		b, ok := unmatched[id]
		if !ok {
			regs = append(regs, id+": case absent from baseline (suite changed? refresh the baseline)")
			continue
		}
		delete(unmatched, id)
		for _, k := range unionKeys(b.Exact, c.Exact) {
			bv, bok := b.Exact[k]
			cv, cok := c.Exact[k]
			if bok != cok || bv != cv {
				regs = append(regs, fmt.Sprintf("%s: exact %s = %q, baseline %q", id, k, cv, bv))
			}
		}
		for _, k := range unionKeys(b.NoGrow, c.NoGrow) {
			bv, bok := b.NoGrow[k]
			cv, cok := c.NoGrow[k]
			switch {
			case !bok || !cok:
				regs = append(regs, fmt.Sprintf("%s: no_grow %s present on one side only (refresh the baseline)", id, k))
			case cv > bv:
				regs = append(regs, fmt.Sprintf("%s: no_grow %s = %d > baseline %d", id, k, cv, bv))
			}
		}
	}
	missing := make([]string, 0, len(unmatched))
	for id := range unmatched {
		missing = append(missing, id)
	}
	sort.Strings(missing)
	for _, id := range missing {
		regs = append(regs, id+": case missing from current run (suite changed? refresh the baseline)")
	}
	sort.Strings(stale)
	for _, id := range stale {
		regs = append(regs, id+": suite no longer exists (delete its cases from the baseline)")
	}
	return regs
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Print renders the report as text, one block per case.
func (r *Report) Print(w io.Writer) {
	for _, c := range r.Cases {
		fmt.Fprintf(w, "%s/%s\n", c.Suite, c.Name)
		for _, k := range unionKeys(c.Info, nil) {
			fmt.Fprintf(w, "  info    %-24s %.6g\n", k, c.Info[k])
		}
		for _, k := range unionKeys(c.NoGrow, nil) {
			fmt.Fprintf(w, "  no_grow %-24s %d\n", k, c.NoGrow[k])
		}
		for _, k := range unionKeys(c.Exact, nil) {
			fmt.Fprintf(w, "  exact   %-24s %s\n", k, c.Exact[k])
		}
	}
}

// floatBits renders a float64's exact IEEE-754 bit pattern.
func floatBits(f float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(f))
}

// itoa renders an integer count as an exact field.
func itoa[I int | int64](n I) string { return strconv.FormatInt(int64(n), 10) }

// sampleRepeats is how many windows measureOp samples; the minimum across
// windows is reported, the most robust location statistic under noise (other
// goroutines only ever add time and allocations).
const sampleRepeats = 3

// measureOp times op over sampleRepeats windows of at least minTime and
// minIters operations each and returns the minimum allocation count, bytes
// and ns per op across the windows. The caller warms op up first.
func measureOp(minTime time.Duration, minIters int, op func() error) (allocs, bytes int64, ns float64, err error) {
	allocs, bytes, ns = math.MaxInt64, math.MaxInt64, math.Inf(1)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < sampleRepeats; r++ {
		// A collection empties sync.Pools; one unmeasured op refills the
		// planner's scratch pool so the window sees steady state only.
		runtime.GC()
		if err := op(); err != nil {
			return 0, 0, 0, err
		}
		runtime.ReadMemStats(&ms0)
		iters := 0
		start := time.Now()
		var elapsed time.Duration
		for elapsed < minTime || iters < minIters {
			if err := op(); err != nil {
				return 0, 0, 0, err
			}
			iters++
			elapsed = time.Since(start)
		}
		runtime.ReadMemStats(&ms1)
		allocs = min(allocs, int64(ms1.Mallocs-ms0.Mallocs)/int64(iters))
		bytes = min(bytes, int64(ms1.TotalAlloc-ms0.TotalAlloc)/int64(iters))
		ns = min(ns, float64(elapsed.Nanoseconds())/float64(iters))
	}
	return allocs, bytes, ns, nil
}
