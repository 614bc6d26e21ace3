package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// reported is the JSON object a run prints last.
type reported struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// oneRun is what -repeat keeps of a child process's output.
type oneRun struct {
	values map[string]float64
	digest string
}

// child re-executes this binary for one (workload, seed) and parses the
// JSON line and the run_digest line it prints.
func child(workload string, seed uint64, seconds float64) (oneRun, error) {
	self, err := os.Executable()
	if err != nil {
		return oneRun{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return oneRun{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var parsed reported
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
		return oneRun{}, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !parsed.Correct {
		return oneRun{}, fmt.Errorf("%s seed %d: run reported correct=false", workload, seed)
	}
	run := oneRun{values: make(map[string]float64)}
	for name, m := range parsed.Metrics {
		run.values[name] = m.Value
	}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "run_digest "); ok {
			run.digest = d
		}
	}
	return run, nil
}

// quartiles are those of Python's statistics.quantiles(v, n=4), the
// estimator the acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runRepeat runs each workload n times (seeds seed..seed+n-1) in fresh
// processes, then does it all again, and prints for every workload and
// end-to-end metric the median, quartiles and range of each set, the
// spread (interquartile distance over the median) against the bound, and
// how much worse the second set's median is than the first's.
func runRepeat(out io.Writer, only string, seed uint64, seconds float64, n int) int {
	var names []string
	for _, w := range workloads {
		if only == "" || only == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "mikload: unknown -workload %q\n", only)
		return 2
	}
	runs := make(map[string][2][]oneRun)
	for set := 0; set < 2; set++ {
		for _, name := range names {
			for i := 0; i < n; i++ {
				r, err := child(name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mikload: %v\n", err)
					return 1
				}
				sets := runs[name]
				sets[set] = append(sets[set], r)
				runs[name] = sets
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, name, seed+uint64(i))
			}
		}
	}

	ok := true
	verdict := func(pass bool) string {
		if pass {
			return "PASS"
		}
		ok = false
		return "FAIL"
	}
	fmt.Fprintf(out, "%d runs per set, seeds %d..%d, -seconds %g\n\n", n, seed, seed+uint64(n)-1, seconds)
	fmt.Fprintln(out, "| workload | metric | set | median | q1 | q3 | min | max | spread | bound | spread ≤ bound | set 2 median worse by | ≤ bound |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, name := range names {
		for _, def := range endToEnd {
			var med [2]float64
			for set := 0; set < 2; set++ {
				var v []float64
				for _, r := range runs[name][set] {
					v = append(v, r.values[def.name])
				}
				q1, q2, q3 := quartiles(v)
				med[set] = q2
				sort.Float64s(v)
				spread := (q3 - q1) / q2
				spreadOK, worse, worseOK := "n/a", "", ""
				if def.name != "setup_s" {
					spreadOK = verdict(spread <= def.bound)
				}
				if set == 1 {
					w := (med[1] - med[0]) / med[0]
					if def.better == "higher" {
						w = -w
					}
					worse, worseOK = fmt.Sprintf("%+.2f%%", w*100), verdict(w <= def.bound)
				}
				fmt.Fprintf(out, "| %s | %s | %d | %.6g | %.6g | %.6g | %.6g | %.6g | %.2f%% | %.0f%% | %s | %s | %s |\n",
					name, def.name, set+1, q2, q1, q3, v[0], v[len(v)-1], spread*100, def.bound*100, spreadOK, worse, worseOK)
			}
		}
	}

	// Every run made, so that a reader can recompute any of the above.
	fmt.Fprintln(out, "\n| workload | metric | set 1, by seed | set 2, by seed |")
	fmt.Fprintln(out, "|---|---|---|---|")
	for _, name := range names {
		for _, def := range endToEnd {
			var cols [2]string
			for set := range cols {
				for _, r := range runs[name][set] {
					cols[set] += fmt.Sprintf("%.5g ", r.values[def.name])
				}
			}
			fmt.Fprintf(out, "| %s | %s | %s| %s|\n", name, def.name, cols[0], cols[1])
		}
	}

	// One seed, two processes: the device clock and every exact response
	// field must agree to the bit, allocation to half a percent.
	fmt.Fprintln(out, "\n| workload | same seed, two runs: run_digest and device_* identical | largest alloc_kb_per_request difference |")
	fmt.Fprintln(out, "|---|---|---|")
	for _, name := range names {
		same, maxAlloc := true, 0.0
		for i := 0; i < n; i++ {
			a, b := runs[name][0][i], runs[name][1][i]
			same = same && a.digest == b.digest
			for _, def := range endToEnd {
				if strings.HasPrefix(def.name, "device_") && a.values[def.name] != b.values[def.name] {
					same = false
				}
			}
			d := a.values["alloc_kb_per_request"]/b.values["alloc_kb_per_request"] - 1
			if d < 0 {
				d = -d
			}
			if d > maxAlloc {
				maxAlloc = d
			}
		}
		fmt.Fprintf(out, "| %s | %s | %.3f%% %s |\n", name, verdict(same), maxAlloc*100, verdict(maxAlloc <= 0.005))
	}
	if !ok {
		return 1
	}
	return 0
}
