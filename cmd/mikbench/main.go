// Command mikbench runs the pinned benchmark suites and gates the result
// against the committed baseline (BENCH_gate.json). It is the CI gate job's
// engine and the local tool for refreshing the baseline.
//
// Five suites are available via -suite (default all):
//
//   - planner: the online planner's decisions, allocations and latency over
//     BERT-style dynamic-sequence-length and Llama-decode GEMM shapes;
//   - sim: the simulator's results, allocations and latency on the programs
//     the planner chooses for never-seen shapes;
//   - serve: goodput-under-SLO on synthetic multi-tenant LLM traffic through
//     the paged KV cache and scheduler;
//   - overload: surge survival — the same Poisson burst replayed with the
//     overload defenses on vs off; -seeds overrides the seed matrix;
//   - graph: warm graph executions — cycles, zero simulator calls and the
//     allocations of replaying a decode step graph and a BERT graph.
//
// Every suite emits the same report (internal/bench/gate.go): cases whose
// fields are exact (must equal the baseline), no_grow (may not exceed it) or
// info (printed, never gated — planner latency among them; wall-clock claims
// belong to mikload), plus the self-checks that failed.
//
// Refresh the committed baseline, then gate a working tree against it:
//
//	go run ./cmd/mikbench -out BENCH_gate.json
//	go run ./cmd/mikbench -suite serve -baseline BENCH_gate.json -out serve-current.json
//
// Exit status: 0 = the suites ran, every self-check held and (if -baseline)
// the gate passed; 1 = regressions; 2 = a suite itself failed to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mikpoly/internal/bench"
)

func main() {
	var (
		suite    = flag.String("suite", "all", "suite to run: all, "+strings.Join(bench.SuiteNames(), ", "))
		out      = flag.String("out", "", "write the measured report to this file (JSON)")
		baseline = flag.String("baseline", "", "compare against this baseline report and exit 1 on regression")
		quick    = flag.Bool("quick", false, "run the subsampled suites (smoke runs; the case set differs from the baseline's)")
		seeds    = flag.String("seeds", "", "comma-separated trace seeds (overload; default suite matrix)")
	)
	flag.Parse()

	seedList, err := bench.ParseSeeds(*seeds)
	if err != nil {
		fatalf("-seeds: %v", err)
	}

	start := time.Now()
	rep, err := bench.Run(*suite, *quick, seedList)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "mikbench: %s done in %v (%d cases)\n",
		*suite, time.Since(start).Round(time.Millisecond), len(rep.Cases))
	rep.Print(os.Stdout)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "mikbench: wrote %s\n", *out)
	}

	regs := rep.SelfChecks
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("read baseline: %v", err)
		}
		var base bench.Report
		if err := json.Unmarshal(data, &base); err != nil {
			fatalf("parse baseline %s: %v", *baseline, err)
		}
		regs = bench.Compare(&base, rep)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "mikbench: FAIL — %d regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  - %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mikbench: PASS\n")
}

// fatalf reports a failure to run (not a regression) and exits 2.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mikbench: "+format+"\n", args...)
	os.Exit(2)
}
