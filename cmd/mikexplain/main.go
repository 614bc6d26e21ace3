// Command mikexplain shows what MikPoly's online stage does for one runtime
// GEMM shape: the candidate search, the chosen polymerization pattern and
// strategy, the per-region cost-model terms (Eq. 2), and the simulated
// execution compared against the best single-kernel program — a developer's
// view of Algorithm 1's On-the-Fly Polymerization.
//
// Usage:
//
//	mikexplain [-hw a100|a100cuda|ascend910] [-lib artifact.json] M N K
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"mikpoly/internal/hw"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mikexplain: ")
	var (
		hwName  = flag.String("hw", "a100", "target hardware: a100, a100cuda, ascend910")
		libPath = flag.String("lib", "", "offline artifact from mikgen (default: generate in-process)")
		trace   = flag.Bool("trace", false, "print a per-PE execution timeline")
		splitK  = flag.Bool("splitk", false, "enable the split-K pattern extension")
	)
	flag.Parse()
	if flag.NArg() != 3 {
		fmt.Fprintln(os.Stderr, "usage: mikexplain [-hw ...] [-lib artifact.json] M N K")
		os.Exit(2)
	}
	dims := make([]int, 3)
	for i, a := range flag.Args() {
		v, err := strconv.Atoi(a)
		if err != nil || v < 1 {
			log.Fatalf("bad dimension %q", a)
		}
		dims[i] = v
	}
	shape := tensor.GemmShape{M: dims[0], N: dims[1], K: dims[2]}

	var lib *tune.Library
	if *libPath != "" {
		f, err := os.Open(*libPath)
		if err != nil {
			log.Fatal(err)
		}
		lib, err = tune.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		h, err := hw.ByName(*hwName)
		if err != nil {
			log.Fatal(err)
		}
		lib, err = tune.Generate(h, tune.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
	}
	h := lib.HW

	pl := poly.NewPlanner(lib)
	pl.EnableSplitK = *splitK
	prog, stats, err := pl.Plan(shape)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("shape %v on %s (%d PEs)\n", shape, h.Name, h.NumPEs)
	fmt.Printf("online search: %d candidates costed, %d rejected by their lower bound, %d anchors pruned, %v wall-clock\n",
		stats.Candidates, stats.PrunedCandidates, stats.PrunedAnchors, stats.Elapsed)
	fmt.Printf("selected pattern %s, %d region(s), estimated cost %.0f cycles\n\n",
		prog.Pattern, len(prog.Regions), prog.EstimatedCost)

	fmt.Printf("%-8s %-22s %-28s %6s %6s %6s %8s %12s\n",
		"region", "output block", "micro-kernel", "t1", "t2", "t3", "f_wave", "f_pipe")
	for i, rc := range poly.Explain(prog, lib) {
		r := rc.Region
		fmt.Printf("R%-7d [%d+%d)x[%d+%d)%8s %-28s %6d %6d %6d %8.0f %12.0f\n",
			i, r.M0, r.M, r.N0, r.N, "", r.Kern.String(), rc.T1, rc.T2, rc.T3, rc.Waves, rc.Pipe)
	}

	fmt.Printf("\n%s\n", prog.Sketch(48, 12))

	res := prog.Simulate(h)
	fmt.Printf("\nsimulated: %.0f cycles (%.1f TFLOPS, %.0f%% PE efficiency, %d tasks, %d waves)\n",
		res.Cycles, shape.FLOPs()/h.CyclesToSeconds(res.Cycles)/1e12,
		100*res.Efficiency(), res.NumTasks, res.Waves())

	single, err := pl.PlanPatternI(shape)
	if err != nil {
		log.Fatal(err)
	}
	sres := single.Simulate(h)
	fmt.Printf("best single-kernel program: %.0f cycles with %v (speedup %.2fx)\n",
		sres.Cycles, single.Regions[0].Kern, sres.Cycles/res.Cycles)

	if *trace {
		_, events := sim.RunTrace(h, prog.Tasks(h))
		fmt.Printf("\nexecution timeline (regions lettered in launch order):\n%s\n",
			sim.Timeline(events, h.NumPEs, 72, 16))
	}
}
