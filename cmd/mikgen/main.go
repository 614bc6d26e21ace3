// Command mikgen runs MikPoly's offline stage (S1) and saves the resulting
// micro-kernel library as a JSON artifact, the analog of the paper's
// once-per-platform auto-tuning run whose binaries "do not require
// re-generation for the same operator on the same platform" (§4). It is the
// one writer of the artifact `mikserve -library` and `mikexplain -lib` read:
// the file is sealed with an integrity trailer and replaced atomically.
//
// Usage:
//
//	mikgen -hw a100|a100cuda|ascend910 [-ngen 32 -nsyn 12 -nmik 40 -npred 5120] -o lib.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mikpoly/internal/hw"
	"mikpoly/internal/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mikgen: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses args, tunes the library and writes it with tune.SaveFile.
func run(args []string) error {
	fs := flag.NewFlagSet("mikgen", flag.ContinueOnError)
	var (
		hwName = fs.String("hw", "a100", "target hardware: a100, a100cuda, ascend910")
		ngen   = fs.Int("ngen", 32, "tile-size grid bound n_gen")
		nsyn   = fs.Int("nsyn", 12, "synthetic workload size bound n_syn")
		nmik   = fs.Int("nmik", 40, "retained kernel count n_mik")
		npred  = fs.Int("npred", 5120, "performance-model fit bound n_pred")
		out    = fs.String("o", "mikpoly-lib.json", "output artifact path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := hw.ByName(*hwName)
	if err != nil {
		return err
	}

	opt := tune.Options{NGen: *ngen, NSyn: *nsyn, NMik: *nmik, NPred: *npred}
	start := time.Now()
	lib, err := tune.Generate(h, opt)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d micro-kernels for %s in %v\n",
		len(lib.Kernels), h.Name, time.Since(start).Round(time.Millisecond))

	if err := tune.SaveFile(lib, *out); err != nil {
		return err
	}
	fmt.Printf("saved offline artifact to %s\n", *out)
	return nil
}
