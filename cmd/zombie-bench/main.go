// Command zombie-bench regenerates the paper's tables and figures (as
// reconstructed in DESIGN.md §4) at configurable scale.
//
// Usage:
//
//	zombie-bench [-exp T2] [-exp T2,F1,C1] [-scale 1.0] [-seed 20160516]
//	zombie-bench -exp all -scale 0.25 -parallel 8
//	zombie-bench -cpuprofile cpu.pprof -exp T2
//	zombie-bench -list
//
// Scale 1.0 builds the full 20k-input corpora per task; smaller scales are
// proportionally faster and preserve the result shapes down to ~0.1.
// Output goes to stdout in the table/series formats recorded in
// EXPERIMENTS.md. -parallel N runs independent experiment work
// concurrently, up to N wide at each nesting level (experiments under
// -exp all, a table's rows, a row's trials or variants), so up to 3·N²
// engine runs at once. The output is byte-identical to -parallel 1 for
// everything that does not print measured wall-clock values (see
// DESIGN.md §8). Wall-clock itself is judged by the program in
// benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"zombie/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ids, comma-separated (T1-T4, F1-F8, C1, S1, or 'all')")
	scale := flag.Float64("scale", 1.0, "corpus scale multiplier (1.0 = 20k inputs per task)")
	seed := flag.Int64("seed", 0, "random seed (0 = default)")
	par := flag.Int("parallel", 1, "width of each nested fan-out level: experiments, a table's rows, a row's trials or variants; up to 3*N*N engine runs at once (0 = GOMAXPROCS; output is byte-identical for any value)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *par <= 0 {
		*par = runtime.GOMAXPROCS(0)
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Parallel: *par}
	if err := run(cfg, *exp, os.Stdout); err != nil {
		fatal(err)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // settle allocations so the heap profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// printList writes one line per experiment: its id and title.
func printList(w io.Writer) {
	for _, id := range experiments.IDs() {
		fmt.Fprintf(w, "%-4s %s\n", id, experiments.Title(id))
	}
}

// run dispatches the requested experiments: a comma-separated id list,
// case and spaces ignored, or "all". Every id is checked before any
// experiment runs, so a typo fails at once rather than after the
// experiments before it.
func run(cfg experiments.Config, exp string, w io.Writer) error {
	var ids []string // empty = all, in registry order
	if !strings.EqualFold(exp, "all") {
		for _, id := range strings.Split(exp, ",") {
			if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
				continue
			}
			if experiments.Title(id) == "" {
				return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(experiments.IDs(), ", "))
			}
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return experiments.RunAll(cfg, w)
	}
	for _, id := range ids {
		if err := experiments.Run(id, cfg, w); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zombie-bench:", err)
	os.Exit(1)
}
