// Command experiments regenerates the paper's evaluation: Figures 4 and 5
// and Tables 1-3, plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments [flags] [fig4|fig5|table1|table2|table3|ablations|all]
//
// With no experiment argument it runs "all". The sweep is shared: every
// figure and table of one invocation renders the same perf.RunBench report,
// which -json writes as a BENCH document.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/perf"
)

func main() {
	var (
		sizes   = cliflags.SizesFlag(flag.CommandLine)
		kcheck  = cliflags.KernelCheckFlag(flag.CommandLine, "warn")
		steps   = flag.Int("steps", 100, "steps per table entry (the paper uses 100)")
		seed    = cliflags.ICSeed(flag.CommandLine, 0, "seed")
		theta   = flag.Float64("theta", 0.6, "treecode opening angle")
		quick   = flag.Bool("quick", false, "use a reduced sweep (smoke test)")
		verbose = flag.Bool("v", false, "print per-point progress")
		jsonOut = flag.String("json", "", "also write the sweep as a BENCH report (the cmd/bench schema) to this file")
	)
	flag.Parse()
	if *steps < 1 {
		fmt.Fprintf(os.Stderr, "experiments: non-positive step count %d\n", *steps)
		os.Exit(2)
	}
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	// Check the name before the sweep, which takes minutes at paper sizes.
	switch what {
	case "fig4", "fig5", "table1", "table2", "table3", "ablations", "all":
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", what)
		os.Exit(2)
	}

	if err := core.PreflightKernelCheck(kcheck.Mode(), nil, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	cfg := exp.PaperConfig()
	if *quick {
		cfg.Sizes = []int{512, 1024, 2048, 4096}
	}
	if ns := sizes.List(); ns != nil {
		cfg.Sizes = ns
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Theta = float32(*theta)
	if *verbose {
		cfg.Progress = os.Stderr
	}

	var rep *perf.BenchReport
	if what != "ablations" {
		var err error
		rep, err = perf.RunBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut != "" {
			rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
			if err := perf.WriteBenchReport(*jsonOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote sweep data to %s (BENCH schema v%d)\n",
				*jsonOut, rep.SchemaVersion)
		}
	}

	emit := func(s string) { fmt.Println(s) }
	switch what {
	case "fig4":
		emit(exp.Fig4(rep))
	case "fig5":
		emit(exp.Fig5(rep))
	case "table1":
		emit(exp.Table1(rep, *steps))
	case "table2":
		emit(exp.Table2(rep, *steps))
	case "table3":
		emit(exp.Table3(rep, *steps))
	case "ablations":
		runAblations(cfg)
	case "all":
		emit(exp.Fig4(rep))
		emit(exp.Fig5(rep))
		emit(exp.Table1(rep, *steps))
		emit(exp.Table2(rep, *steps))
		emit(exp.Table3(rep, *steps))
		runAblations(cfg)
	}
}

func runAblations(cfg perf.BenchConfig) {
	nMid := cfg.Sizes[len(cfg.Sizes)/2]
	small := cfg.Sizes
	if len(small) > 4 {
		small = small[:4]
	}
	for _, run := range []func() (string, error){
		func() (string, error) { return exp.ThetaSweep(cfg, nMid, []float32{0.3, 0.5, 0.6, 0.7, 0.9}) },
		func() (string, error) { return exp.GroupCapSweep(cfg, nMid, []int{8, 16, 24, 32, 48, 64}) },
		func() (string, error) { return exp.StagingAblation(cfg, small) },
		func() (string, error) { return exp.OccupancyAblation(cfg, small) },
		func() (string, error) { return exp.DivergenceAblation(cfg, nMid) },
		func() (string, error) { return exp.CrossDevice(cfg, nMid) },
		func() (string, error) { return exp.QuadrupoleSweep(cfg, small[len(small)-1], []float32{0.4, 0.6, 0.8}) },
		func() (string, error) { return exp.WorkloadSensitivity(cfg, nMid) },
		func() (string, error) { return exp.Algorithms(cfg, small) },
	} {
		out, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: ablation: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
