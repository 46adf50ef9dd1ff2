// Command bench runs the tracked performance sweep — the four GPU execution
// plans over the paper's N range on the simulated HD 5850 — and emits a
// versioned, machine-readable BENCH_<date>.json (point estimates, repeat
// variance, and per-point perf reports: critical-path attribution plus
// roofline/occupancy analysis per kernel).
//
// With -baseline it diffs the sweep's modelled leaves against a committed
// BENCH document bit for bit (perf.Compare) and prints one line per leaf
// that differs, naming the document, the point and the leaf:
//
//	bench -quick -pipeline overlap -baseline BENCH_BASELINE.json  # CI smoke sweep
//	bench -baseline BENCH_BASELINE.json                           # re-derive the baseline
//	bench -out BENCH_BASELINE.json                                # refresh the baseline
//
// Exit codes: 0 ok, 1 a gate failed, 2 usage / runtime error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/perf"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced sweep for CI smoke jobs (fewer sizes, fewer repeats)")
		sizes      = cliflags.SizesFlag(flag.CommandLine)
		device     = cliflags.DeviceFlag(flag.CommandLine, "hd5850")
		kcheck     = cliflags.KernelCheckFlag(flag.CommandLine, "warn")
		pipe       = cliflags.PipelineFlag(flag.CommandLine, "serial")
		repeats    = flag.Int("repeats", 0, "timed repetitions per point (default: sweep default)")
		plans      = flag.String("plans", "", "comma-separated plans (default: all four)")
		theta      = flag.Float64("theta", 0.6, "treecode opening angle")
		eps        = flag.Float64("eps", 0.05, "softening length")
		seed       = cliflags.ICSeed(flag.CommandLine, 20110511, "seed")
		noHermite  = flag.Bool("no-hermite", false, "skip the hermite-block sweep point")
		clockScale = flag.Float64("clock-scale", 1.0, "multiply the device engine clock (for sensitivity checks)")
		out        = flag.String("out", "", "output JSON path (default BENCH_<date>.json; '-' for stdout)")
		baseline   = flag.String("baseline", "", "diff the modelled leaves against this BENCH JSON; exit 1 if any differs")
		trace      = flag.String("trace", "", "write the merged host+device Chrome trace of the final point here")
		hostReport = flag.Bool("host-report", false, "print the measured host-build breakdown (wall ms + allocs/step) per point")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if err := core.PreflightKernelCheck(kcheck.Mode(), nil, os.Stderr); err != nil {
		fatalf("%v", err)
	}

	cfg := perf.DefaultBenchConfig()
	if *quick {
		cfg = perf.QuickBenchConfig()
	}
	if ns := sizes.List(); ns != nil {
		cfg.Sizes = ns
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if *plans != "" {
		cfg.Plans = strings.Split(*plans, ",")
	}
	cfg.Theta = float32(*theta)
	cfg.Eps = float32(*eps)
	cfg.Seed = *seed
	if *noHermite {
		cfg.Hermite = false
	}
	dev := device.Config()
	if *clockScale <= 0 {
		fatalf("non-positive -clock-scale %g", *clockScale)
	}
	dev.ClockHz *= *clockScale
	cfg.Device = dev
	cfg.Pipeline = pipe.Mode()
	// Human-readable output moves to stderr when the JSON goes to stdout.
	info := os.Stdout
	if *out == "-" {
		info = os.Stderr
	}
	cfg.Progress = info

	var traceFile *os.File
	if *trace != "" {
		var err error
		traceFile, err = os.Create(*trace)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.TraceOut = traceFile
	}

	fmt.Fprintf(info, "bench: %s, sizes %v, %d repeats, pipeline %s\n",
		dev.Name, cfg.Sizes, cfg.Repeats, cfg.Pipeline)
	rep, err := perf.RunBench(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	// The pipelined time must never exceed the serial total — in serial mode
	// the two coincide, in overlap mode the executed timeline can only
	// shorten. A point violating this means the accounting is broken, which
	// is a test failure, not a measurement.
	if err := perf.VerifyOverlapBeatsSerial(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(info, "wrote merged trace to %s\n", *trace)
	}
	if *hostReport {
		fmt.Fprintf(info, "host-build breakdown (measured on this machine; modelled host ms for comparison):\n")
		for i := range rep.Points {
			pt := &rep.Points[i]
			fmt.Fprintf(info, "  %-12s N=%-7d host-build=%8.3fms (model %8.3fms)  allocs/step=%.0f\n",
				pt.Plan, pt.N, pt.HostBuildMS.Mean, pt.HostMS.Mean, pt.AllocsPerStep.Mean)
		}
	}

	outPath := *out
	if outPath == "" {
		outPath = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if outPath == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	} else if err := perf.WriteBenchReport(outPath, rep); err != nil {
		fatalf("%v", err)
	} else {
		fmt.Fprintf(info, "wrote %s (%d points, schema v%d)\n", outPath, len(rep.Points), rep.SchemaVersion)
	}

	if *baseline == "" {
		return
	}
	base, err := perf.ReadBenchReport(*baseline)
	if err != nil {
		fatalf("%v", err)
	}
	diffs, warns, err := perf.Compare(base, rep)
	if err != nil {
		fatalf("%v", err)
	}
	for _, w := range warns {
		fmt.Fprintf(os.Stderr, "bench: warning: %s\n", w)
	}
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "%s %s\n", *baseline, d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "bench: modelled leaves that differ from %s: %d\n", *baseline, len(diffs))
		os.Exit(1)
	}
	fmt.Fprintf(info, "no modelled leaf differs from %s\n", *baseline)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
