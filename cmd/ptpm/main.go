// Command ptpm prints the parallel time-space processing model's analysis
// of the four execution plans at a given problem size: predicted occupancy,
// bounding resource, per-group cycle budget and time — the reasoning the
// paper uses to derive jw-parallel — alongside the measured simulator
// results, and optionally a Chrome trace of the modelled device schedule.
//
// Usage:
//
//	ptpm -n 16384 [-trace schedule.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/obs"
	"repro/internal/perf"
)

func main() {
	var (
		n         = cliflags.N(flag.CommandLine, 16384)
		device    = cliflags.DeviceFlag(flag.CommandLine, "hd5850")
		theta     = flag.Float64("theta", 0.6, "treecode opening angle")
		tracePath = flag.String("trace", "", "write a merged host+device Chrome trace of the measured runs to this file")
	)
	flag.Parse()

	dev := device.Config()
	model := core.TimeSpaceModel{Dev: dev}
	// Both halves analyse one system, the bench sweep's workload at this N.
	sys := ic.Plummer(*n, perf.DefaultBenchConfig().Seed)

	// Analytic mappings for the PP plans (no execution needed).
	fmt.Printf("PTPM analytic predictions (device: %s, peak %.0f GFLOPS)\n\n",
		dev.Name, dev.PeakGFLOPS())

	// Walk statistics for the BH mappings come from the host pipeline.
	opt := bh.DefaultOptions()
	opt.Theta = float32(*theta)
	jwWorkload, err := bhWorkload(sys.Clone(), opt, 24)
	if err != nil {
		fail(err)
	}
	wWorkload, err := bhWorkload(sys.Clone(), opt, 64)
	if err != nil {
		fail(err)
	}

	analyses := []core.Analysis{
		model.Analyze(core.DescribeIParallel(*n, 256)),
		model.Analyze(core.DescribeJParallel(*n, 64)),
		model.Analyze(core.DescribeWParallel(wWorkload, 64)),
		model.Analyze(core.DescribeJWParallel(jwWorkload, 64, dev.ComputeUnits*dev.MaxGroupsPerCU)),
	}
	fmt.Println(core.Report(analyses...))

	// Measured: run each plan once and analyse the actual launch.
	fmt.Println("Measured launches (same cost model, counted work):")
	var o *obs.Obs
	if *tracePath != "" {
		o = obs.New()
	}
	var measured []core.Analysis
	var jwLaunch *gpusim.Result
	for _, name := range perf.PlanNames {
		plan, err := core.NewPlanByName(name,
			core.WithDevice(dev), core.WithBHOptions(opt), core.WithObs(o))
		if err != nil {
			fail(err)
		}
		prof, err := plan.Accel(sys.Clone())
		if err != nil {
			fail(err)
		}
		launch := prof.Launches[0]
		measured = append(measured, model.Analyze(core.FromResult(name, launch)))
		if name == "jw-parallel" {
			jwLaunch = launch
		}
	}
	fmt.Println(core.Report(measured...))

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		// One file, three views: wall-clock host spans (tree build, walk/list
		// construction), the modelled queue pipeline, and the jw-parallel
		// kernel's per-CU device schedule.
		if err := cl.WriteMergedTrace(f, o.Trace, dev, jwLaunch); err != nil {
			fail(err)
		}
		fmt.Printf("wrote merged host+device trace to %s (open in Perfetto / chrome://tracing)\n", *tracePath)
	}
}

// bhWorkload runs the host half of the treecode pipeline and summarises the
// walk decomposition for the analytic BH mappings.
func bhWorkload(sys *body.System, opt bh.Options, groupCap int) (core.BHWorkload, error) {
	if opt.LeafCap > groupCap {
		opt.LeafCap = groupCap
	}
	tree, err := bh.Build(sys, opt)
	if err != nil {
		return core.BHWorkload{}, err
	}
	ws, err := tree.BuildWalks(groupCap)
	if err != nil {
		return core.BHWorkload{}, err
	}
	_, _, meanList, _ := ws.ListStats()
	var totalList float64
	for i := range ws.Walks {
		totalList += float64(ws.Walks[i].ListLen())
	}
	return core.BHWorkload{
		NumWalks:      len(ws.Walks),
		MeanBodies:    ws.MeanBodies(),
		MeanListLen:   meanList,
		TotalListLen:  totalList,
		TotalInterset: float64(ws.Interactions()),
	}, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ptpm: %v\n", err)
	os.Exit(1)
}
