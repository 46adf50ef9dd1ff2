// Planlab: explore the parallel time-space processing model interactively —
// for a range of problem sizes, print each plan's predicted occupancy,
// bounding resource and time from the analytic PTPM, next to the measured
// simulator result. This is the reasoning loop of the paper's Section 4
// turned into a tool: it shows *why* i-parallel collapses at small N, why
// j-parallel goes memory-bound at large N, and where jw-parallel's margin
// over w-parallel comes from.
//
// Run with: go run ./examples/planlab
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/perf"
)

func main() {
	dev := gpusim.HD5850()
	model := core.TimeSpaceModel{Dev: dev}

	fmt.Printf("PTPM plan laboratory — device %s, peak %.0f GFLOPS\n\n", dev.Name, dev.PeakGFLOPS())

	plans := make(map[string]core.Plan, len(perf.PlanNames))
	for _, name := range perf.PlanNames {
		plan, err := core.NewPlanByName(name, core.WithDevice(dev))
		if err != nil {
			log.Fatal(err)
		}
		plans[name] = plan
	}

	for _, n := range []int{512, 4096, 16384} {
		fmt.Printf("== N = %d ==\n", n)
		// The bench sweep's workload at this N.
		sys := ic.Plummer(n, perf.DefaultBenchConfig().Seed)
		profs := make(map[string]*core.RunProfile, len(plans))
		var analyses []core.Analysis
		for _, name := range perf.PlanNames {
			prof, err := plans[name].Accel(sys.Clone())
			if err != nil {
				log.Fatal(err)
			}
			profs[name] = prof
			analyses = append(analyses, model.Analyze(core.FromResult(name, prof.Launches[0])))
		}
		fmt.Println(core.Report(analyses...))

		jw := profs["jw-parallel"]
		w := profs["w-parallel"]
		ip := profs["i-parallel"]
		fmt.Printf("reading: jw-parallel sustains %.0f GFLOPS here; w-parallel pays %0.1fx more kernel time\n",
			jw.KernelGFLOPS(), w.Profile.KernelSeconds/jw.Profile.KernelSeconds)
		switch {
		case n <= 1024:
			launch := ip.Launches[0]
			fmt.Printf("at this size i-parallel has only %d work-groups for %d compute units — the space axis is starved.\n\n",
				launch.Params.Global/launch.Params.Local, dev.ComputeUnits)
		default:
			fmt.Printf("at this size the PP plans execute %.1fx more interactions than the treecode walks need.\n\n",
				float64(ip.Interactions)/float64(jw.Interactions))
		}
	}
}
