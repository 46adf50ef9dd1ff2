// Command nbody runs an N-body simulation with a chosen force engine —
// the CPU direct sum, the CPU Barnes-Hut treecode, or any of the four
// simulated-GPU plans — and reports energy diagnostics and performance.
//
// Usage:
//
//	nbody -n 4096 -plan jw-parallel -steps 100 -dt 0.01
//
// Plans: cpu-pp, cpu-bh, cpu-bh-refit, cpu-fmm, i-parallel, j-parallel,
// w-parallel, jw-parallel (-engine remains as an alias of -plan).
// Scenarios (-ic; -workload remains as an alias): plummer, hernquist, cube,
// disk, collision. Integrators (-integrator): euler, leapfrog, verlet,
// hermite — hermite takes the block-timestep knobs -eta, -dt-min, -dt-max.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fmm"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/pp"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/version"
)

func main() {
	var (
		n         = cliflags.N(flag.CommandLine, 4096)
		plan      = cliflags.Plan(flag.CommandLine, "jw-parallel", "engine")
		device    = cliflags.DeviceFlag(flag.CommandLine, "hd5850")
		kcheck    = cliflags.KernelCheckFlag(flag.CommandLine, "warn")
		pipe      = cliflags.PipelineFlag(flag.CommandLine, "serial")
		hostWork  = cliflags.HostWorkers(flag.CommandLine)
		icFlag    = cliflags.ICFlag(flag.CommandLine, "plummer", "workload")
		seed      = cliflags.ICSeed(flag.CommandLine, 1, "seed")
		integr    = cliflags.IntegratorFlag(flag.CommandLine, "leapfrog")
		steps     = flag.Int("steps", 100, "number of time steps")
		dt        = flag.Float64("dt", 0.01, "time step")
		theta     = flag.Float64("theta", 0.6, "treecode opening angle")
		eps       = flag.Float64("eps", 0.05, "softening length")
		eta       = flag.Float64("eta", 0, "hermite: Aarseth accuracy parameter (0 = default)")
		dtMin     = flag.Float64("dt-min", 0, "hermite: smallest block timestep (0 = default depth)")
		dtMax     = flag.Float64("dt-max", 0, "hermite: largest block timestep (0 = the outer dt)")
		every     = flag.Int("snapshot", 0, "record energy every k steps (0: start/end only; costs O(N^2) each)")
		save      = flag.String("save", "", "write the final state to this snapshot file")
		load      = flag.String("load", "", "start from this snapshot file instead of generating a workload")
		showDiag  = flag.Bool("diag", false, "print astrophysical diagnostics before and after the run")
		metricsTo = flag.String("metrics", "", "write a JSON metrics snapshot to this file after the run")
		traceTo   = flag.String("trace", "", "write a merged host+device Chrome trace to this file after the run")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar (incl. live metrics) on this address, e.g. localhost:6060")
		perfTo    = flag.String("perf-report", "", "write the perf report (critical path + roofline) of the run to this file (GPU engines only)")
		tolEnergy = flag.Float64("tol-energy", 0, "watchdog: halt when |E-E0|/|E0| exceeds this (0 disables)")
		tolMom    = flag.Float64("tol-momentum", 0, "watchdog: halt when ||P-P0|| exceeds this (0 disables)")
		pipeWin   = flag.Int("pipeline-window", 8, "steps per pipeline window under -pipeline=overlap (snapshots always join the pipeline)")
		perfSum   = flag.Bool("perf-summary", false, "print the executed-schedule perf attribution after the run (GPU engines only)")
		showVer   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Printf("nbody %s (%s)\n", version.String(), version.GoVersion())
		return
	}

	mode := pipe.Mode()

	var o *obs.Obs
	if *metricsTo != "" || *traceTo != "" || *debugAddr != "" {
		o = obs.New()
	}
	if err := core.PreflightKernelCheck(kcheck.Mode(), o, os.Stderr); err != nil {
		fail(err)
	}
	if o != nil {
		version.Register(o.Metrics)
	}
	if *debugAddr != "" {
		o.Metrics.Publish("nbody.metrics")
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "nbody: debug server: %v\n", err)
			}
		}()
		fmt.Printf("debug server on http://%s/debug/pprof/ and /debug/vars\n", *debugAddr)
	}

	var sys *body.System
	startTime := 0.0
	if *load != "" {
		snap, err := snapshot.Load(*load)
		if err != nil {
			fail(err)
		}
		sys = snap.System
		startTime = snap.Time
		*n = sys.N()
	} else {
		sys = icFlag.Make(*n, *seed)
	}

	params := pp.Params{G: 1, Eps: float32(*eps)}
	opt := bh.DefaultOptions()
	opt.Theta = float32(*theta)
	opt.Eps = float32(*eps)

	eng, pe, err := makeEngine(*plan, params, opt, o, device.Config())
	if err != nil {
		fail(err)
	}
	if mode == pipeline.Overlap {
		if pe == nil {
			fail(fmt.Errorf("-pipeline=overlap requires a GPU engine (got %s)", eng.Name()))
		}
		pe.Mode = mode
	}
	if *perfSum {
		if pe == nil {
			fail(fmt.Errorf("-perf-summary requires a GPU engine (got %s)", eng.Name()))
		}
		pe.RetainSchedules(1_000_000)
	}

	ig := integr.New()

	fmt.Printf("nbody: %d bodies (%s), engine %s, integrator %s, dt=%g, %d steps, pipeline %s\n",
		*n, icFlag.Name(), eng.Name(), ig.Name(), *dt, *steps, mode)
	if *showDiag {
		if sum, err := diag.Summarize(sys, 1, *eps); err == nil {
			fmt.Println("initial:", sum)
		}
	}
	var dog *perf.Watchdog
	if *tolEnergy > 0 || *tolMom > 0 {
		dog = &perf.Watchdog{Tol: perf.Tolerances{
			MaxEnergyDrift:   *tolEnergy,
			MaxMomentumDrift: *tolMom,
		}}
	}
	// A telemetry-enabled run is correlated end to end: mint a trace, open
	// the run's root span on it, and thread the position through the context
	// so step spans, engine evaluations, and the merged trace all carry one
	// trace_id. Telemetry-off runs take the plain path.
	ctx := context.Background()
	var rootSpan *obs.Span
	if o != nil {
		tc := obs.NewTraceContext()
		rootSpan = o.Start("run", "host").Trace(tc).
			Arg("plan", eng.Name()).Arg("n", *n).Arg("steps", *steps)
		ctx = obs.WithTraceContext(ctx, tc)
		fmt.Printf("trace id: %s\n", tc.TraceID)
	}
	// A generated run names its scenario so sim can arm the library's
	// watchdog presets when no explicit tolerances were given; a run resumed
	// from a snapshot has no scenario (and so no presets).
	scenario := ""
	if *load == "" {
		scenario = icFlag.Name()
	}
	snaps, err := sim.RunContext(ctx, sys, eng, ig, sim.Config{
		DT:             float32(*dt),
		Steps:          *steps,
		SnapshotEvery:  *every,
		G:              1,
		Eps:            *eps,
		Scenario:       scenario,
		Integrator:     ig.Name(),
		Eta:            float32(*eta),
		DTMin:          float32(*dtMin),
		DTMax:          float32(*dtMax),
		Log:            os.Stdout,
		Obs:            o,
		Watchdog:       dog,
		PipelineWindow: windowFor(mode, *pipeWin),
		HostWorkers:    *hostWork,
	})
	rootSpan.End()
	if err != nil {
		fail(err)
	}
	fmt.Printf("energy drift: %.3e (relative)\n", sim.EnergyDrift(snaps))
	if *showDiag {
		if sum, err := diag.Summarize(sys, 1, *eps); err == nil {
			fmt.Println("final:  ", sum)
		}
	}
	if *save != "" {
		final := startTime + float64(*steps)*(*dt)
		if err := snapshot.Save(*save, snapshot.Snapshot{Time: final, System: sys}); err != nil {
			fail(err)
		}
		fmt.Printf("saved state to %s (t=%g)\n", *save, final)
	}
	if pe != nil {
		fmt.Printf("modelled device time: kernel %.4gs, total %.4gs (%.1f GFLOPS sustained)\n",
			pe.KernelSeconds, pe.TotalSeconds(), pe.SustainedGFLOPS())
		if hb := pe.HostBuildTotalSeconds(); hb > 0 {
			fmt.Printf("measured host build: %.4gs wall across %d evaluations\n", hb, pe.Evaluations)
		}
		if pe.Mode == pipeline.Overlap {
			speedup := 1.0
			if ex := pe.ExecutedSeconds(); ex > 0 {
				speedup = pe.TotalSeconds() / ex
			}
			fmt.Printf("executed (overlapped) time: %.4gs — %.2fx vs serial (%.1f GFLOPS pipelined)\n",
				pe.ExecutedSeconds(), speedup, pe.SustainedPipelinedGFLOPS())
		}
	}
	if *perfSum {
		sched, truncated := pe.RetainedSchedule()
		if sched == nil {
			fail(fmt.Errorf("-perf-summary: no executed schedule retained"))
		}
		attr := perf.AttributeExecuted(sched)
		fmt.Printf("perf: %s\n", attr.String())
		fmt.Printf("perf: makespan %.4gs over %d spans", attr.MakespanSeconds, attr.Spans)
		if truncated {
			fmt.Printf(" (truncated)")
		}
		fmt.Println()
	}
	if *metricsTo != "" {
		if err := writeMetrics(*metricsTo, o); err != nil {
			fail(err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsTo)
	}
	if *traceTo != "" {
		if err := writeTrace(*traceTo, o, pe, device.Config()); err != nil {
			fail(err)
		}
		fmt.Printf("wrote merged host+device trace to %s (open in Perfetto / chrome://tracing)\n", *traceTo)
	}
	if *perfTo != "" {
		if pe == nil || pe.LastProfile == nil {
			fail(fmt.Errorf("-perf-report requires a GPU engine (got %s)", eng.Name()))
		}
		if err := writePerfReport(*perfTo, pe, device.Config()); err != nil {
			fail(err)
		}
		fmt.Printf("wrote perf report to %s\n", *perfTo)
	}
}

// writePerfReport builds the critical-path + roofline analysis of the run's
// final force evaluation from its executed stage schedule (use -perf-summary
// for the attribution over every step).
func writePerfReport(path string, pe *core.Engine, dev gpusim.DeviceConfig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep := perf.BuildPlanReport(dev, pe.LastProfile)
	if err := rep.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// writeMetrics dumps the registry snapshot as indented JSON.
func writeMetrics(path string, o *obs.Obs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := o.Metrics.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// writeTrace merges the host spans with the device schedule of the last
// kernel launches (when a GPU plan ran) into one Chrome trace.
func writeTrace(path string, o *obs.Obs, pe *core.Engine, dev gpusim.DeviceConfig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var launches []*gpusim.Result
	if pe != nil {
		launches = pe.LastLaunches
	}
	if err := cl.WriteMergedTrace(f, o.Trace, dev, launches...); err != nil {
		return err
	}
	return f.Close()
}

func makeEngine(name string, params pp.Params, opt bh.Options, o *obs.Obs, dev gpusim.DeviceConfig) (sim.Engine, *core.Engine, error) {
	opt.Trace = o.Tracer() // spans the CPU treecode engines too
	switch name {
	case "cpu-pp":
		return &sim.DirectEngine{Params: params}, nil, nil
	case "cpu-bh":
		return &sim.TreeEngine{Opt: opt}, nil, nil
	case "cpu-bh-refit":
		return &bh.RefitEngine{Opt: opt}, nil, nil
	case "cpu-fmm":
		return &fmm.Engine{Opt: opt}, nil, nil
	}
	pe, err := core.NewEngineByName(name,
		core.WithDevice(dev),
		core.WithPPParams(params),
		core.WithBHOptions(opt),
		core.WithObs(o))
	if err != nil {
		return nil, nil, err
	}
	return pe, pe, nil
}

// windowFor returns the sim pipeline window: overlap batches steps, serial
// keeps every step to completion (window disabled).
func windowFor(mode pipeline.Mode, win int) int {
	if mode != pipeline.Overlap {
		return 0
	}
	if win < 2 {
		win = 2
	}
	return win
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "nbody: %v\n", err)
	os.Exit(1)
}
