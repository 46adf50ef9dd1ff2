package exp

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/pp"
	"repro/internal/table"
)

// ThetaSweep quantifies the treecode's accuracy/time trade-off: for each
// opening angle it reports the jw-parallel kernel time, the interaction
// count and the RMS relative force error against the exact direct sum. The
// paper fixes theta; this sweep documents what that choice buys.
func ThetaSweep(cfg perf.BenchConfig, n int, thetas []float32) (string, error) {
	sys := workload(cfg, n)
	exact := sys.Clone()
	pp.Scalar(exact, ppParams(cfg))

	t := table.New(
		fmt.Sprintf("Ablation — opening angle theta (jw-parallel, N=%d)", n),
		"theta", "interactions", "kernel time", "GFLOPS", "RMS force err")
	for _, theta := range thetas {
		opt := bhOptions(cfg)
		opt.Theta = theta
		plan, err := core.NewPlanByName("jw-parallel",
			core.WithDevice(cfg.Device), core.WithBHOptions(opt))
		if err != nil {
			return "", err
		}
		got := sys.Clone()
		prof, err := plan.Accel(got)
		if err != nil {
			return "", fmt.Errorf("exp: theta %g: %w", theta, err)
		}
		t.AddRow(
			fmt.Sprintf("%.2f", theta),
			table.Count(prof.Interactions),
			table.Seconds(prof.Profile.KernelSeconds),
			table.GFLOPS(prof.KernelGFLOPS()),
			fmt.Sprintf("%.2e", pp.RMSRelError(exact.Acc, got.Acc, 1e-3)),
		)
	}
	return t.String(), nil
}

// GroupCapSweep varies the jw-parallel walk size (bodies per group): small
// walks keep lists short but waste lanes; large walks fill lanes but
// lengthen every list. The paper's design picks the middle of this curve.
func GroupCapSweep(cfg perf.BenchConfig, n int, caps []int) (string, error) {
	sys := workload(cfg, n)
	t := table.New(
		fmt.Sprintf("Ablation — jw-parallel walk size (GroupCap, N=%d)", n),
		"groupCap", "walks", "mean list", "interactions", "kernel time", "GFLOPS")
	for _, gc := range caps {
		plan, err := core.NewPlanByName("jw-parallel",
			core.WithDevice(cfg.Device),
			core.WithBHOptions(bhOptions(cfg)),
			core.WithTuning(gc, 0, 0))
		if err != nil {
			return "", err
		}
		prof, err := plan.Accel(sys.Clone())
		if err != nil {
			return "", fmt.Errorf("exp: groupCap %d: %w", gc, err)
		}

		// Recompute the walk statistics the plan used.
		opt := bhOptions(cfg)
		if opt.LeafCap > gc {
			opt.LeafCap = gc
		}
		tree, err := bh.Build(sys.Clone(), opt)
		if err != nil {
			return "", err
		}
		ws, err := tree.BuildWalks(gc)
		if err != nil {
			return "", err
		}
		_, _, meanList, _ := ws.ListStats()

		t.AddRow(
			fmt.Sprint(gc),
			fmt.Sprint(len(ws.Walks)),
			fmt.Sprintf("%.0f", meanList),
			table.Count(prof.Interactions),
			table.Seconds(prof.Profile.KernelSeconds),
			table.GFLOPS(prof.KernelGFLOPS()),
		)
	}
	return t.String(), nil
}

// StagingAblation disables jw-parallel's local-memory staging (reverting
// its list handling to w-parallel's per-lane streaming, while keeping the
// queueing) to show where the speedup comes from.
func StagingAblation(cfg perf.BenchConfig, sizes []int) (string, error) {
	t := table.New("Ablation — jw-parallel local-memory staging",
		"N", "staged kernel", "unstaged kernel", "staging gain")
	for _, n := range sizes {
		sys := workload(cfg, n)
		var secs [2]float64
		for i, disable := range []bool{false, true} {
			p, err := core.NewPlanByName("jw-parallel",
				core.WithDevice(cfg.Device), core.WithBHOptions(bhOptions(cfg)))
			if err != nil {
				return "", err
			}
			plan := p.(*core.JWParallel)
			plan.DisableLDSStaging = disable
			prof, err := plan.Accel(sys.Clone())
			if err != nil {
				return "", err
			}
			secs[i] = prof.Profile.KernelSeconds
		}
		t.AddRow(
			fmt.Sprint(n),
			table.Seconds(secs[0]),
			table.Seconds(secs[1]),
			fmt.Sprintf("%.1fx", secs[1]/secs[0]),
		)
	}
	return t.String(), nil
}

// OccupancyAblation reruns i-parallel and w-parallel with the cost model's
// latency hiding disabled (occupancy factors pinned to 1). For i-parallel
// the columns coincide — its 4-wavefront groups always hide the shallow ALU
// pipeline, so the small-N cliff is *pure compute-unit starvation*, the part
// the PTPM attributes to too few work-groups on the space axis. For the
// memory-bound w-parallel, single-wavefront groups cannot hide memory
// latency at small N, and removing that penalty shows how much of its
// deficit is occupancy rather than traffic.
func OccupancyAblation(cfg perf.BenchConfig, sizes []int) (string, error) {
	t := table.New("Ablation — latency-hiding occupancy (GFLOPS with / without the penalty)",
		"N", "i-par full", "i-par no-penalty", "w-par full", "w-par no-penalty")
	for _, n := range sizes {
		sys := workload(cfg, n)
		var cells []string
		cells = append(cells, fmt.Sprint(n))
		for _, planName := range []string{"i-parallel", "w-parallel"} {
			for _, noHide := range []bool{false, true} {
				dev := cfg.Device
				if noHide {
					dev.HideWavefronts = 1
					dev.ALUHideWavefronts = 1
				}
				plan, err := core.NewPlanByName(planName,
					core.WithDevice(dev),
					core.WithPPParams(ppParams(cfg)),
					core.WithBHOptions(bhOptions(cfg)))
				if err != nil {
					return "", err
				}
				prof, err := plan.Accel(sys.Clone())
				if err != nil {
					return "", err
				}
				cells = append(cells, table.GFLOPS(prof.KernelGFLOPS()))
			}
		}
		t.AddRow(cells...)
	}
	return t.String(), nil
}

// DivergenceAblation compares the cost model's divergence-aware wavefront
// time (max over lanes) with a naive mean-over-lanes account, for the BH
// plans, showing why w-parallel's idle lanes hurt it and why jw-parallel's
// packed walks matter.
func DivergenceAblation(cfg perf.BenchConfig, n int) (string, error) {
	sys := workload(cfg, n)
	model := core.TimeSpaceModel{Dev: cfg.Device}

	t := table.New(
		fmt.Sprintf("Ablation — SIMD divergence accounting (N=%d)", n),
		"plan", "time (lane-max)", "time (lane-mean)", "divergence penalty")
	for _, name := range []string{"w-parallel", "jw-parallel"} {
		plan, err := core.NewPlanByName(name,
			core.WithDevice(cfg.Device), core.WithBHOptions(bhOptions(cfg)))
		if err != nil {
			return "", err
		}
		prof, err := plan.Accel(sys.Clone())
		if err != nil {
			return "", err
		}
		launch := prof.Launches[0]
		g := core.FromResult(name, launch)
		maxSec := model.Analyze(g).PredictedSeconds

		// Mean accounting: pretend lanes share work perfectly within each
		// wavefront.
		var flops, aux float64
		for i := range launch.Groups {
			flops += float64(launch.Groups[i].Flops)
			aux += float64(launch.Groups[i].AuxFlops)
		}
		gMean := g
		gMean.WFMaxIssueTotal = (flops + aux) / float64(cfg.Device.WavefrontSize)
		meanSec := model.Analyze(gMean).PredictedSeconds

		t.AddRow(
			name,
			table.Seconds(maxSec),
			table.Seconds(meanSec),
			fmt.Sprintf("%.2fx", maxSec/meanSec),
		)
	}
	return t.String(), nil
}
