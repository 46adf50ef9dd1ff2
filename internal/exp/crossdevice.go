package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/perf"
	"repro/internal/table"
)

// CrossDevice runs the jw-parallel plan on several simulated devices — the
// paper's HD 5850, its bigger sibling, and a GTX 280-class SIMT part — plus
// the multi-GPU extension, answering the portability question the paper's
// PTPM is meant to answer analytically: how does the same mapping fare on a
// different space axis?
func CrossDevice(cfg perf.BenchConfig, n int) (string, error) {
	sys := workload(cfg, n)

	type entry struct {
		name string
		plan core.Plan
		peak float64
	}
	var entries []entry
	for _, dc := range []gpusim.DeviceConfig{gpusim.HD5850(), gpusim.HD5870(), gpusim.GTX280Class()} {
		p, err := core.NewPlanByName("jw-parallel",
			core.WithDevice(dc), core.WithBHOptions(bhOptions(cfg)))
		if err != nil {
			return "", err
		}
		plan := p.(*core.JWParallel)
		if dc.WavefrontSize < plan.LocalSize {
			// Keep one wavefront per group on narrow-warp devices too; the
			// plan works with any LocalSize >= GroupCap.
			plan.LocalSize = 64
		}
		entries = append(entries, entry{dc.Name, plan, dc.PeakGFLOPS()})
	}
	for _, devices := range []int{2, 4} {
		multi, err := core.NewPlanByName(fmt.Sprintf("jw-parallel-x%d", devices),
			core.WithDevice(gpusim.HD5850()), core.WithBHOptions(bhOptions(cfg)))
		if err != nil {
			return "", err
		}
		entries = append(entries, entry{
			fmt.Sprintf("%d x HD 5850 (multi-GPU extension)", devices),
			multi,
			float64(devices) * gpusim.HD5850().PeakGFLOPS(),
		})
	}

	t := table.New(
		fmt.Sprintf("Extension — jw-parallel across devices (N=%d)", n),
		"device", "peak GF", "kernel time", "GFLOPS", "efficiency")
	for _, e := range entries {
		prof, err := e.plan.Accel(sys.Clone())
		if err != nil {
			return "", fmt.Errorf("exp: %s: %w", e.name, err)
		}
		g := prof.KernelGFLOPS()
		t.AddRow(
			e.name,
			fmt.Sprintf("%.0f", e.peak),
			table.Seconds(prof.Profile.KernelSeconds),
			table.GFLOPS(g),
			fmt.Sprintf("%.0f%%", 100*g/e.peak),
		)
	}
	return t.String(), nil
}
