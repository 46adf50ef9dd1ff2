package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ic"
	"repro/internal/perf"
	"repro/internal/table"
)

// WorkloadSensitivity runs jw-parallel on qualitatively different mass
// distributions at a fixed N. The paper evaluates on one workload; this
// extension checks the plan's performance is not an artifact of the Plummer
// sphere's central concentration: uniform distributions give shorter
// interaction lists (less depth), cold disks give anisotropic trees, and
// colliding clusters carry two density centres.
func WorkloadSensitivity(cfg perf.BenchConfig, n int) (string, error) {
	t := table.New(
		fmt.Sprintf("Extension — workload sensitivity (jw-parallel, N=%d)", n),
		"workload", "interactions", "inter/body", "kernel time", "GFLOPS")
	workloads := []struct {
		name string
	}{
		{"plummer"}, {"cube"}, {"disk"}, {"collision"},
	}
	for _, wl := range workloads {
		sys := workload(cfg, n)
		switch wl.name {
		case "cube":
			sys = ic.UniformCube(n, 2.0, cfg.Seed)
		case "disk":
			sys = ic.Disk(n, 1.0, cfg.Seed)
		case "collision":
			sys = ic.Collision(n, 4.0, 0.5, cfg.Seed)
		}
		plan, err := core.NewPlanByName("jw-parallel",
			core.WithDevice(cfg.Device), core.WithBHOptions(bhOptions(cfg)))
		if err != nil {
			return "", err
		}
		prof, err := plan.Accel(sys)
		if err != nil {
			return "", fmt.Errorf("exp: workload %s: %w", wl.name, err)
		}
		t.AddRow(
			wl.name,
			table.Count(prof.Interactions),
			fmt.Sprintf("%.0f", float64(prof.Interactions)/float64(n)),
			table.Seconds(prof.Profile.KernelSeconds),
			table.GFLOPS(prof.KernelGFLOPS()),
		)
	}
	return t.String(), nil
}
