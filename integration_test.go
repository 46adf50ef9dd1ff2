package repro

import (
	"testing"

	"repro/internal/bh"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/pp"
	"repro/internal/sim"
)

// TestEndToEndSimulationEveryEngine drives every engine — the two CPU
// references and the four simulated-GPU plans — through a short leapfrog
// integration of the same Plummer sphere and checks that all of them
// conserve energy, the whole-stack property the paper's system must have to
// be usable for actual simulation.
func TestEndToEndSimulationEveryEngine(t *testing.T) {
	const (
		n     = 512
		steps = 25
		dt    = 0.01
	)
	initial := ic.Plummer(n, 2026)
	params := pp.DefaultParams()
	opt := bh.DefaultOptions()

	engines := map[string]func() (sim.Engine, error){
		"cpu-pp": func() (sim.Engine, error) { return &sim.DirectEngine{Params: params}, nil },
		"cpu-bh": func() (sim.Engine, error) { return &sim.TreeEngine{Opt: opt}, nil },
	}
	for _, name := range []string{"i-parallel", "j-parallel", "w-parallel", "jw-parallel"} {
		name := name
		engines[name] = func() (sim.Engine, error) {
			return core.NewEngineByName(name, core.WithPPParams(params), core.WithBHOptions(opt))
		}
	}

	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			eng, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			sys := initial.Clone()
			snaps, err := sim.Run(sys, eng, &integrate.Leapfrog{}, sim.Config{
				DT: dt, Steps: steps, SnapshotEvery: 5, G: 1, Eps: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			if drift := sim.EnergyDrift(snaps); drift > 5e-3 {
				t.Errorf("energy drift %g over %d steps", drift, steps)
			}
			if err := sys.Validate(); err != nil {
				t.Errorf("final state invalid: %v", err)
			}
			if p := sys.Momentum(); p.Norm() > 1e-2 {
				t.Errorf("momentum drift %v", p)
			}
		})
	}
}

// TestGPUPlansTrackCPUTrajectories integrates the same system with the CPU
// direct sum and the i-parallel plan (identical arithmetic grids) and
// demands closely matching trajectories — a stronger statement than
// per-step force agreement.
func TestGPUPlansTrackCPUTrajectories(t *testing.T) {
	const (
		n     = 256
		steps = 50
		dt    = 0.005
	)
	initial := ic.Plummer(n, 7)
	params := pp.DefaultParams()

	cpu := initial.Clone()
	if _, err := sim.Run(cpu, &sim.DirectEngine{Params: params, Workers: 1}, &integrate.Leapfrog{},
		sim.Config{DT: dt, Steps: steps, G: 1, Eps: 0.05}); err != nil {
		t.Fatal(err)
	}

	eng, err := core.NewEngineByName("i-parallel", core.WithPPParams(params))
	if err != nil {
		t.Fatal(err)
	}
	gpu := initial.Clone()
	if _, err := sim.Run(gpu, eng, &integrate.Leapfrog{},
		sim.Config{DT: dt, Steps: steps, G: 1, Eps: 0.05}); err != nil {
		t.Fatal(err)
	}

	var worst float64
	for i := range cpu.Pos {
		if d := float64(cpu.Pos[i].Sub(gpu.Pos[i]).Norm()); d > worst {
			worst = d
		}
	}
	// The i-parallel kernel sums the identical interaction sequence, so
	// trajectories agree to float32 round-off growth, far below any
	// physical scale.
	if worst > 1e-4 {
		t.Errorf("max trajectory divergence %g", worst)
	}
}

// TestExperimentHarnessSmoke runs a tiny sweep end-to-end, as the CLI
// would, ensuring the whole evaluation path stays wired together.
func TestExperimentHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep is slow")
	}
	cfg := exp.QuickConfig()
	cfg.Sizes = []int{512, 1024}
	sw, err := exp.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig4":   exp.Fig4(sw),
		"fig5":   exp.Fig5(sw),
		"table1": exp.Table1(sw),
		"table2": exp.Table2(sw),
		"table3": exp.Table3(sw),
	} {
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short render:\n%s", name, out)
		}
	}
}
