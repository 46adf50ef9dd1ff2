package repro

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/perf"
	"repro/internal/pp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vec"
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
	cfg := exp.PaperConfig()
	cfg.Sizes = []int{512, 1024}
	rep, err := perf.RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 10
	for name, out := range map[string]string{
		"fig4":   exp.Fig4(rep),
		"fig5":   exp.Fig5(rep),
		"table1": exp.Table1(rep, steps),
		"table2": exp.Table2(rep, steps),
		"table3": exp.Table3(rep, steps),
	} {
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short render:\n%s", name, out)
		}
	}
}

// TestCommittedBenchDocumentsAreCurrent reads every BENCH document in the
// repository root with the reader the baseline gate uses, so a committed file
// in an older layout fails go test, not a later bench -baseline run. The
// committed baseline and the paper sweep must also agree, leaf for leaf, on
// every point they share: both are serial sweeps of the same plans, so a
// modelled number regenerated in one and not the other fails here.
func TestCommittedBenchDocumentsAreCurrent(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(paths, "sweep_data.json") {
		if _, err := perf.ReadBenchReport(path); err != nil {
			t.Error(err)
		}
	}
	baseline, err := perf.ReadBenchReport("BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := perf.ReadBenchReport("sweep_data.json")
	if err != nil {
		t.Fatal(err)
	}
	common := 0
	for _, pt := range sweep.Points {
		if baseline.Point(pt.Plan, pt.N) != nil {
			common++
		}
	}
	if common == 0 {
		t.Fatal("BENCH_BASELINE.json and sweep_data.json share no (plan, N) point")
	}
	diffs, _, err := perf.Compare(baseline, sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("BENCH_BASELINE.json vs sweep_data.json: %s", d)
	}
	t.Logf("%d common points, %d differing modelled leaves", common, len(diffs))
}

// TestPlansMatchReferencesOnEveryScenario checks every Go plan against its
// CPU reference on every named scenario, not just Plummer. i-parallel must
// equal pp.Scalar bit for bit, and the tree plans must equal bh.WalkSet.Eval
// of walks built at the plan's GroupCap bit for bit. j-parallel's strided
// partial sums reorder the sum, so it gets a 1e-5 relative bound. A check of
// kernel against reference cannot catch an edit made the same way to both,
// so pp.Scalar's own accelerations are pinned per (scenario, N) as FNV-1a 64
// over their float32 bits.
func TestPlansMatchReferencesOnEveryScenario(t *testing.T) {
	scalarHash := map[string]uint64{
		"plummer/64":     0xcc36c61d77aa8e05,
		"plummer/333":    0x4bfca555d1489b27,
		"plummer/1000":   0xa8d4dfbce2a2f43f,
		"hernquist/64":   0x4b9c6e70e6c91de4,
		"hernquist/333":  0xdf1df22bbd9266df,
		"hernquist/1000": 0x90aaf2671a37434e,
		"cube/64":        0x8e971308772c145a,
		"cube/333":       0xd618446008d2cd86,
		"cube/1000":      0x60adbfe49f78e163,
		"disk/64":        0x9356167db54328c2,
		"disk/333":       0x27e35f444a292b6e,
		"disk/1000":      0x99c2ac26cf58632f,
		"collision/64":   0x5562428091018ae2,
		"collision/333":  0xec4e6028237ed8f4,
		"collision/1000": 0x2e5b20074e1f7638,
	}
	params := pp.DefaultParams()
	opt := bh.DefaultOptions()
	for _, scenario := range sim.ScenarioNames() {
		for _, n := range []int{64, 333, 1000} {
			key := fmt.Sprintf("%s/%d", scenario, n)
			spec := serve.JobSpec{Scenario: &serve.ScenarioSpec{Name: scenario, N: n, Seed: 3}}
			sys, err := spec.System()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			want := sys.Clone()
			pp.Scalar(want, params)
			if h := accHash(want.Acc); h != scalarHash[key] {
				t.Errorf("%s: pp.Scalar hash %#016x, want %#016x (reference forces changed)", key, h, scalarHash[key])
			}

			for _, name := range []string{"i-parallel", "j-parallel", "w-parallel", "jw-parallel", "jw-parallel-x2"} {
				plan, err := core.NewPlanByName(name)
				if err != nil {
					t.Fatal(err)
				}
				got := sys.Clone()
				if _, err := plan.Accel(got); err != nil {
					t.Fatalf("%s %s: %v", key, name, err)
				}
				switch p := plan.(type) {
				case *core.IParallel:
					requireEqualAcc(t, key+" "+name+" vs pp.Scalar", want.Acc, got.Acc)
				case *core.JParallel:
					if e := pp.MaxRelError(want.Acc, got.Acc, 1e-3); e > 1e-5 {
						t.Errorf("%s %s: max rel error %g vs pp.Scalar", key, name, e)
					}
				case *core.WParallel:
					requireEqualAcc(t, key+" "+name+" vs walk eval", walkEval(t, sys, opt, p.GroupCap), got.Acc)
				case *core.JWParallel:
					requireEqualAcc(t, key+" "+name+" vs walk eval", walkEval(t, sys, opt, p.GroupCap), got.Acc)
				case *core.MultiJW:
					requireEqualAcc(t, key+" "+name+" vs walk eval", walkEval(t, sys, opt, p.GroupCap), got.Acc)
				default:
					t.Fatalf("%s: no reference for plan type %T", name, plan)
				}
			}
		}
	}
}

// walkEval returns bh.WalkSet.Eval's accelerations for sys, with the walks
// built as a tree plan builds them: leaves no larger than groupCap, walks of
// at most groupCap bodies.
func walkEval(t *testing.T, sys *body.System, opt bh.Options, groupCap int) []vec.V3 {
	t.Helper()
	opt.LeafCap = min(opt.LeafCap, groupCap)
	s := sys.Clone()
	tree, err := bh.Build(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := tree.BuildWalks(groupCap)
	if err != nil {
		t.Fatal(err)
	}
	ws.Eval()
	return s.Acc
}

// requireEqualAcc fails unless got equals want bit for bit.
func requireEqualAcc(t *testing.T, what string, want, got []vec.V3) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: body %d: %v, want %v", what, i, got[i], want[i])
		}
	}
}

// accHash is FNV-1a 64 over the little-endian float32 bits of acc in body
// order, the hash TestPlansBitwiseGolden pins.
func accHash(acc []vec.V3) uint64 {
	const offset64, prime64 = 0xcbf29ce484222325, 0x1099511628211
	h := uint64(offset64)
	for _, a := range acc {
		for _, f := range [3]float32{a.X, a.Y, a.Z} {
			bits := math.Float32bits(f)
			for s := 0; s < 32; s += 8 {
				h ^= uint64(byte(bits >> s))
				h *= prime64
			}
		}
	}
	return h
}
