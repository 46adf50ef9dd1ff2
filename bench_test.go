// Package repro's top-level benchmarks regenerate the paper's evaluation
// artifacts under `go test -bench`, one benchmark per table/figure:
//
//	BenchmarkFig4JWParallel   — Figure 4: jw-parallel GFLOPS vs N
//	BenchmarkFig5AllPlans     — Figure 5: all four plans vs N
//	BenchmarkTable1CPUvsGPU   — Table 1: CPU direct sum vs GPU jw pipeline
//	BenchmarkTable2TotalTime  — Table 2: total per-step time of the plans
//	BenchmarkTable3KernelTime — Table 3: kernel-only time of the plans
//
// Each iteration performs one full force evaluation (the unit the paper's
// 100-step tables scale linearly). Wall-clock numbers measure this
// repository's simulator on the host CPU; the paper-comparable quantities
// are the modelled-device metrics reported alongside: model-ms/step (the
// simulated HD 5850 time) and model-GFLOPS.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bh"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/perf"
	"repro/internal/pp"
)

// benchSizes keeps `go test -bench=.` affordable; pass -timeout and edit to
// extend. cmd/experiments runs the paper's full 1K..64K sweep.
var benchSizes = []int{1024, 4096, 8192}

func newPlan(b *testing.B, name string) core.Plan {
	b.Helper()
	plan, err := core.NewPlanByName(name) // default device: the HD5850
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

func benchPlan(b *testing.B, name string, n int, metric func(*core.RunProfile) (float64, string)) {
	plan := newPlan(b, name)
	sys := ic.Plummer(n, 1)
	var last *core.RunProfile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := plan.Accel(sys)
		if err != nil {
			b.Fatal(err)
		}
		last = prof
	}
	b.StopTimer()
	if last != nil {
		v, unit := metric(last)
		b.ReportMetric(v, unit)
		b.ReportMetric(float64(last.Interactions), "interactions/step")
	}
}

func kernelMetrics(prof *core.RunProfile) (float64, string) {
	return prof.KernelGFLOPS(), "model-GFLOPS"
}

func totalMsMetrics(prof *core.RunProfile) (float64, string) {
	return prof.Profile.TotalSeconds() * 1e3, "model-ms/step"
}

func kernelMsMetrics(prof *core.RunProfile) (float64, string) {
	return prof.Profile.KernelSeconds * 1e3, "model-ms/step"
}

// BenchmarkFig4JWParallel regenerates Figure 4's series: jw-parallel
// performance against the number of particles.
func BenchmarkFig4JWParallel(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchPlan(b, "jw-parallel", n, kernelMetrics)
		})
	}
}

// BenchmarkFig5AllPlans regenerates Figure 5's series: every plan's
// performance against the number of particles.
func BenchmarkFig5AllPlans(b *testing.B) {
	for _, name := range perf.PlanNames {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", name, n), func(b *testing.B) {
				benchPlan(b, name, n, kernelMetrics)
			})
		}
	}
}

// BenchmarkTable1CPUvsGPU regenerates Table 1's comparison: the CPU direct
// sum (really executed, wall-clock) against the GPU jw-parallel pipeline
// (simulated device; model-ms reported). The paper's ratio uses the
// modelled Pentium 4; the bench additionally measures this host's real
// scalar loop for an honest wall-clock baseline.
func BenchmarkTable1CPUvsGPU(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("cpu-pp-scalar/N=%d", n), func(b *testing.B) {
			sys := ic.Plummer(n, 1)
			params := pp.DefaultParams()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pp.Scalar(sys, params)
			}
			b.StopTimer()
			m := gpusim.PaperCPU()
			b.ReportMetric(m.Seconds(int64(n)*int64(n)*pp.FlopsPerInteraction)*1e3, "paperP4-ms/step")
		})
		b.Run(fmt.Sprintf("gpu-jw/N=%d", n), func(b *testing.B) {
			benchPlan(b, "jw-parallel", n, totalMsMetrics)
		})
	}
}

// BenchmarkTable2TotalTime regenerates Table 2: total per-step time (host
// build + transfers + kernel) for each plan.
func BenchmarkTable2TotalTime(b *testing.B) {
	for _, name := range perf.PlanNames {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", name, n), func(b *testing.B) {
				benchPlan(b, name, n, totalMsMetrics)
			})
		}
	}
}

// BenchmarkTable3KernelTime regenerates Table 3: kernel-only per-step time
// for each plan.
func BenchmarkTable3KernelTime(b *testing.B) {
	for _, name := range perf.PlanNames {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", name, n), func(b *testing.B) {
				benchPlan(b, name, n, kernelMsMetrics)
			})
		}
	}
}

// BenchmarkCPUBaselines measures the real CPU engines of this repository
// (the substrate the GPU plans are validated against).
func BenchmarkCPUBaselines(b *testing.B) {
	const n = 4096
	sys := ic.Plummer(n, 1)
	params := pp.DefaultParams()

	b.Run("pp-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.Scalar(sys, params)
		}
	})
	b.Run("pp-tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.Tiled(sys, params, 0)
		}
	})
	b.Run("pp-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.Parallel(sys, params, 0)
		}
	})
	b.Run("bh-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bh.Build(sys, bh.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bh-accel", func(b *testing.B) {
		tree, err := bh.Build(sys, bh.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Accel(0)
		}
	})
	b.Run("bh-walks-build", func(b *testing.B) {
		tree, err := bh.Build(sys, bh.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tree.BuildWalks(24); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bh-walks-eval", func(b *testing.B) {
		tree, err := bh.Build(sys, bh.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ws, err := tree.BuildWalks(24)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.Eval()
		}
	})
}

// BenchmarkHostPipeline measures the full step with the pooled host-side
// build path in steady state: the per-plan builder re-stepping the same
// system after a warm-up iteration has sized every arena. ReportAllocs here
// covers the whole step — device simulator included, which allocates by
// design — so it tracks the total allocation budget; the strict 0 allocs/op
// contract on the host build alone is pinned by internal/bh's
// BenchmarkBuilderStep and BenchmarkWalkSetValidate. The host-build-ms
// metric is the measured wall time of the host stage (tree + walks +
// flatten), the quantity BENCH schema v3 tracks per point as hostBuildMs.
func BenchmarkHostPipeline(b *testing.B) {
	for _, name := range []string{"w-parallel", "jw-parallel"} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", name, n), func(b *testing.B) {
				plan := newPlan(b, name)
				sys := ic.Plummer(n, 1)
				// Warm the pooled arenas: the first step sizes every buffer.
				if _, err := plan.Accel(sys); err != nil {
					b.Fatal(err)
				}
				var last *core.RunProfile
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					prof, err := plan.Accel(sys)
					if err != nil {
						b.Fatal(err)
					}
					last = prof
				}
				b.StopTimer()
				if last != nil {
					b.ReportMetric(last.HostBuildSeconds*1e3, "host-build-ms")
				}
			})
		}
	}
}

// BenchmarkEmulatorOverhead isolates the simulator's own cost: an empty
// kernel across many groups, and a barrier-heavy kernel, each written as a
// lane loop and as a PerItem body.
func BenchmarkEmulatorOverhead(b *testing.B) {
	dev := gpusim.MustNewDevice(gpusim.HD5850())
	kernels := []struct {
		name   string
		fn     gpusim.KernelFunc
		params gpusim.LaunchParams
	}{
		{"empty-kernel-256-groups/lanes", func(g *gpusim.Group) {},
			gpusim.LaunchParams{Global: 256 * 64, Local: 64}},
		{"empty-kernel-256-groups/peritem", gpusim.PerItem(func(wi *gpusim.Item) {}),
			gpusim.LaunchParams{Global: 256 * 64, Local: 64}},
		{"barrier-heavy/lanes", func(g *gpusim.Group) {
			for k := 0; k < 32; k++ {
				g.Barrier()
			}
		}, gpusim.LaunchParams{Global: 16 * 64, Local: 64}},
		{"barrier-heavy/peritem", gpusim.PerItem(func(wi *gpusim.Item) {
			for k := 0; k < 32; k++ {
				wi.Barrier()
			}
		}), gpusim.LaunchParams{Global: 16 * 64, Local: 64}},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dev.Launch(k.name, k.fn, k.params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGroupCap sweeps the jw-parallel walk size, the design
// choice DESIGN.md calls out (lane utilisation vs list length).
func BenchmarkAblationGroupCap(b *testing.B) {
	const n = 4096
	for _, gc := range []int{8, 24, 64} {
		b.Run(fmt.Sprintf("groupCap=%d", gc), func(b *testing.B) {
			plan := newPlan(b, "jw-parallel").(*core.JWParallel)
			plan.GroupCap = gc
			sys := ic.Plummer(n, 1)
			var last *core.RunProfile
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prof, err := plan.Accel(sys)
				if err != nil {
					b.Fatal(err)
				}
				last = prof
			}
			b.StopTimer()
			if last != nil {
				b.ReportMetric(last.KernelGFLOPS(), "model-GFLOPS")
			}
		})
	}
}

// BenchmarkAblationLDSStaging compares jw-parallel with and without
// local-memory staging (the j-within-walk idea).
func BenchmarkAblationLDSStaging(b *testing.B) {
	const n = 4096
	for _, disable := range []bool{false, true} {
		name := "staged"
		if disable {
			name = "unstaged"
		}
		b.Run(name, func(b *testing.B) {
			plan := newPlan(b, "jw-parallel").(*core.JWParallel)
			plan.DisableLDSStaging = disable
			sys := ic.Plummer(n, 1)
			var last *core.RunProfile
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prof, err := plan.Accel(sys)
				if err != nil {
					b.Fatal(err)
				}
				last = prof
			}
			b.StopTimer()
			if last != nil {
				b.ReportMetric(last.Profile.KernelSeconds*1e3, "model-ms/step")
			}
		})
	}
}
