// Package exp regenerates every figure and table of the paper's evaluation
// (Section 5): Figure 4 (jw-parallel GFLOPS vs N), Figure 5 (all four plans
// vs N), Table 1 (CPU vs GPU running time over 100 steps), Table 2 (total
// time of the four GPU plans) and Table 3 (kernel-only running time of the
// four GPU plans) — plus the ablations DESIGN.md calls out. The figures and
// tables render a perf.BenchReport: the sweep is perf.RunBench's.
//
// All times are the simulator's modelled times for the paper's hardware (an
// AMD Radeon HD 5850 and a Pentium 4 3.0 GHz host); kernels really execute
// and their outputs are validated elsewhere, so the harness measures real
// counted work priced by a calibrated cost model. EXPERIMENTS.md records
// paper-vs-measured for every row.
package exp

import (
	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/perf"
	"repro/internal/pp"
)

// PaperConfig returns the paper's sweep: the four plans over N from 1K to
// 64K on the HD 5850 model, one timed evaluation per point. The tables
// scale that one evaluation by their step count (one force evaluation per
// leapfrog step).
func PaperConfig() perf.BenchConfig {
	c := perf.DefaultBenchConfig()
	c.Sizes = []int{1024, 2048, 4096, 8192, 16384, 32768, 65536}
	c.Repeats = 1
	c.Hermite = false
	return c
}

func ppParams(cfg perf.BenchConfig) pp.Params { return pp.Params{G: 1, Eps: cfg.Eps} }

func bhOptions(cfg perf.BenchConfig) bh.Options {
	o := bh.DefaultOptions()
	o.Theta = cfg.Theta
	o.Eps = cfg.Eps
	return o
}

func workload(cfg perf.BenchConfig, n int) *body.System { return ic.Plummer(n, cfg.Seed) }
