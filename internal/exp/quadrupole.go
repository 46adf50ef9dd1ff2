package exp

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/perf"
	"repro/internal/pp"
	"repro/internal/table"
)

// QuadrupoleSweep compares the monopole treecode (the paper's order) with
// the quadrupole-corrected extension across opening angles: the accuracy an
// expansion order buys at fixed theta, and equivalently how much theta (and
// therefore work) the higher order lets a simulation give back at fixed
// accuracy.
func QuadrupoleSweep(cfg perf.BenchConfig, n int, thetas []float32) (string, error) {
	sys := workload(cfg, n)
	exact := sys.Clone()
	pp.Scalar(exact, ppParams(cfg))

	t := table.New(
		fmt.Sprintf("Extension — expansion order (CPU treecode, N=%d)", n),
		"theta", "interactions", "mono RMS err", "quad RMS err", "quad gain")
	for _, theta := range thetas {
		opt := bhOptions(cfg)
		opt.Theta = theta

		mono := sys.Clone()
		treeM, err := bh.Build(mono, opt)
		if err != nil {
			return "", err
		}
		st := treeM.Accel(0)
		errM := pp.RMSRelError(exact.Acc, mono.Acc, 1e-3)

		quad := sys.Clone()
		treeQ, err := bh.Build(quad, opt)
		if err != nil {
			return "", err
		}
		treeQ.ComputeQuadrupoles()
		treeQ.AccelQuad()
		errQ := pp.RMSRelError(exact.Acc, quad.Acc, 1e-3)

		t.AddRow(
			fmt.Sprintf("%.2f", theta),
			table.Count(st.Interactions),
			fmt.Sprintf("%.2e", errM),
			fmt.Sprintf("%.2e", errQ),
			fmt.Sprintf("%.1fx", errM/errQ),
		)
	}
	return t.String(), nil
}
