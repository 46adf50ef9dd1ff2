package exp

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/fmm"
	"repro/internal/gpusim"
	"repro/internal/perf"
	"repro/internal/pp"
	"repro/internal/table"
)

// Algorithms compares the three force algorithms the paper surveys in its
// Section 2 — the O(N^2) particle-particle method, the O(N log N)
// Barnes-Hut treecode and the O(N) fast-multipole-style dual-tree method —
// on interaction counts, modelled paper-era CPU time and force accuracy.
// It grounds the paper's premise: the treecode family is what makes large N
// feasible, and the GPU plans are about executing it fast.
func Algorithms(cfg perf.BenchConfig, sizes []int) (string, error) {
	cpu := gpusim.PaperCPU()
	t := table.New(
		"Extension — algorithm comparison on the modelled CPU ("+cpu.Name+")",
		"N", "algorithm", "interactions", "CPU time/step", "RMS force err")
	for _, n := range sizes {
		sys := workload(cfg, n)
		exact := sys.Clone()
		pp.Scalar(exact, ppParams(cfg))

		// PP: exact by construction.
		ppInter := int64(n) * int64(n)
		t.AddRow(
			fmt.Sprint(n), "PP (direct)",
			table.Count(ppInter),
			table.Seconds(cpu.Seconds(ppInter*pp.FlopsPerInteraction)),
			"0 (exact)",
		)

		// Barnes-Hut per-body walks.
		bhSys := sys.Clone()
		tree, err := bh.Build(bhSys, bhOptions(cfg))
		if err != nil {
			return "", err
		}
		st := tree.Accel(0)
		t.AddRow(
			"", "Barnes-Hut",
			table.Count(st.Interactions),
			table.Seconds(cpu.Seconds(st.Flops())),
			fmt.Sprintf("%.1e", pp.RMSRelError(exact.Acc, bhSys.Acc, 1e-3)),
		)

		// Dual-tree (FMM-style).
		fmmSys := sys.Clone()
		tree2, err := bh.Build(fmmSys, bhOptions(cfg))
		if err != nil {
			return "", err
		}
		fst, err := fmm.Accel(tree2, fmmSys)
		if err != nil {
			return "", err
		}
		t.AddRow(
			"", "FMM (dual-tree)",
			table.Count(fst.Interactions()),
			table.Seconds(cpu.Seconds(fst.Interactions()*pp.FlopsPerInteraction)),
			fmt.Sprintf("%.1e", pp.RMSRelError(exact.Acc, fmmSys.Acc, 1e-3)),
		)
	}
	return t.String(), nil
}
