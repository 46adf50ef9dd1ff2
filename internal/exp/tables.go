package exp

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/perf"
	"repro/internal/pp"
	"repro/internal/table"
)

// cpuCapSeconds is the point past which a CPU entry is reported as the
// paper reports it: ">" (too long to run). One hour matches the spirit of
// the paper's truncated rows.
const cpuCapSeconds = 3600.0

// profile returns r's per-evaluation kernel, transfer and host seconds.
func profile(r perf.PlanReport) cl.Profile {
	return cl.Profile{
		KernelSeconds:   r.KernelSeconds,
		TransferSeconds: r.TransferSeconds,
		HostSeconds:     r.HostSeconds,
	}
}

// Table1 renders Table 1: running time of the CPU implementation vs the GPU
// jw-parallel implementation over steps steps, and their ratio. The CPU
// baseline is the paper's: the direct O(N^2) summation on a Pentium 4
// 3.0 GHz (modelled); the GPU column is the full jw pipeline per step
// (host tree/list build + transfers + kernel). The paper reports a speedup
// around 400x.
func Table1(rep *perf.BenchReport, steps int) string {
	cpu := gpusim.PaperCPU()
	t := table.New(
		fmt.Sprintf("Table 1 — running time, CPU vs GPU jw-parallel (%d steps)", steps),
		"N", "CPU (PP)", "GPU (jw)", "speedup")
	for _, n := range rep.Sizes {
		cpuFlops := int64(n) * int64(n) * pp.FlopsPerInteraction * int64(steps)
		cpuSec := cpu.Seconds(cpuFlops)
		gpuSec := profile(report(rep, "jw-parallel", n)).TotalSeconds() * float64(steps)
		cpuCell := table.Seconds(cpuSec)
		if cpuSec > cpuCapSeconds {
			cpuCell = fmt.Sprintf("> %s", table.Seconds(cpuCapSeconds))
		}
		t.AddRow(
			fmt.Sprint(n),
			cpuCell,
			table.Seconds(gpuSec),
			fmt.Sprintf("%.0fx", cpuSec/gpuSec),
		)
	}
	return t.String()
}

// Table2 renders Table 2: *total* time of the four GPU plans over steps
// steps — kernel plus host-device transfers plus host-side tree/list
// construction, i.e. everything a step costs.
func Table2(rep *perf.BenchReport, steps int) string {
	headers := append([]string{"N"}, perf.PlanNames...)
	headers = append(headers, "jw pipelined")
	t := table.New(
		fmt.Sprintf("Table 2 — total time of the GPU plans (%d steps)", steps),
		headers...)
	for _, n := range rep.Sizes {
		row := []string{fmt.Sprint(n)}
		for _, name := range perf.PlanNames {
			row = append(row, table.Seconds(profile(report(rep, name, n)).TotalSeconds()*float64(steps)))
		}
		// The paper's implementation note (4): the CPU builds step t+1's
		// walks while the GPU runs step t, so the steady-state jw step costs
		// max(host, device), not their sum.
		pipelined := profile(report(rep, "jw-parallel", n)).PipelinedSeconds()
		row = append(row, table.Seconds(pipelined*float64(steps)))
		t.AddRow(row...)
	}
	return t.String()
}

// Table3 renders Table 3: *running* (kernel-only) time of the four GPU
// plans over steps steps, plus the jw-parallel advantage over each other
// plan — the paper's 2-5x claim.
func Table3(rep *perf.BenchReport, steps int) string {
	headers := append([]string{"N"}, perf.PlanNames...)
	headers = append(headers, "jw vs w", "jw vs best-PP")
	t := table.New(
		fmt.Sprintf("Table 3 — running (kernel) time of the GPU plans (%d steps)", steps),
		headers...)
	for _, n := range rep.Sizes {
		row := []string{fmt.Sprint(n)}
		var jw, w, bestPP float64
		for _, name := range perf.PlanNames {
			sec := report(rep, name, n).KernelSeconds * float64(steps)
			row = append(row, table.Seconds(sec))
			switch name {
			case "jw-parallel":
				jw = sec
			case "w-parallel":
				w = sec
			case "i-parallel":
				bestPP = sec
			case "j-parallel":
				if sec < bestPP {
					bestPP = sec
				}
			}
		}
		row = append(row,
			fmt.Sprintf("%.1fx", w/jw),
			fmt.Sprintf("%.1fx", bestPP/jw),
		)
		t.AddRow(row...)
	}
	return t.String()
}
