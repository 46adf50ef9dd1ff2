package exp

import (
	"fmt"
	"strings"

	"repro/internal/perf"
	"repro/internal/table"
)

// report returns the perf report of the (plan, n) point: the exact modelled
// values of its timed evaluation.
func report(rep *perf.BenchReport, plan string, n int) perf.PlanReport {
	return rep.Point(plan, n).Report
}

// effectiveGFLOPS normalises r by the jw-parallel flop count at the same N:
// useful work per second on the *same physical problem*, which is the fair
// cross-algorithm comparison (a PP plan does N^2 work where the treecode
// does far less).
func effectiveGFLOPS(r, jw perf.PlanReport) float64 {
	return float64(jw.Flops) / r.KernelSeconds / 1e9
}

// Fig4 renders Figure 4: jw-parallel performance (GFLOPS) against the
// number of particles. The paper reports ~300 GFLOPS sustained from
// N = 4096 and a peak around 431 GFLOPS on the HD 5850.
func Fig4(rep *perf.BenchReport) string {
	t := table.New("Figure 4 — jw-parallel performance vs number of particles "+
		"(device: "+rep.DeviceModel.Name+")",
		"N", "GFLOPS", "kernel time", "interactions", "inter/body")
	var jw []perf.PlanReport
	for _, n := range rep.Sizes {
		r := report(rep, "jw-parallel", n)
		jw = append(jw, r)
		t.AddRow(
			fmt.Sprint(n),
			table.GFLOPS(r.KernelGFLOPS),
			table.Seconds(r.KernelSeconds),
			table.Count(r.Interactions),
			fmt.Sprintf("%.0f", float64(r.Interactions)/float64(n)),
		)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(sparkline("jw-parallel GFLOPS", jw, func(r perf.PlanReport) float64 {
		return r.KernelGFLOPS
	}))
	return b.String()
}

// Fig5 renders Figure 5: performance of all four plans against the number
// of particles. Two series are reported per plan:
//
//   - "raw" GFLOPS: the plan's own executed flops over kernel time — how
//     fast the hardware runs the plan's arithmetic;
//   - "effective" GFLOPS: the jw-parallel flop count at the same N over the
//     plan's kernel time — useful work per second on the same physical
//     problem, the basis on which the paper's jw-parallel is 2-5x ahead
//     (the PP plans execute N^2 interactions where the treecode needs far
//     fewer, so their raw rate overstates them).
func Fig5(rep *perf.BenchReport) string {
	raw := table.New("Figure 5 — plan performance vs number of particles (raw GFLOPS: own flops / kernel time)",
		append([]string{"N"}, perf.PlanNames...)...)
	eff := table.New("Figure 5 (effective GFLOPS: same-problem useful flops / kernel time)",
		append([]string{"N"}, perf.PlanNames...)...)
	for _, n := range rep.Sizes {
		jw := report(rep, "jw-parallel", n)
		rawRow := []string{fmt.Sprint(n)}
		effRow := []string{fmt.Sprint(n)}
		for _, name := range perf.PlanNames {
			r := report(rep, name, n)
			rawRow = append(rawRow, table.GFLOPS(r.KernelGFLOPS))
			effRow = append(effRow, table.GFLOPS(effectiveGFLOPS(r, jw)))
		}
		raw.AddRow(rawRow...)
		eff.AddRow(effRow...)
	}
	return raw.String() + "\n" + eff.String()
}

// sparkline renders a crude textual plot of a series, enough to see the
// knee and saturation of Figure 4 in a terminal.
func sparkline(label string, pts []perf.PlanReport, f func(perf.PlanReport) float64) string {
	if len(pts) == 0 {
		return ""
	}
	var maxV float64
	for _, p := range pts {
		if v := f(p); v > maxV {
			maxV = v
		}
	}
	if maxV <= 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (each # = %.0f):\n", label, maxV/50)
	for _, p := range pts {
		n := int(f(p) / maxV * 50)
		fmt.Fprintf(&b, "%8d | %s %.1f\n", p.N, strings.Repeat("#", n), f(p))
	}
	return b.String()
}
