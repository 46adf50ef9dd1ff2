package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/perf"
)

var update = flag.Bool("update", false, "rewrite the render golden file")

// quickSteps is the step count the tests render the tables at.
const quickSteps = 10

// quickConfig is the reduced paper sweep the package's tests share.
func quickConfig() perf.BenchConfig {
	c := PaperConfig()
	c.Sizes = []int{512, 1024, 2048, 4096}
	return c
}

// sharedReport is computed once: the sweep is the expensive part of this
// package's tests.
var sharedReport *perf.BenchReport

func getReport(t *testing.T) *perf.BenchReport {
	t.Helper()
	if sharedReport == nil {
		rep, err := perf.RunBench(quickConfig())
		if err != nil {
			t.Fatalf("RunBench: %v", err)
		}
		sharedReport = rep
	}
	return sharedReport
}

func TestSweepStructure(t *testing.T) {
	rep := getReport(t)
	for _, name := range perf.PlanNames {
		for _, n := range rep.Sizes {
			pt := rep.Point(name, n)
			if pt == nil {
				t.Fatalf("%s N=%d missing", name, n)
			}
			r := pt.Report
			if r.N != n || r.KernelSeconds <= 0 || r.Interactions <= 0 || r.Flops <= 0 {
				t.Errorf("%s N=%d: degenerate report %+v", name, n, r)
			}
			if len(r.Kernels) == 0 {
				t.Errorf("%s N=%d: no kernel detail", name, n)
			}
		}
	}
}

// TestPaperShapeFig4 asserts the Figure 4 criteria from DESIGN.md: a
// monotone-ish rise with saturation, on the reduced sweep.
func TestPaperShapeFig4(t *testing.T) {
	rep := getReport(t)
	first := report(rep, "jw-parallel", rep.Sizes[0]).KernelGFLOPS
	last := report(rep, "jw-parallel", rep.Sizes[len(rep.Sizes)-1]).KernelGFLOPS
	if last <= first {
		t.Errorf("jw GFLOPS not rising: %g .. %g", first, last)
	}
	// At N=4096 the paper is past the knee (>=300 GFLOPS).
	for _, n := range rep.Sizes {
		gf := report(rep, "jw-parallel", n).KernelGFLOPS
		if n == 4096 && gf < 300 {
			t.Errorf("jw at N=4096: %g GFLOPS, want >= 300", gf)
		}
		if gf > 470 {
			t.Errorf("jw at N=%d: %g GFLOPS exceeds the ~431 calibration band", n, gf)
		}
	}
}

// TestPaperShapeFig5 asserts the Figure 5 ordering criteria.
func TestPaperShapeFig5(t *testing.T) {
	rep := getReport(t)
	for _, n := range rep.Sizes {
		jw := report(rep, "jw-parallel", n)
		w := report(rep, "w-parallel", n)

		// jw-parallel leads w- and j-parallel in effective (same-problem)
		// GFLOPS at every size; i-parallel (a well-tuned direct kernel in
		// our model) is only overtaken past the algorithmic crossover at
		// N ~ 10^4 — EXPERIMENTS.md discusses this deviation.
		others := []string{"w-parallel", "j-parallel"}
		if n >= 16384 {
			others = append(others, "i-parallel")
		}
		jwEff := effectiveGFLOPS(jw, jw)
		for _, name := range others {
			other := effectiveGFLOPS(report(rep, name, n), jw)
			if n >= 1024 && jwEff < other {
				t.Errorf("N=%d: jw effective %g below %s %g", n, jwEff, name, other)
			}
		}
		// jw beats w-parallel on raw GFLOPS too (same algorithm family).
		if jw.KernelGFLOPS <= w.KernelGFLOPS {
			t.Errorf("N=%d: jw raw %g not above w %g", n, jw.KernelGFLOPS, w.KernelGFLOPS)
		}
	}
	// j-parallel beats i-parallel at the small end (the chamomile regime)...
	small := rep.Sizes[0]
	if jp, ip := report(rep, "j-parallel", small), report(rep, "i-parallel", small); jp.KernelGFLOPS <= ip.KernelGFLOPS {
		t.Errorf("N=%d: j-parallel %g not above i-parallel %g", small, jp.KernelGFLOPS, ip.KernelGFLOPS)
	}
	// ...and i-parallel wins at the large end.
	large := rep.Sizes[len(rep.Sizes)-1]
	if report(rep, "i-parallel", large).KernelGFLOPS <= report(rep, "j-parallel", large).KernelGFLOPS {
		t.Errorf("i-parallel not ahead of j-parallel at N=%d", large)
	}
}

// TestPaperShapeTable3 asserts the jw-vs-w advantage stays in a plausible
// band (the paper reports 2-5x at its sizes; small N exaggerates it).
func TestPaperShapeTable3(t *testing.T) {
	rep := getReport(t)
	large := rep.Sizes[len(rep.Sizes)-1]
	ratio := report(rep, "w-parallel", large).KernelSeconds / report(rep, "jw-parallel", large).KernelSeconds
	if ratio < 1.5 || ratio > 20 {
		t.Errorf("jw vs w advantage %gx at N=%d out of plausible band", ratio, large)
	}
}

func TestRenderersIncludeAllRows(t *testing.T) {
	rep := getReport(t)
	for name, out := range map[string]string{
		"fig4":   Fig4(rep),
		"fig5":   Fig5(rep),
		"table1": Table1(rep, quickSteps),
		"table2": Table2(rep, quickSteps),
		"table3": Table3(rep, quickSteps),
	} {
		for _, n := range rep.Sizes {
			if !strings.Contains(out, itoa(n)) {
				t.Errorf("%s missing row for N=%d:\n%s", name, n, out)
			}
		}
	}
	if !strings.Contains(Fig5(rep), "jw-parallel") {
		t.Error("fig5 missing plan columns")
	}
	if !strings.Contains(Table1(rep, quickSteps), "speedup") {
		t.Error("table1 missing speedup column")
	}
}

// TestRenderGolden pins the byte-exact render of Figures 4-5 and Tables 1-3
// for the shared quick sweep, in the order cmd/experiments prints them.
// Every cell is a modelled value, so any drift is a cost-model, plan or
// renderer change. Regenerate with:
//
//	go test ./internal/exp -run RenderGolden -update
func TestRenderGolden(t *testing.T) {
	rep := getReport(t)
	var b strings.Builder
	for _, s := range []string{Fig4(rep), Fig5(rep), Table1(rep, quickSteps), Table2(rep, quickSteps), Table3(rep, quickSteps)} {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "render.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("render drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, b.String(), want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestTable1SpeedupGrows(t *testing.T) {
	rep := getReport(t)
	// The CPU is O(N^2) at fixed rate while the GPU pipeline gains
	// efficiency with N, so the speedup must grow along the sweep.
	speedup := func(n int) float64 {
		cpu := gpusim.PaperCPU().Seconds(int64(n) * int64(n) * 38)
		return cpu / profile(report(rep, "jw-parallel", n)).TotalSeconds()
	}
	if speedup(rep.Sizes[len(rep.Sizes)-1]) <= speedup(rep.Sizes[0]) {
		t.Error("speedup does not grow with N")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	cfg := quickConfig()
	n := 2048

	out, err := ThetaSweep(cfg, n, []float32{0.4, 0.8})
	if err != nil || !strings.Contains(out, "theta") {
		t.Fatalf("ThetaSweep: %v\n%s", err, out)
	}
	out, err = GroupCapSweep(cfg, n, []int{16, 48})
	if err != nil || !strings.Contains(out, "groupCap") {
		t.Fatalf("GroupCapSweep: %v\n%s", err, out)
	}
	out, err = StagingAblation(cfg, []int{1024, 2048})
	if err != nil || !strings.Contains(out, "staging gain") {
		t.Fatalf("StagingAblation: %v\n%s", err, out)
	}
	out, err = OccupancyAblation(cfg, []int{512, 2048})
	if err != nil || !strings.Contains(out, "GFLOPS") {
		t.Fatalf("OccupancyAblation: %v\n%s", err, out)
	}
	out, err = DivergenceAblation(cfg, n)
	if err != nil || !strings.Contains(out, "divergence penalty") {
		t.Fatalf("DivergenceAblation: %v\n%s", err, out)
	}
}

// TestThetaTradeoffDirection checks the ablation's physics: larger theta
// means fewer interactions and more error.
func TestThetaTradeoffDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := quickConfig()
	out, err := ThetaSweep(cfg, 2048, []float32{0.3, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("unexpected output:\n%s", out)
	}
	row1 := strings.Fields(lines[2])
	row2 := strings.Fields(lines[3])
	// interactions column (index 1, with commas stripped).
	i1 := strings.ReplaceAll(row1[1], ",", "")
	i2 := strings.ReplaceAll(row2[1], ",", "")
	if len(i2) >= len(i1) && i2 >= i1 {
		t.Errorf("theta=0.9 interactions (%s) not below theta=0.3 (%s)", i2, i1)
	}
}
