package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bh"
	"repro/internal/gpusim"
	"repro/internal/ic"
)

// TestAnalyticMatchesMeasuredPP cross-checks the PTPM's closed-form PP
// mappings against actual instrumented launches: this is the property that
// makes the model predictive rather than descriptive.
func TestAnalyticMatchesMeasuredPP(t *testing.T) {
	dev := gpusim.HD5850()
	model := TimeSpaceModel{Dev: dev}
	for _, n := range []int{1024, 4096} {
		sys := ic.Plummer(n, 1)
		ctx := newHD5850Context(t)

		ip := planOn[*IParallel](t, ctx, "i-parallel")
		prof, err := ip.Accel(sys.Clone())
		if err != nil {
			t.Fatal(err)
		}
		measured := prof.Profile.KernelSeconds
		predicted := model.Analyze(DescribeIParallel(n, ip.GroupSize)).PredictedSeconds
		if r := predicted / measured; r < 0.8 || r > 1.25 {
			t.Errorf("i-parallel n=%d: predicted %g vs measured %g (ratio %g)",
				n, predicted, measured, r)
		}

		jp := planOn[*JParallel](t, ctx, "j-parallel")
		prof, err = jp.Accel(sys.Clone())
		if err != nil {
			t.Fatal(err)
		}
		measured = prof.Profile.KernelSeconds
		predicted = model.Analyze(DescribeJParallel(n, jp.GroupSize)).PredictedSeconds
		if r := predicted / measured; r < 0.7 || r > 1.4 {
			t.Errorf("j-parallel n=%d: predicted %g vs measured %g (ratio %g)",
				n, predicted, measured, r)
		}
	}
}

// TestAnalyticMatchesMeasuredBH does the same for the walk-based plans,
// with wider tolerance: the analytic mapping only knows mean list lengths.
func TestAnalyticMatchesMeasuredBH(t *testing.T) {
	dev := gpusim.HD5850()
	model := TimeSpaceModel{Dev: dev}
	n := 8192
	sys := ic.Plummer(n, 2)
	ctx := newHD5850Context(t)

	opt := bh.DefaultOptions()
	jw := planOn[*JWParallel](t, ctx, "jw-parallel", WithBHOptions(opt))
	prof, err := jw.Accel(sys.Clone())
	if err != nil {
		t.Fatal(err)
	}

	// Build the workload summary the analytic mapping needs.
	o := opt
	if o.LeafCap > jw.GroupCap {
		o.LeafCap = jw.GroupCap
	}
	tree, err := bh.Build(sys.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := tree.BuildWalks(jw.GroupCap)
	if err != nil {
		t.Fatal(err)
	}
	_, _, meanList, _ := ws.ListStats()
	var totalList float64
	for i := range ws.Walks {
		totalList += float64(ws.Walks[i].ListLen())
	}
	w := BHWorkload{
		NumWalks:      len(ws.Walks),
		MeanBodies:    ws.MeanBodies(),
		MeanListLen:   meanList,
		TotalListLen:  totalList,
		TotalInterset: float64(ws.Interactions()),
	}
	numQueues := dev.ComputeUnits * dev.MaxGroupsPerCU
	predicted := model.Analyze(DescribeJWParallel(w, jw.LocalSize, numQueues)).PredictedSeconds
	measured := prof.Profile.KernelSeconds
	if r := predicted / measured; r < 0.5 || r > 2 {
		t.Errorf("jw-parallel: predicted %g vs measured %g (ratio %g)", predicted, measured, r)
	}

	wp := planOn[*WParallel](t, ctx, "w-parallel", WithBHOptions(opt))
	prof, err = wp.Accel(sys.Clone())
	if err != nil {
		t.Fatal(err)
	}
	treeW, err := bh.Build(sys.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	wsW, err := treeW.BuildWalks(wp.GroupCap)
	if err != nil {
		t.Fatal(err)
	}
	_, _, meanListW, _ := wsW.ListStats()
	var totalListW float64
	for i := range wsW.Walks {
		totalListW += float64(wsW.Walks[i].ListLen())
	}
	wW := BHWorkload{
		NumWalks:      len(wsW.Walks),
		MeanBodies:    wsW.MeanBodies(),
		MeanListLen:   meanListW,
		TotalListLen:  totalListW,
		TotalInterset: float64(wsW.Interactions()),
	}
	predicted = model.Analyze(DescribeWParallel(wW, wp.LocalSize)).PredictedSeconds
	measured = prof.Profile.KernelSeconds
	if r := predicted / measured; r < 0.5 || r > 2 {
		t.Errorf("w-parallel: predicted %g vs measured %g (ratio %g)", predicted, measured, r)
	}
}

// TestFromResultRoundTrip verifies that analysing a measured launch with
// the model reproduces the simulator's own timing (they share formulas).
func TestFromResultRoundTrip(t *testing.T) {
	dev := gpusim.HD5850()
	model := TimeSpaceModel{Dev: dev}
	ctx := newHD5850Context(t)
	sys := ic.Plummer(2048, 3)

	for _, mk := range []func() Plan{
		func() Plan { return planOn[*IParallel](t, ctx, "i-parallel") },
		func() Plan { return planOn[*JParallel](t, ctx, "j-parallel") },
	} {
		plan := mk()
		prof, err := plan.Accel(sys.Clone())
		if err != nil {
			t.Fatal(err)
		}
		launch := prof.Launches[0]
		a := model.Analyze(FromResult(plan.Name(), launch))
		// Uniform kernels: the per-average-group analysis must reproduce
		// the scheduler's makespan closely.
		r := a.PredictedSeconds / launch.Timing.KernelSeconds
		if r < 0.9 || r > 1.1 {
			t.Errorf("%s: round-trip ratio %g", plan.Name(), r)
		}
	}
}

func TestAnalyzeDegenerate(t *testing.T) {
	model := TimeSpaceModel{Dev: gpusim.HD5850()}
	a := model.Analyze(GridMapping{})
	if a.PredictedSeconds != 0 || a.PredictedGFLOPS != 0 {
		t.Errorf("empty mapping predicted %+v", a)
	}
}

func TestAnalysisOccupancyBehaviour(t *testing.T) {
	model := TimeSpaceModel{Dev: gpusim.HD5850()}
	// i-parallel at tiny N: starved; at large N: saturated.
	small := model.Analyze(DescribeIParallel(512, 256))
	large := model.Analyze(DescribeIParallel(65536, 256))
	if small.PredictedGFLOPS >= large.PredictedGFLOPS {
		t.Errorf("i-parallel small-N %g GF not below large-N %g GF",
			small.PredictedGFLOPS, large.PredictedGFLOPS)
	}
	// j-parallel should beat i-parallel at 512 and lose at 65536.
	jSmall := model.Analyze(DescribeJParallel(512, 64))
	jLarge := model.Analyze(DescribeJParallel(65536, 64))
	if jSmall.PredictedGFLOPS <= small.PredictedGFLOPS {
		t.Errorf("j-parallel (%g) not ahead of i-parallel (%g) at N=512",
			jSmall.PredictedGFLOPS, small.PredictedGFLOPS)
	}
	if jLarge.PredictedGFLOPS >= large.PredictedGFLOPS {
		t.Errorf("j-parallel (%g) not behind i-parallel (%g) at N=65536",
			jLarge.PredictedGFLOPS, large.PredictedGFLOPS)
	}
	// j-parallel is memory-bound at large N — the model's stated reason.
	if jLarge.Bound != "mem" {
		t.Errorf("j-parallel large-N bound = %q, want mem", jLarge.Bound)
	}
	if large.Bound != "alu" {
		t.Errorf("i-parallel large-N bound = %q, want alu", large.Bound)
	}
}

func TestReportRenders(t *testing.T) {
	model := TimeSpaceModel{Dev: gpusim.HD5850()}
	out := Report(
		model.Analyze(DescribeIParallel(4096, 256)),
		model.Analyze(DescribeJParallel(4096, 64)),
	)
	for _, want := range []string{"i-parallel", "j-parallel", "bound", "occALU"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("report has %d lines, want 3", lines)
	}
}

func TestKindString(t *testing.T) {
	if KindPP.String() != "PP" || KindBH.String() != "BH" {
		t.Error("Kind strings wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestRunProfileRates(t *testing.T) {
	rp := &RunProfile{Flops: 2e9}
	rp.Profile.KernelSeconds = 1
	rp.Profile.TransferSeconds = 1
	if g := rp.KernelGFLOPS(); math.Abs(g-2) > 1e-12 {
		t.Errorf("KernelGFLOPS = %g", g)
	}
	if g := rp.TotalGFLOPS(); math.Abs(g-1) > 1e-12 {
		t.Errorf("TotalGFLOPS = %g", g)
	}
	var zero RunProfile
	if zero.KernelGFLOPS() != 0 || zero.TotalGFLOPS() != 0 {
		t.Error("zero profile rates not zero")
	}
}
