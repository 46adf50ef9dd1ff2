package core

import (
	"testing"

	"repro/internal/bh"
	"repro/internal/gpusim"
	"repro/internal/ic"
)

func TestTunerRanksConfigurations(t *testing.T) {
	tuner := &Tuner{
		Dev:  gpusim.HD5850(),
		Opt:  bh.DefaultOptions(),
		Host: gpusim.PaperHost(),
	}
	sample := ic.Plummer(8192, 1)
	choices, err := tuner.Tune(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 6*3 {
		t.Fatalf("%d choices, want 18", len(choices))
	}
	// Sorted best-first.
	for i := 1; i < len(choices); i++ {
		if choices[i].PredictedSeconds < choices[i-1].PredictedSeconds {
			t.Fatalf("choices not sorted at %d", i)
		}
	}
	best := choices[0]
	if best.GroupCap <= 0 || best.QueueTarget <= 0 || best.PredictedSeconds <= 0 {
		t.Fatalf("degenerate best choice %+v", best)
	}
	// The model predicts larger walks amortise better on the kernel-only
	// objective (EXPERIMENTS.md discusses why real hardware disagrees past
	// the register-pressure point): the best cap must not be the smallest.
	if best.GroupCap == 8 {
		t.Errorf("tuner picked the smallest walks (%+v)", best)
	}
}

// TestTunerPredictionMatchesExecution checks the tuner's ranking against
// real (simulated) execution for two configurations far apart.
func TestTunerPredictionMatchesExecution(t *testing.T) {
	sample := ic.Plummer(8192, 2)
	tuner := &Tuner{
		Dev:         gpusim.HD5850(),
		Opt:         bh.DefaultOptions(),
		Host:        gpusim.PaperHost(),
		GroupCaps:   []int{8, 48},
		QueueScales: []float64{1},
	}
	choices, err := tuner.Tune(sample)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(c Choice) float64 {
		ctx := newHD5850Context(t)
		plan := planOn[*JWParallel](t, ctx, "jw-parallel")
		c.Apply(plan)
		prof, err := plan.Accel(sample.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return prof.Profile.KernelSeconds
	}
	// The tuner's best of the two candidates must actually run faster.
	best := measure(choices[0])
	worst := measure(choices[len(choices)-1])
	if best >= worst {
		t.Errorf("tuner ranking wrong: predicted-best measured %g, predicted-worst %g", best, worst)
	}
}

func TestTunerValidation(t *testing.T) {
	tuner := &Tuner{Dev: gpusim.HD5850(), Opt: bh.DefaultOptions(), Host: gpusim.PaperHost()}
	if _, err := tuner.Tune(nil); err == nil {
		t.Error("nil sample accepted")
	}
	tuner.GroupCaps = []int{200}
	if _, err := tuner.Tune(ic.Plummer(64, 1)); err == nil {
		t.Error("oversized GroupCap accepted")
	}
}

func TestTunerIncludeHostShiftsOptimum(t *testing.T) {
	// Small walks inflate total list length and therefore host time; with
	// IncludeHost the optimum must not move toward smaller walks.
	sample := ic.Plummer(4096, 3)
	kernelOnly := &Tuner{Dev: gpusim.HD5850(), Opt: bh.DefaultOptions(), Host: gpusim.PaperHost()}
	withHost := &Tuner{Dev: gpusim.HD5850(), Opt: bh.DefaultOptions(), Host: gpusim.PaperHost(), IncludeHost: true}
	a, err := kernelOnly.Tune(sample)
	if err != nil {
		t.Fatal(err)
	}
	b, err := withHost.Tune(sample)
	if err != nil {
		t.Fatal(err)
	}
	if b[0].GroupCap < a[0].GroupCap {
		t.Errorf("IncludeHost moved the optimum to smaller walks: %d -> %d",
			a[0].GroupCap, b[0].GroupCap)
	}
	if b[0].HostSeconds <= 0 {
		t.Error("host seconds missing")
	}
}
