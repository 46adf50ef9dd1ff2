package perf

import (
	"strings"
	"testing"

	"repro/internal/gpusim"
)

// launchResult runs a tiny ALU-heavy kernel on the test device and returns
// its result, so the roofline test exercises a real cost-model output.
func launchResult(t *testing.T, flopsPerItem int, bytesPerItem int) *gpusim.Result {
	t.Helper()
	dev := gpusim.MustNewDevice(gpusim.TestDevice())
	buf := dev.NewBufferF32("x", 64)
	res, err := dev.Launch("test.kernel", gpusim.PerItem(func(wi *gpusim.Item) {
		for b := 0; b < bytesPerItem/4; b++ {
			wi.LoadGlobalF32(buf, wi.GlobalID()%64)
		}
		wi.Flops(flopsPerItem)
	}), gpusim.LaunchParams{Global: 64, Local: 8})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return res
}

func TestRooflineComputeBound(t *testing.T) {
	cfg := gpusim.TestDevice()
	// Very high arithmetic intensity: 10k flops per 4 bytes read.
	res := launchResult(t, 10000, 4)
	k := Roofline(cfg, res)

	if k.Kernel != "test.kernel" || k.Groups != 8 || k.LocalSize != 8 {
		t.Fatalf("identity fields wrong: %+v", k)
	}
	if k.Flops != 64*10000 {
		t.Errorf("flops = %d, want %d", k.Flops, 64*10000)
	}
	if k.BytesCoalesced != 64*4 || k.BytesScattered != 0 {
		t.Errorf("bytes = %d/%d, want 256/0", k.BytesCoalesced, k.BytesScattered)
	}
	if !near(k.ArithmeticIntensity, 10000.0/4) {
		t.Errorf("AI = %g, want 2500", k.ArithmeticIntensity)
	}
	if k.RooflineBound != "compute" {
		t.Errorf("bound = %q, want compute", k.RooflineBound)
	}
	if k.PeakGFLOPS != cfg.PeakGFLOPS() {
		t.Errorf("peak = %g, want %g", k.PeakGFLOPS, cfg.PeakGFLOPS())
	}
	if k.AchievedGFLOPS <= 0 || k.AchievedGFLOPS > k.PeakGFLOPS {
		t.Errorf("achieved %g out of (0, peak %g]", k.AchievedGFLOPS, k.PeakGFLOPS)
	}
	if k.RooflineEfficiency <= 0 || k.RooflineEfficiency > 1 {
		t.Errorf("efficiency %g out of (0,1]", k.RooflineEfficiency)
	}
	if k.Occupancy <= 0 || k.Occupancy > 1 {
		t.Errorf("occupancy %g out of (0,1]", k.Occupancy)
	}
	// 8 groups on a 4-CU test device: every CU active, fill bounded by
	// per-CU occupancy.
	if k.ComputeUnits != cfg.ComputeUnits || k.ActiveCUs != cfg.ComputeUnits {
		t.Errorf("active CUs = %d/%d, want all %d", k.ActiveCUs, k.ComputeUnits, cfg.ComputeUnits)
	}
	if k.DeviceFill <= 0 || k.DeviceFill > k.Occupancy+1e-12 {
		t.Errorf("device fill %g out of (0, occupancy %g]", k.DeviceFill, k.Occupancy)
	}
	if !strings.Contains(k.String(), "test.kernel") {
		t.Errorf("String() = %q", k.String())
	}
}

func TestRooflineMemoryBound(t *testing.T) {
	cfg := gpusim.TestDevice()
	// One flop per 400 bytes: far below the machine-balance intensity.
	res := launchResult(t, 1, 400)
	k := Roofline(cfg, res)
	if k.RooflineBound != "memory" {
		t.Fatalf("bound = %q, want memory (AI=%g, mem roof %g, peak %g)",
			k.RooflineBound, k.ArithmeticIntensity, k.MemoryRoofGFLOPS, k.PeakGFLOPS)
	}
	if k.RooflineGFLOPS != k.MemoryRoofGFLOPS {
		t.Errorf("roofline limit %g != memory roof %g", k.RooflineGFLOPS, k.MemoryRoofGFLOPS)
	}
	if k.MemoryRoofGFLOPS >= k.PeakGFLOPS {
		t.Errorf("memory roof %g not below peak %g", k.MemoryRoofGFLOPS, k.PeakGFLOPS)
	}
}
