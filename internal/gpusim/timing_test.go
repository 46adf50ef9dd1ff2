package gpusim

import (
	"math"
	"testing"
)

// launchUniform runs a kernel where every lane charges the given work, and
// returns the result.
func launchUniform(t *testing.T, d *Device, groups int, flops, coalesced, scattered, lds int) *Result {
	t.Helper()
	local := d.Config.WavefrontSize
	res, err := d.Launch("uniform", PerItem(func(wi *Item) {
		wi.Flops(flops)
		wi.ChargeGlobal(coalesced, scattered)
		wi.ChargeLDS(lds)
	}), LaunchParams{Global: groups * local, Local: local, LDSFloats: 16})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestALUBoundClassification(t *testing.T) {
	d := testDev(t)
	res := launchUniform(t, d, 4, 10000, 4, 0, 0)
	if res.Timing.ALUBoundGroups != 4 || res.Timing.MemBoundGroups != 0 {
		t.Errorf("ALU-heavy launch classified %+v", res.Timing)
	}
	res = launchUniform(t, d, 4, 1, 100000, 0, 0)
	if res.Timing.MemBoundGroups != 4 {
		t.Errorf("mem-heavy launch classified %+v", res.Timing)
	}
	res = launchUniform(t, d, 4, 1, 4, 0, 100000)
	if res.Timing.LDSBoundGroups != 4 {
		t.Errorf("lds-heavy launch classified %+v", res.Timing)
	}
}

func TestMoreWorkTakesLonger(t *testing.T) {
	d := testDev(t)
	small := launchUniform(t, d, 2, 100, 16, 0, 0).Timing.KernelSeconds
	big := launchUniform(t, d, 2, 10000, 16, 0, 0).Timing.KernelSeconds
	if big <= small {
		t.Errorf("100x flops not slower: %g vs %g", big, small)
	}
}

func TestScatterPenalty(t *testing.T) {
	d := testDev(t)
	co := launchUniform(t, d, 2, 1, 40000, 0, 0).Timing.KernelSeconds
	sc := launchUniform(t, d, 2, 1, 0, 40000, 0).Timing.KernelSeconds
	ratio := sc / co
	if math.Abs(ratio-d.Config.ScatterPenalty) > 0.5 {
		t.Errorf("scatter/coalesced time ratio %g, want ~%g", ratio, d.Config.ScatterPenalty)
	}
}

func TestDeviceScalesWithComputeUnits(t *testing.T) {
	// Same total work on a 2-CU and an 8-CU device: the bigger device
	// should be ~4x faster when there are plenty of groups.
	cfg2 := TestDevice()
	cfg8 := TestDevice()
	cfg8.ComputeUnits = 8
	cfg8.MemBandwidth *= 4 // keep per-CU bandwidth constant
	d2, _ := NewDevice(cfg2)
	d8, _ := NewDevice(cfg8)
	t2 := launchUniform(t, d2, 64, 10000, 4, 0, 0).Timing.Cycles
	t8 := launchUniform(t, d8, 64, 10000, 4, 0, 0).Timing.Cycles
	ratio := t2 / t8
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("2CU/8CU cycle ratio = %g, want ~4", ratio)
	}
}

func TestStarvationAtFewGroups(t *testing.T) {
	// One group cannot use more than one CU: GFLOPS should be far below a
	// fully-populated launch.
	d := testDev(t)
	one := gflops(launchUniform(t, d, 1, 10000, 4, 0, 0))
	many := gflops(launchUniform(t, d, 32, 10000, 4, 0, 0))
	if one > 0.7*many {
		t.Errorf("single-group launch not starved: %g vs %g GFLOPS", one, many)
	}
}

func TestOccupancyReportedAndBounded(t *testing.T) {
	d := testDev(t)
	res := launchUniform(t, d, 64, 100, 4, 0, 0)
	occ := res.Timing.OccupancyWavefronts
	if occ < 1 || occ > d.Config.MaxWavefrontsPerCU {
		t.Errorf("occupancy %d out of range", occ)
	}
}

func TestLDSLimitsResidency(t *testing.T) {
	// A group that hogs the whole LDS allows only one resident group,
	// exposing memory latency; many small-LDS groups hide it.
	cfg := TestDevice()
	d, _ := NewDevice(cfg)
	local := cfg.WavefrontSize
	mk := func(ldsFloats int) float64 {
		res, err := d.Launch("lds-occ", PerItem(func(wi *Item) {
			wi.Flops(10)
			wi.ChargeGlobal(4000, 0)
		}), LaunchParams{Global: 64 * local, Local: local, LDSFloats: ldsFloats})
		if err != nil {
			t.Fatal(err)
		}
		return res.Timing.KernelSeconds
	}
	hog := mk(cfg.LDSPerCU / 4) // whole LDS -> 1 resident group
	slim := mk(16)
	if hog <= slim {
		t.Errorf("LDS-hogging launch not slower: %g vs %g", hog, slim)
	}
}

func TestBarrierCost(t *testing.T) {
	d := testDev(t)
	local := d.Config.WavefrontSize
	mk := func(barriers int) float64 {
		res, err := d.Launch("barriers", PerItem(func(wi *Item) {
			wi.Flops(10)
			for i := 0; i < barriers; i++ {
				wi.Barrier()
			}
		}), LaunchParams{Global: 4 * local, Local: local})
		if err != nil {
			t.Fatal(err)
		}
		return res.Timing.Cycles
	}
	none := mk(0)
	many := mk(100)
	// 4 groups on 2 CUs -> the makespan path holds 2 groups in series.
	wantExtra := 2 * 100 * d.Config.BarrierCycles
	extra := many - none
	if math.Abs(extra-wantExtra) > wantExtra*0.2 {
		t.Errorf("barrier cost: makespan grew %g cycles, want ~%g", extra, wantExtra)
	}
}

func TestScheduleIsLPT(t *testing.T) {
	// Unbalanced groups: makespan must be close to total/CUs, not dominated
	// by bad placement.
	sched, makespan := schedule([]float64{100, 1, 1, 1, 1, 1, 1, 1}, make([]string, 8), 2)
	if len(sched) != 8 {
		t.Fatalf("placed %d groups", len(sched))
	}
	// LPT puts the 100 alone on one CU, the 7 ones on the other.
	if makespan != 100 {
		t.Errorf("makespan = %g, want 100", makespan)
	}
	// All groups scheduled exactly once.
	seen := map[int]bool{}
	for _, sg := range sched {
		if seen[sg.Group] {
			t.Fatalf("group %d scheduled twice", sg.Group)
		}
		seen[sg.Group] = true
		if sg.EndCycle-sg.StartCycle <= 0 {
			t.Errorf("group %d has non-positive duration", sg.Group)
		}
	}
}

func TestTransferSeconds(t *testing.T) {
	d := testDev(t)
	base := d.TransferSeconds(0)
	if base != d.Config.PCIeLatency {
		t.Errorf("zero-byte transfer = %g, want latency %g", base, d.Config.PCIeLatency)
	}
	mb := d.TransferSeconds(1 << 20)
	want := d.Config.PCIeLatency + float64(1<<20)/d.Config.PCIeBandwidth
	if math.Abs(mb-want) > 1e-12 {
		t.Errorf("1MiB transfer = %g, want %g", mb, want)
	}
}

func TestCPUModel(t *testing.T) {
	m := PaperCPU()
	if g := 1 / m.Seconds(1e9); g < 0.4 || g > 0.7 {
		t.Errorf("paper CPU rate %g GFLOPS, want ~0.55", g)
	}
	if s := m.Seconds(int64(m.ClockHz * m.FlopsPerCycle)); math.Abs(s-1) > 1e-9 {
		t.Errorf("one rate-second of flops took %g s", s)
	}
}

func TestHostModel(t *testing.T) {
	h := PaperHost()
	if h.TreeBuildSeconds(1) != 0 {
		t.Error("single body tree build not free")
	}
	t1 := h.TreeBuildSeconds(1000)
	t2 := h.TreeBuildSeconds(4000)
	if t2 <= t1*3.9 {
		t.Errorf("tree build not superlinear-ish: %g vs %g", t1, t2)
	}
	if h.ListBuildSeconds(0) != 0 || h.ListBuildSeconds(1000) <= 0 {
		t.Error("list build times wrong")
	}
}

func TestALUUtilizationBounded(t *testing.T) {
	d := testDev(t)
	res := launchUniform(t, d, 64, 10000, 4, 0, 0)
	u := res.Timing.ALUUtilization
	if u <= 0 || u > 1 {
		t.Errorf("ALU utilization %g out of (0,1]", u)
	}
}

func TestResultGFLOPS(t *testing.T) {
	d := testDev(t)
	res := launchUniform(t, d, 4, 1000, 4, 0, 0)
	wantFlops := int64(4 * d.Config.WavefrontSize * 1000)
	if res.TotalFlops() != wantFlops {
		t.Errorf("TotalFlops = %d, want %d", res.TotalFlops(), wantFlops)
	}
	if g := gflops(res); g <= 0 || g > d.Config.PeakGFLOPS() {
		t.Errorf("GFLOPS = %g, want in (0, peak %g]", g, d.Config.PeakGFLOPS())
	}
}

// gflops is a launch's useful flops divided by its modelled kernel time.
func gflops(r *Result) float64 {
	return float64(r.TotalFlops()) / r.Timing.KernelSeconds / 1e9
}
