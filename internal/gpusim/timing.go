package gpusim

import (
	"math"
	"sort"
)

// Timing is the cost model's verdict on a launch.
type Timing struct {
	// KernelSeconds is the modelled execution time including the fixed
	// launch overhead.
	KernelSeconds float64
	// Cycles is the device makespan in engine cycles (excluding the
	// host-side launch overhead).
	Cycles float64
	// OccupancyWavefronts is the resident wavefronts per CU the schedule
	// achieved.
	OccupancyWavefronts int
	// ALUUtilization is useful flops divided by the flops the device could
	// have executed in KernelSeconds — the efficiency number Figures 4/5
	// track.
	ALUUtilization float64
	// ALUBoundGroups / MemBoundGroups / LDSBoundGroups count which resource
	// dominated each group.
	ALUBoundGroups, MemBoundGroups, LDSBoundGroups int
	// DivergenceFactor is the wavefront-max issue count the SIMD hardware
	// actually pays divided by the mean per-lane issue count (what a
	// perfectly convergent kernel would pay): 1.0 means no divergence, 2.0
	// means wavefronts idled half their lanes' issue slots on average.
	DivergenceFactor float64
	// Schedule is the per-CU placement of groups (for trace export).
	Schedule []ScheduledGroup
}

// ScheduledGroup records where and when one work-group ran in the modelled
// schedule.
type ScheduledGroup struct {
	CU          int
	Group       int
	StartCycle  float64
	EndCycle    float64
	BoundedBy   string // "alu", "mem" or "lds"
	GroupCycles float64
}

// cost converts a launch's counters into modelled time.
//
// The model, per work-group:
//
//	aluCycles = sum_wavefront(maxLaneIssue) * (wfSize/lanes) / (VLIW * FMA * packing)
//	memCycles = (coalesced + penalty*scattered bytes) / perCUShareOfBandwidth
//	ldsCycles = ldsBytes / LDSBytesPerCycle
//	group     = max(alu/occALU, mem/occMEM, lds) + barriers*BarrierCycles
//	            + GroupLaunchCycles
//
// where the occupancy factors expose stalls when too few wavefronts are
// resident per CU to hide ALU-pipeline or memory latency. Groups are then
// placed on CUs with a longest-processing-time greedy schedule; the device
// makespan is the longest CU. Charging each group a per-CU share of the
// memory bandwidth is slightly pessimistic when most CUs are idle, which
// only reinforces the small-N starvation the paper's Figure 4 shows.
func (d *Device) cost(r *Result) Timing {
	c := d.Config
	wfPerGroup := (r.Params.Local + c.WavefrontSize - 1) / c.WavefrontSize

	// Resident wavefronts per CU: bounded by the group cap, the wavefront
	// cap, the LDS capacity, and by how many groups exist to go around.
	groupsByLDS := c.MaxGroupsPerCU
	if r.Params.LDSFloats > 0 {
		if byLDS := c.LDSPerCU / (r.Params.LDSFloats * 4); byLDS < groupsByLDS {
			groupsByLDS = byLDS
		}
	}
	if groupsByLDS < 1 {
		groupsByLDS = 1
	}
	groupsAvail := (len(r.Groups) + c.ComputeUnits - 1) / c.ComputeUnits
	residentGroups := groupsByLDS
	if groupsAvail < residentGroups {
		residentGroups = groupsAvail
	}
	residentWF := residentGroups * wfPerGroup
	if residentWF > c.MaxWavefrontsPerCU {
		residentWF = c.MaxWavefrontsPerCU
	}
	if residentWF < 1 {
		residentWF = 1
	}
	occALU := math.Min(1, float64(residentWF)/float64(c.ALUHideWavefronts))
	occMem := math.Min(1, float64(residentWF)/float64(c.HideWavefronts))

	issueRate := float64(c.VLIWWidth*c.FMA) * c.VLIWPacking
	issueCyclesPerWF := float64(c.WavefrontSize / c.LanesPerCU)
	bytesPerCyclePerCU := c.MemBandwidth / c.ClockHz / float64(c.ComputeUnits)

	t := Timing{OccupancyWavefronts: residentWF}
	groupCycles := make([]float64, len(r.Groups))
	bounds := make([]string, len(r.Groups))
	for i := range r.Groups {
		g := &r.Groups[i]
		alu := float64(g.WFMaxFlops) * issueCyclesPerWF / issueRate / occALU
		mem := (float64(g.BytesCoalesced) + c.ScatterPenalty*float64(g.BytesScattered)) /
			bytesPerCyclePerCU / occMem
		lds := float64(g.LDSBytes) / c.LDSBytesPerCycle
		cycles := alu
		bound := "alu"
		if mem > cycles {
			cycles, bound = mem, "mem"
		}
		if lds > cycles {
			cycles, bound = lds, "lds"
		}
		switch bound {
		case "alu":
			t.ALUBoundGroups++
		case "mem":
			t.MemBoundGroups++
		case "lds":
			t.LDSBoundGroups++
		}
		groupCycles[i] = cycles + float64(g.Barriers)*c.BarrierCycles + c.GroupLaunchCycles
		bounds[i] = bound
	}

	var wfMaxTotal, issuedTotal int64
	for i := range r.Groups {
		g := &r.Groups[i]
		wfMaxTotal += g.WFMaxFlops
		issuedTotal += g.Flops + g.AuxFlops
	}
	if issuedTotal > 0 && r.Params.Local > 0 {
		convergent := float64(issuedTotal) / float64(r.Params.Local) * float64(wfPerGroup)
		if convergent > 0 {
			t.DivergenceFactor = float64(wfMaxTotal) / convergent
		}
	}

	t.Schedule, t.Cycles = schedule(groupCycles, bounds, c.ComputeUnits)
	t.KernelSeconds = t.Cycles/c.ClockHz + c.KernelLaunchSeconds
	if t.KernelSeconds > 0 {
		t.ALUUtilization = float64(r.TotalFlops()) / (t.KernelSeconds * c.PeakGFLOPS() * 1e9)
	}
	return t
}

// schedule places groups on CUs greedily, longest first, and returns the
// placement and makespan. Placement order is deterministic.
func schedule(groupCycles []float64, bounds []string, cus int) ([]ScheduledGroup, float64) {
	order := make([]int, len(groupCycles))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return groupCycles[order[a]] > groupCycles[order[b]] })

	load := make([]float64, cus)
	placed := make([]ScheduledGroup, 0, len(groupCycles))
	for _, gi := range order {
		cu := 0
		for k := 1; k < cus; k++ {
			if load[k] < load[cu] {
				cu = k
			}
		}
		placed = append(placed, ScheduledGroup{
			CU:          cu,
			Group:       gi,
			StartCycle:  load[cu],
			EndCycle:    load[cu] + groupCycles[gi],
			BoundedBy:   bounds[gi],
			GroupCycles: groupCycles[gi],
		})
		load[cu] += groupCycles[gi]
	}
	var makespan float64
	for _, l := range load {
		if l > makespan {
			makespan = l
		}
	}
	return placed, makespan
}

// TransferSeconds models one host<->device copy of the given size over the
// device's PCIe link.
func (d *Device) TransferSeconds(bytes int64) float64 {
	return d.Config.PCIeLatency + float64(bytes)/d.Config.PCIeBandwidth
}

// CPUModel is the analytic model of the paper's CPU baseline (a Pentium 4
// at 3.0 GHz running the scalar direct sum): a sustained scalar rate far
// below the GPU's, dominated by the divide/sqrt chain of the interaction
// kernel.
type CPUModel struct {
	Name          string
	ClockHz       float64
	FlopsPerCycle float64
}

// PaperCPU returns the calibrated baseline: an effective ~0.55 GFLOPS
// (about 5.4 cycles per flop — a scalar x87 inner loop whose divide/sqrt
// chain stalls the Pentium 4 pipeline), which reproduces the paper's ~400x
// GPU-vs-CPU ratio against the modelled HD 5850 jw pipeline.
func PaperCPU() CPUModel {
	return CPUModel{Name: "Pentium 4 3.0 GHz (modelled)", ClockHz: 3.0e9, FlopsPerCycle: 0.185}
}

// Seconds returns the modelled time to execute the given useful flops.
func (m CPUModel) Seconds(flops int64) float64 {
	return float64(flops) / (m.ClockHz * m.FlopsPerCycle)
}

// HostModel models the host-side work of the jw-parallel pipeline (octree
// build and interaction-list construction run on the CPU while the GPU
// evaluates forces). Rates are ops-per-second calibrated to the same
// paper-era host as PaperCPU.
type HostModel struct {
	// TreeOpsPerBodyLevel is the work per body per tree level of the build.
	TreeOpsPerBodyLevel float64
	// ListOpsPerEntry is the work per emitted interaction-list entry.
	ListOpsPerEntry float64
	// OpsPerSecond is the host's sustained rate for this pointer-chasing
	// integer work.
	OpsPerSecond float64
}

// PaperHost returns the calibrated host model.
func PaperHost() HostModel {
	return HostModel{TreeOpsPerBodyLevel: 60, ListOpsPerEntry: 12, OpsPerSecond: 1.2e9}
}

// TreeBuildSeconds models an octree build over n bodies.
func (h HostModel) TreeBuildSeconds(n int) float64 {
	if n < 2 {
		return 0
	}
	levels := math.Log2(float64(n))
	return float64(n) * levels * h.TreeOpsPerBodyLevel / h.OpsPerSecond
}

// ListBuildSeconds models interaction-list construction emitting the given
// total number of entries.
func (h HostModel) ListBuildSeconds(entries int64) float64 {
	return float64(entries) * h.ListOpsPerEntry / h.OpsPerSecond
}
