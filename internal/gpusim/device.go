// Package gpusim simulates an OpenCL-class GPU well enough to run and cost
// the paper's N-body kernels.
//
// The simulator has two halves that share one execution:
//
//   - A functional half: kernels are ordinary Go functions invoked once per
//     work-group, with real local memory, so a kernel's numerical output can
//     be validated against the CPU reference. A kernel runs its work-items as
//     loops over the group's lanes, and a work-group barrier is the boundary
//     between two such loops: the loop after it sees everything the loop
//     before it wrote. Bodies written for one work-item run through PerItem,
//     which gives each work-item a goroutine and a real barrier.
//
//   - An analytic half: every global-memory access, local-memory access and
//     ALU operation a kernel performs is charged to per-work-item counters,
//     and a cost model calibrated to the AMD Radeon HD 5850 (the paper's
//     device) converts those counters into simulated cycles. SIMD divergence
//     is captured exactly the way hardware pays for it: a wavefront's ALU
//     time is the *maximum* over its lanes, not the mean.
//
// The paper's PTPM (parallel time-space processing model) reasons about how
// a computation grid maps onto the space axis (work-items / wavefronts /
// compute units) and the time axis (execution steps); this package is the
// machine that makes those mappings executable and measurable. A lane-loop
// kernel spells the grid out: its lanes are the space axis, and the phases
// between its barriers the time axis.
package gpusim

import (
	"fmt"
	"sync"
)

// DeviceConfig describes the simulated device. All rates are per the
// datasheet of the modelled hardware; the calibration fields at the bottom
// capture achievable (rather than theoretical) efficiency and are documented
// where they are used by the cost model in timing.go.
type DeviceConfig struct {
	Name string

	// ComputeUnits is the number of SIMD engines (CUs).
	ComputeUnits int
	// LanesPerCU is the number of stream cores per CU; a wavefront issues
	// over WavefrontSize/LanesPerCU cycles.
	LanesPerCU int
	// VLIWWidth is the number of ALUs per stream core (5 on Evergreen).
	VLIWWidth int
	// FMA is the flops per ALU per cycle (2 with multiply-add).
	FMA int
	// ClockHz is the engine clock.
	ClockHz float64
	// WavefrontSize is the SIMD width seen by the scheduler (64 on AMD).
	WavefrontSize int
	// MaxWavefrontsPerCU bounds resident wavefronts per CU.
	MaxWavefrontsPerCU int
	// MaxGroupsPerCU bounds resident work-groups per CU.
	MaxGroupsPerCU int
	// LDSPerCU is local memory per CU in bytes.
	LDSPerCU int

	// MemBandwidth is global-memory bandwidth in bytes/second.
	MemBandwidth float64
	// ScatterPenalty multiplies the cost of uncoalesced (gather/scatter)
	// global accesses relative to coalesced ones.
	ScatterPenalty float64
	// LDSBytesPerCycle is local-memory bandwidth per CU in bytes/cycle.
	LDSBytesPerCycle float64

	// PCIeBandwidth is host<->device bandwidth in bytes/second and
	// PCIeLatency the fixed per-transfer latency in seconds.
	PCIeBandwidth float64
	PCIeLatency   float64

	// VLIWPacking is the achievable fraction of the VLIW issue slots a real
	// compiler fills for this kind of kernel (~0.6 for Evergreen N-body
	// inner loops).
	VLIWPacking float64
	// HideWavefronts is the number of resident wavefronts per CU needed to
	// fully hide memory latency; fewer wavefronts expose a proportional
	// fraction of stalls.
	HideWavefronts int
	// ALUHideWavefronts is the analogous figure for the ALU pipeline depth.
	ALUHideWavefronts int
	// BarrierCycles is the cost of one work-group barrier.
	BarrierCycles float64
	// GroupLaunchCycles is the fixed scheduling cost per work-group.
	GroupLaunchCycles float64
	// KernelLaunchSeconds is the fixed host-side cost per kernel launch.
	KernelLaunchSeconds float64
}

// HD5850 returns the configuration of the paper's test device: an AMD
// Radeon HD 5850 (Cypress PRO): 18 SIMD engines x 16 stream cores x VLIW5 at
// 725 MHz = 1440 ALUs, 2.09 TFLOPS single-precision peak, 128 GB/s GDDR5,
// 32 KiB LDS per CU, on PCIe 2.0 x16.
func HD5850() DeviceConfig {
	return DeviceConfig{
		Name:               "AMD Radeon HD 5850 (simulated)",
		ComputeUnits:       18,
		LanesPerCU:         16,
		VLIWWidth:          5,
		FMA:                2,
		ClockHz:            725e6,
		WavefrontSize:      64,
		MaxWavefrontsPerCU: 24,
		MaxGroupsPerCU:     8,
		LDSPerCU:           32 << 10,

		MemBandwidth:     128e9,
		ScatterPenalty:   4,
		LDSBytesPerCycle: 128,

		PCIeBandwidth: 5.5e9,
		PCIeLatency:   15e-6,

		VLIWPacking:         0.62,
		HideWavefronts:      7,
		ALUHideWavefronts:   2,
		BarrierCycles:       32,
		GroupLaunchCycles:   300,
		KernelLaunchSeconds: 9e-6,
	}
}

// HD5870 returns the configuration of the HD 5850's bigger sibling (Cypress
// XT): 20 SIMD engines at 850 MHz (2.72 TFLOPS peak) and 153.6 GB/s — the
// obvious "what if" upgrade for the paper's testbed, used by the
// cross-device experiment.
func HD5870() DeviceConfig {
	c := HD5850()
	c.Name = "AMD Radeon HD 5870 (simulated)"
	c.ComputeUnits = 20
	c.ClockHz = 850e6
	c.MemBandwidth = 153.6e9
	return c
}

// GTX280Class returns a scalar-SIMT device of the paper's era roughly
// shaped like NVIDIA's GTX 280 (the hardware the i-parallel and w-parallel
// baselines were first published on): 30 multiprocessors x 8 scalar cores
// at 1.296 GHz (622 GFLOPS MAD peak), warp size 32, 16 KiB shared memory,
// 141.7 GB/s. Scalar issue means VLIWWidth 1 with near-perfect packing —
// less raw peak than Cypress but a much easier compilation target.
func GTX280Class() DeviceConfig {
	return DeviceConfig{
		Name:               "GTX 280-class SIMT (simulated)",
		ComputeUnits:       30,
		LanesPerCU:         8,
		VLIWWidth:          1,
		FMA:                2,
		ClockHz:            1.296e9,
		WavefrontSize:      32,
		MaxWavefrontsPerCU: 32,
		MaxGroupsPerCU:     8,
		LDSPerCU:           16 << 10,

		MemBandwidth:     141.7e9,
		ScatterPenalty:   4,
		LDSBytesPerCycle: 64,

		PCIeBandwidth: 5.5e9,
		PCIeLatency:   15e-6,

		VLIWPacking:         0.95,
		HideWavefronts:      8,
		ALUHideWavefronts:   2,
		BarrierCycles:       24,
		GroupLaunchCycles:   300,
		KernelLaunchSeconds: 9e-6,
	}
}

// TestDevice returns a deliberately tiny device (2 CUs, wavefront 8) whose
// behaviour is easy to reason about in unit tests of the executor and cost
// model.
func TestDevice() DeviceConfig {
	return DeviceConfig{
		Name:               "test-device",
		ComputeUnits:       2,
		LanesPerCU:         4,
		VLIWWidth:          1,
		FMA:                1,
		ClockHz:            1e6,
		WavefrontSize:      8,
		MaxWavefrontsPerCU: 8,
		MaxGroupsPerCU:     4,
		LDSPerCU:           4 << 10,

		MemBandwidth:     1e9,
		ScatterPenalty:   4,
		LDSBytesPerCycle: 16,

		PCIeBandwidth: 1e9,
		PCIeLatency:   1e-6,

		VLIWPacking:         1,
		HideWavefronts:      2,
		ALUHideWavefronts:   1,
		BarrierCycles:       4,
		GroupLaunchCycles:   10,
		KernelLaunchSeconds: 1e-6,
	}
}

// PeakGFLOPS returns the theoretical single-precision peak of the device in
// GFLOPS (1440 ALUs x 2 x 725 MHz = 2088 for the HD 5850).
func (c DeviceConfig) PeakGFLOPS() float64 {
	alus := float64(c.ComputeUnits * c.LanesPerCU * c.VLIWWidth)
	return alus * float64(c.FMA) * c.ClockHz / 1e9
}

// Validate reports configuration errors.
func (c DeviceConfig) Validate() error {
	switch {
	case c.ComputeUnits <= 0:
		return fmt.Errorf("gpusim: %s: ComputeUnits must be positive", c.Name)
	case c.LanesPerCU <= 0 || c.VLIWWidth <= 0 || c.FMA <= 0:
		return fmt.Errorf("gpusim: %s: ALU geometry must be positive", c.Name)
	case c.WavefrontSize <= 0 || c.WavefrontSize%c.LanesPerCU != 0:
		return fmt.Errorf("gpusim: %s: WavefrontSize %d must be a positive multiple of LanesPerCU %d",
			c.Name, c.WavefrontSize, c.LanesPerCU)
	case c.ClockHz <= 0 || c.MemBandwidth <= 0 || c.PCIeBandwidth <= 0:
		return fmt.Errorf("gpusim: %s: rates must be positive", c.Name)
	case c.VLIWPacking <= 0 || c.VLIWPacking > 1:
		return fmt.Errorf("gpusim: %s: VLIWPacking %g out of (0,1]", c.Name, c.VLIWPacking)
	case c.HideWavefronts <= 0 || c.ALUHideWavefronts <= 0:
		return fmt.Errorf("gpusim: %s: latency-hiding wavefront counts must be positive", c.Name)
	case c.LDSPerCU <= 0 || c.LDSBytesPerCycle <= 0:
		return fmt.Errorf("gpusim: %s: LDS configuration must be positive", c.Name)
	}
	return nil
}

// Device is a simulated GPU, described by its configuration.
type Device struct {
	Config DeviceConfig

	// idle holds the Groups of finished launch workers, which later
	// launches reuse (see Launch).
	idleMu sync.Mutex
	idle   []*Group
}

// NewDevice creates a device with the given configuration.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{Config: cfg}, nil
}

// MustNewDevice is NewDevice for known-good configurations; it panics on
// configuration errors.
func MustNewDevice(cfg DeviceConfig) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}
