// Package core implements the paper's contribution: the parallel time-space
// processing model (PTPM) and the four GPU execution plans it derives for
// N-body force calculation — i-parallel and j-parallel for the
// particle-particle (PP) method, w-parallel and jw-parallel for the
// Barnes-Hut treecode — all running on the simulated OpenCL device of
// internal/gpusim through the host API of internal/cl.
//
// Every plan is functionally real: its kernels compute the accelerations,
// which tests validate against the CPU references in internal/pp and
// internal/bh. Every plan is also analytically measured: the device's cost
// model converts the kernels' counted work into modelled time, which is what
// the figure/table harness in internal/exp reports.
//
// # The four plans in PTPM terms
//
// The PTPM views a force calculation as a grid: one axis enumerates the
// bodies whose acceleration is wanted (i), the other the sources acting on
// them (j for PP; interaction-list entries for BH). A plan is a mapping of
// that grid onto the device's space axis (work-items, work-groups, compute
// units) and time axis (kernel steps):
//
//   - i-parallel (Nyland et al.): space <- i, time <- j in local-memory
//     tiles. One work-item per body. Starves the device when N is small.
//   - j-parallel (Hamada et al., "chamomile"): space <- (i x j-segments),
//     time <- the remaining j. One work-group per body, lanes split the
//     sources, a local-memory tree reduction combines partial sums. Fills
//     the device at small N, pays N-times more global traffic at large N.
//   - w-parallel (Hamada et al., SC'09): space <- walks (one work-group per
//     walk, lanes are the walk's bodies), time <- the walk's interaction
//     list, streamed from global memory by every lane.
//   - jw-parallel (the paper): space <- walks x lanes, time <- list tiles
//     staged once per work-group through local memory (the j-parallel idea
//     applied inside each walk), with several walks queued per work-group so
//     the device stays full and load-balanced (the w-parallel idea, made
//     coarser). The tree build and list construction stay on the CPU.
package core

import (
	"fmt"

	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/pipeline"
	"repro/internal/pp"
)

// Kind distinguishes the algorithm family a plan implements.
type Kind int

// Plan kinds.
const (
	KindPP Kind = iota // O(N^2) particle-particle
	KindBH             // Barnes-Hut treecode over group walks
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPP:
		return "PP"
	case KindBH:
		return "BH"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Plan is one executable mapping of the N-body force grid onto the device.
type Plan interface {
	// Name returns the plan's identifier ("i-parallel", ...).
	Name() string
	// Kind returns the algorithm family.
	Kind() Kind
	// Accel computes accelerations into s.Acc and returns the run's
	// profile, whose Schedule is never nil: implementations enqueue the
	// evaluation's commands in order on one in-order queue, record one
	// schedule span per command, and reuse device buffers across calls.
	Accel(s *body.System) (*RunProfile, error)
}

// RunProfile reports one force calculation by a plan.
type RunProfile struct {
	Plan string
	N    int
	// Interactions actually evaluated (pseudo-body and body-body).
	Interactions int64
	// Flops is useful arithmetic: Interactions * pp.FlopsPerInteraction.
	Flops int64
	// Profile splits the modelled time into kernel / transfer / host parts.
	Profile cl.Profile
	// Launches holds the per-kernel device results (divergence, bounds,
	// occupancy) for the PTPM reports.
	Launches []*gpusim.Result
	// Schedule is the executed schedule of the evaluation — one span per
	// queue command, where it landed on the modelled timeline. The perf
	// layer and the engine's executed timeline read it directly. Every plan
	// sets it; a multi-device plan reports the schedule of the device whose
	// chain ends last.
	Schedule *pipeline.Schedule
	// HostBuildSeconds is the measured wall-clock cost of the host-side
	// build for this evaluation (tree + walks + flattening on the machine
	// actually running the simulation) — the real counterpart of
	// Profile.HostSeconds, which is modelled on the paper-era CPU.
	HostBuildSeconds float64
}

// KernelGFLOPS is useful flops over kernel-only time: the paper's "running
// time" basis (Figure 4/5, Table 3).
func (r *RunProfile) KernelGFLOPS() float64 {
	if r.Profile.KernelSeconds <= 0 {
		return 0
	}
	return float64(r.Flops) / r.Profile.KernelSeconds / 1e9
}

// TotalGFLOPS is useful flops over total pipeline time: the Table 2 basis.
func (r *RunProfile) TotalGFLOPS() float64 {
	t := r.Profile.TotalSeconds()
	if t <= 0 {
		return 0
	}
	return float64(r.Flops) / t / 1e9
}

// roundUp returns the smallest multiple of q that is >= n.
func roundUp(n, q int) int {
	return (n + q - 1) / q * q
}

// flattenPadded writes the system into an x,y,z,m float4 buffer padded with
// zero-mass bodies up to nPad entries (padding bodies sit at the origin and
// exert no force thanks to zero mass).
func flattenPadded(s *body.System, nPad int, dst []float32) []float32 {
	need := 4 * nPad
	dst = resize(dst, need)
	for i := range dst {
		dst[i] = 0
	}
	for i := range s.Pos {
		dst[4*i+0] = s.Pos[i].X
		dst[4*i+1] = s.Pos[i].Y
		dst[4*i+2] = s.Pos[i].Z
		dst[4*i+3] = s.Mass[i]
	}
	return dst
}

// interactionFlops converts an interaction count to useful flops.
func interactionFlops(interactions int64) int64 {
	return interactions * pp.FlopsPerInteraction
}
