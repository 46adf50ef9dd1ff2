package perf

import (
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/gpusim"
)

// PlanReportSchemaVersion identifies the perf-report JSON layout that
// nbody -perf-report writes and every BENCH point embeds; bump on breaking
// changes, which ReadBenchReport then refuses until the BENCH files are
// regenerated.
//
// v1 is the original layout plus the schema_version field itself.
const PlanReportSchemaVersion = 1

// PlanReport is the full perf analysis of one (plan, N) force evaluation:
// the modelled time split with its critical path, and a roofline/occupancy
// report per kernel launch. Every field is derived from modelled quantities,
// so reports are deterministic and diffable across machines.
type PlanReport struct {
	SchemaVersion int    `json:"schema_version"`
	Plan          string `json:"plan"`
	N             int    `json:"n"`

	Interactions int64 `json:"interactions"`
	Flops        int64 `json:"flops"`

	KernelSeconds   float64 `json:"kernelSeconds"`
	TransferSeconds float64 `json:"transferSeconds"`
	HostSeconds     float64 `json:"hostSeconds"`
	// HostBuildSeconds is the measured wall-clock host-build time of the
	// evaluation (real machine), next to the modelled HostSeconds.
	HostBuildSeconds float64 `json:"hostBuildSeconds,omitempty"`
	KernelGFLOPS     float64 `json:"kernelGflops"`
	TotalGFLOPS      float64 `json:"totalGflops"`

	Attribution Attribution    `json:"attribution"`
	Kernels     []KernelReport `json:"kernels"`
}

// BuildPlanReport assembles the report for one evaluation from the plan's
// run profile and the device model it ran on; the attribution reads the
// profile's executed stage schedule (AttributeExecuted).
func BuildPlanReport(cfg gpusim.DeviceConfig, prof *core.RunProfile) PlanReport {
	r := PlanReport{
		SchemaVersion:    PlanReportSchemaVersion,
		Plan:             prof.Plan,
		N:                prof.N,
		Interactions:     prof.Interactions,
		Flops:            prof.Flops,
		KernelSeconds:    prof.Profile.KernelSeconds,
		TransferSeconds:  prof.Profile.TransferSeconds,
		HostSeconds:      prof.Profile.HostSeconds,
		HostBuildSeconds: prof.HostBuildSeconds,
		KernelGFLOPS:     prof.KernelGFLOPS(),
		TotalGFLOPS:      prof.TotalGFLOPS(),
		Attribution:      AttributeExecuted(prof.Schedule),
	}
	for _, launch := range prof.Launches {
		if launch != nil {
			r.Kernels = append(r.Kernels, Roofline(cfg, launch))
		}
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r PlanReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
