package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/perf"
)

// JobPerfSchemaVersion covers the JobPerf document (GET /v1/jobs/{id}/perf).
const JobPerfSchemaVersion = 1

// maxRetainedSpans bounds the executed-schedule retention per job: enough for
// thousands of evaluation stages, small enough that a runaway job cannot grow
// the engine without bound. Past it the attribution is computed over a
// truncated prefix and says so.
const maxRetainedSpans = 100_000

// JobPerf is the per-job performance attribution (GET /v1/jobs/{id}/perf):
// the executed stage schedule of everything the job ran on its engine,
// attributed by perf.AttributeExecuted, plus the engine's totals over the
// job. It is computed once, when the job's successful attempt finishes,
// from what actually executed — not re-derived from a model afterwards.
type JobPerf struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	TraceID       string `json:"trace_id,omitempty"`
	Plan          string `json:"plan"`
	N             int    `json:"n"`
	Steps         int    `json:"steps"`
	// Engine is the pool slot the attributed attempt ran on.
	Engine int `json:"engine"`

	// Attribution is the per-stage breakdown of the job's executed schedule:
	// stage seconds/fractions, host/device split, critical chain, makespan.
	Attribution perf.Attribution `json:"attribution"`

	// Engine totals over the attempt, summed from zero: modelled seconds by
	// kind, useful flops, and evaluation count.
	Evaluations     int     `json:"evaluations"`
	KernelSeconds   float64 `json:"kernel_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
	HostSeconds     float64 `json:"host_seconds"`
	// ExecutedSeconds is the job's span on the engine's cross-step pipeline
	// timeline (equals the serial sum under pipeline mode "serial").
	ExecutedSeconds float64 `json:"executed_seconds"`
	Flops           int64   `json:"flops"`
	// SustainedGFLOPS is useful flops over modelled kernel seconds;
	// SustainedPipelinedGFLOPS divides by the executed timeline instead — the
	// figure the paper's pipelining argument improves.
	SustainedGFLOPS          float64 `json:"sustained_gflops"`
	SustainedPipelinedGFLOPS float64 `json:"sustained_pipelined_gflops"`
	// DeviceFill is the kernel-time-weighted mean device fill of the job's
	// kernel launches (perf.Roofline); 0 when no launches were recorded.
	DeviceFill float64 `json:"device_fill"`
	// WallSeconds is the host wall-clock time of the attributed attempt.
	WallSeconds float64 `json:"wall_seconds"`
	// ScheduleSpans counts the retained executed stage spans the attribution
	// covers; ScheduleTruncated reports that the retention cap dropped spans
	// (the attribution then covers a prefix of the job).
	ScheduleSpans     int  `json:"schedule_spans"`
	ScheduleTruncated bool `json:"schedule_truncated,omitempty"`
}

// JobPerfSummary is the compact perf rollup embedded in JobStatus.
type JobPerfSummary struct {
	MakespanSeconds  float64 `json:"makespan_seconds"`
	SerialSeconds    float64 `json:"serial_seconds"`
	PipelinedSeconds float64 `json:"pipelined_seconds"`
	// CriticalSide is "host" or "device": the chain bounding the pipelined
	// time.
	CriticalSide    string  `json:"critical_side"`
	SustainedGFLOPS float64 `json:"sustained_gflops"`
	DeviceFill      float64 `json:"device_fill"`
}

// Summary compresses the attribution to the JobStatus rollup.
func (p *JobPerf) Summary() *JobPerfSummary {
	if p == nil {
		return nil
	}
	return &JobPerfSummary{
		MakespanSeconds:  p.Attribution.MakespanSeconds,
		SerialSeconds:    p.Attribution.SerialSeconds,
		PipelinedSeconds: p.Attribution.PipelinedSeconds,
		CriticalSide:     p.Attribution.CriticalSide,
		SustainedGFLOPS:  p.SustainedGFLOPS,
		DeviceFill:       p.DeviceFill,
	}
}

// weightedDeviceFill is the kernel-time-weighted mean device fill over the
// launches.
func weightedDeviceFill(dev gpusim.DeviceConfig, launches []*gpusim.Result) float64 {
	var fill, weight float64
	for _, r := range launches {
		k := perf.Roofline(dev, r)
		fill += k.DeviceFill * k.KernelSeconds
		weight += k.KernelSeconds
	}
	if weight <= 0 {
		return 0
	}
	return fill / weight
}

// buildJobPerf assembles the attribution after a finished attempt. Every plan
// returns its executed stage schedule (a multi-device plan, its slowest
// device's), so it returns nil only when the attempt ran no evaluation. The
// attempt armed retention, which restarted the engine's totals, so they are
// the attempt's own sums from zero and their bits do not depend on the jobs
// the engine ran before.
func buildJobPerf(j *job, slotID int, dev gpusim.DeviceConfig, pe *core.Engine, wall time.Duration) *JobPerf {
	sched, truncated := pe.RetainedSchedule()
	if sched == nil {
		return nil
	}
	p := &JobPerf{
		SchemaVersion:     JobPerfSchemaVersion,
		JobID:             j.id,
		TraceID:           j.trace.TraceID,
		Plan:              j.spec.Plan,
		N:                 j.spec.N(),
		Steps:             j.spec.Steps,
		Engine:            slotID,
		Attribution:       perf.AttributeExecuted(sched),
		Evaluations:       pe.Evaluations,
		KernelSeconds:     pe.KernelSeconds,
		TransferSeconds:   pe.TransferSeconds,
		HostSeconds:       pe.HostSeconds,
		ExecutedSeconds:   pe.ExecutedSeconds(),
		Flops:             pe.Flops,
		DeviceFill:        weightedDeviceFill(dev, sched.Launches()),
		WallSeconds:       wall.Seconds(),
		ScheduleSpans:     len(sched.Spans),
		ScheduleTruncated: truncated,
	}
	if p.KernelSeconds > 0 {
		p.SustainedGFLOPS = float64(p.Flops) / p.KernelSeconds / 1e9
	}
	if p.ExecutedSeconds > 0 {
		p.SustainedPipelinedGFLOPS = float64(p.Flops) / p.ExecutedSeconds / 1e9
	}
	return p
}
