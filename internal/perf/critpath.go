package perf

import (
	"fmt"
	"strings"

	"repro/internal/pipeline"
)

// Attribution is the critical-path breakdown of an executed stage schedule:
// how the modelled pipeline time of one or more force evaluations splits
// across stages, and which serial chain bounds the step time.
//
// Two totals matter. SerialSeconds is the sum of every stage — the paper's
// "total time" basis (Table 2), where host and device work are serialised.
// PipelinedSeconds is the steady-state step time under the paper's
// double-buffering note (4): the CPU builds step t+1's tree and lists while
// the GPU runs step t's transfers and kernels, so the slower of the two
// chains sets the pace and *is* the critical path.
type Attribution struct {
	// StageSeconds is the modelled time summed per stage.
	StageSeconds map[Stage]float64 `json:"stageSeconds"`
	// StageFractions is each stage's share of SerialSeconds.
	StageFractions map[Stage]float64 `json:"stageFractions"`
	// Spans is the number of executed stage spans consumed.
	Spans int `json:"spans"`

	HostSeconds   float64 `json:"hostSeconds"`   // tree + list
	DeviceSeconds float64 `json:"deviceSeconds"` // uploads + kernels + downloads
	SerialSeconds float64 `json:"serialSeconds"`
	// PipelinedSeconds = max(HostSeconds, DeviceSeconds).
	PipelinedSeconds float64 `json:"pipelinedSeconds"`

	// CriticalSide is "host" or "device": the chain that bounds the
	// pipelined step time.
	CriticalSide string `json:"criticalSide"`
	// CriticalChain lists the stages of the critical side in execution
	// order (stages with zero time omitted) — the longest serial chain.
	CriticalChain []Stage `json:"criticalChain"`
	// CriticalSeconds is the length of that chain (== PipelinedSeconds).
	CriticalSeconds float64 `json:"criticalSeconds"`

	// LongestStage is the single most expensive stage overall.
	LongestStage        Stage   `json:"longestStage"`
	LongestStageSeconds float64 `json:"longestStageSeconds"`

	// MakespanSeconds is the end of the executed timeline: where the last
	// stage finished on the queue clock. A schedule from one in-order queue
	// has no overlap, so it equals SerialSeconds; it is smaller only when
	// stages overlap.
	MakespanSeconds float64 `json:"makespanSeconds"`

	// HostBuildWallSeconds is the *measured* wall-clock time of the host-side
	// build behind this schedule (tree + walks + flatten on the machine that
	// ran it), carried next to the modelled host stages so reports can show
	// the real host cost beside the paper-era model. Zero when the schedule
	// carries no measurement.
	HostBuildWallSeconds float64 `json:"hostBuildWallSeconds,omitempty"`
}

// kindStage maps each pipeline command kind onto the perf stage taxonomy.
var kindStage = [...]Stage{
	pipeline.Tree:     StageTree,
	pipeline.List:     StageList,
	pipeline.Upload:   StageUpload,
	pipeline.Kernel:   StageKernel,
	pipeline.Download: StageDownload,
}

// AttributeExecuted builds the attribution from an executed schedule — the
// typed record of which commands ran and where they landed on the modelled
// timeline. Stage kinds come from the commands that actually executed, so no
// name convention is involved, and the makespan is read from where they
// landed rather than assumed.
func AttributeExecuted(sched *pipeline.Schedule) Attribution {
	a := Attribution{
		StageSeconds:   map[Stage]float64{},
		StageFractions: map[Stage]float64{},
	}
	if sched == nil {
		return a
	}
	for _, sp := range sched.Spans {
		stage := kindStage[sp.Kind]
		sec := sp.Seconds()
		a.StageSeconds[stage] += sec
		a.Spans++
		if sp.Kind.HostSide() {
			a.HostSeconds += sec
		} else {
			a.DeviceSeconds += sec
		}
	}
	a.finalize()
	a.MakespanSeconds = sched.MakespanSeconds()
	a.HostBuildWallSeconds = sched.HostWallSeconds
	return a
}

// finalize derives the totals, fractions, critical side/chain, and longest
// stage from the populated StageSeconds / HostSeconds / DeviceSeconds.
func (a *Attribution) finalize() {
	a.SerialSeconds = a.HostSeconds + a.DeviceSeconds
	if a.SerialSeconds > 0 {
		for st, sec := range a.StageSeconds {
			a.StageFractions[st] = sec / a.SerialSeconds
		}
	}
	a.CriticalSide = "device"
	a.PipelinedSeconds = a.DeviceSeconds
	if a.HostSeconds > a.DeviceSeconds {
		a.CriticalSide = "host"
		a.PipelinedSeconds = a.HostSeconds
	}
	for _, st := range StageOrder {
		if a.StageSeconds[st] <= 0 {
			continue
		}
		if st.HostStage() == (a.CriticalSide == "host") {
			a.CriticalChain = append(a.CriticalChain, st)
		}
		if a.StageSeconds[st] > a.LongestStageSeconds {
			a.LongestStage = st
			a.LongestStageSeconds = a.StageSeconds[st]
		}
	}
	a.CriticalSeconds = a.PipelinedSeconds
}

// String renders a one-line summary for logs and CLI output.
func (a Attribution) String() string {
	var parts []string
	for _, st := range StageOrder {
		if sec, ok := a.StageSeconds[st]; ok && sec > 0 {
			parts = append(parts, fmt.Sprintf("%s %.3gms", st, sec*1e3))
		}
	}
	return fmt.Sprintf("critical path: %s side (%.3gms pipelined, %.3gms serial) [%s]",
		a.CriticalSide, a.PipelinedSeconds*1e3, a.SerialSeconds*1e3, strings.Join(parts, ", "))
}
