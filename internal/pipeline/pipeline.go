// Package pipeline records what one force evaluation executed and schedules
// consecutive evaluations against each other. A plan of internal/core
// enqueues its commands in order on one in-order cl queue; its Schedule
// holds one span per command, typed by Kind, on the queue's modelled
// timeline, and the perf layer attributes that record instead of
// re-deriving stage boundaries from span names.
//
// The layer exists to make the paper's central mechanism — host/device
// overlap (implementation note 4: while the GPU evaluates step t's forces,
// the CPU builds step t+1's tree and lists) — something the system
// *executes* rather than something a formula predicts. Within one
// evaluation the commands run back to back; across evaluations the Runner
// double-buffers the host chain of step k+1 against the device chain of
// step k, and it is the only place that models overlap. Because every
// duration comes from the gpusim cost model, the overlapped schedule is
// deterministic and reproducible.
package pipeline

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/gpusim"
)

// Kind classifies a command for time attribution. The kinds mirror the
// paper's per-step breakdown: host-side tree build and interaction-list
// construction, uploads, the force kernel, and the result download.
type Kind int

// Command kinds, in pipeline execution order.
const (
	Tree Kind = iota
	List
	Upload
	Kernel
	Download
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Tree:
		return "tree"
	case List:
		return "list"
	case Upload:
		return "upload"
	case Kernel:
		return "kernel"
	case Download:
		return "download"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// HostSide reports whether the command runs on the CPU side of the
// double-buffered pipeline. Transfers ride with the device side: they must
// complete before the kernel and cannot overlap the next step's host work.
func (k Kind) HostSide() bool { return k == Tree || k == List }

// StageSpan is one executed command: its kind, where it landed on the
// queue's modelled timeline, and its event.
type StageSpan struct {
	Kind  Kind
	Start float64 // seconds on the queue timeline
	End   float64
	Event *cl.Event
}

// Seconds returns the command's duration.
func (s StageSpan) Seconds() float64 { return s.End - s.Start }

// Schedule is the executed record of one force evaluation: what actually
// happened, command by command, on the modelled timeline. The perf layer
// attributes this directly instead of re-classifying raw spans by name.
type Schedule struct {
	Spans []StageSpan

	// HostWallSeconds is the *measured* wall-clock time of the host-side
	// build that produced this evaluation's inputs (tree + walk/list
	// construction + flattening on the real machine), as opposed to the
	// modelled Tree/List spans above. Plans stamp it when the evaluation
	// ends; engine retention accumulates it, so perf attribution can report
	// the real host stage next to the modelled one.
	HostWallSeconds float64
}

// HostSeconds sums the commands on the CPU side of the pipeline.
func (s *Schedule) HostSeconds() float64 {
	var t float64
	for _, sp := range s.Spans {
		if sp.Kind.HostSide() {
			t += sp.Seconds()
		}
	}
	return t
}

// DeviceSeconds sums the device-side commands (uploads, kernels,
// downloads).
func (s *Schedule) DeviceSeconds() float64 {
	var t float64
	for _, sp := range s.Spans {
		if !sp.Kind.HostSide() {
			t += sp.Seconds()
		}
	}
	return t
}

// MakespanSeconds is the executed timeline span of this schedule (latest
// command end minus earliest command start).
func (s *Schedule) MakespanSeconds() float64 {
	if len(s.Spans) == 0 {
		return 0
	}
	start, end := s.Spans[0].Start, s.Spans[0].End
	for _, sp := range s.Spans[1:] {
		if sp.Start < start {
			start = sp.Start
		}
		if sp.End > end {
			end = sp.End
		}
	}
	return end - start
}

// Launches returns the kernel launch results of the schedule in execution
// order, for roofline reports and trace export.
func (s *Schedule) Launches() []*gpusim.Result {
	var rs []*gpusim.Result
	for _, sp := range s.Spans {
		if sp.Event != nil && sp.Event.Result != nil {
			rs = append(rs, sp.Event.Result)
		}
	}
	return rs
}
