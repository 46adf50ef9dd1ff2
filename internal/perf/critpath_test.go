package perf

import (
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// span is a StageSpan literal helper (times in seconds on the queue clock).
func span(kind pipeline.Kind, start, end float64) pipeline.StageSpan {
	return pipeline.StageSpan{Kind: kind, Start: start, End: end}
}

func TestAttributeDeviceBound(t *testing.T) {
	a := AttributeExecuted(&pipeline.Schedule{Spans: []pipeline.StageSpan{
		span(pipeline.Tree, 0, 0.001),
		span(pipeline.List, 0.001, 0.003),
		span(pipeline.Upload, 0.003, 0.007),
		span(pipeline.Kernel, 0.007, 0.017),
		span(pipeline.Download, 0.017, 0.020),
	}})
	if a.Spans != 5 {
		t.Fatalf("spans = %d, want 5", a.Spans)
	}
	if got := a.StageSeconds[StageKernel]; !near(got, 0.010) {
		t.Errorf("kernel seconds = %g, want 0.010", got)
	}
	if !near(a.HostSeconds, 0.003) || !near(a.DeviceSeconds, 0.017) {
		t.Errorf("host/device = %g/%g, want 0.003/0.017", a.HostSeconds, a.DeviceSeconds)
	}
	if !near(a.SerialSeconds, 0.020) || !near(a.PipelinedSeconds, 0.017) {
		t.Errorf("serial/pipelined = %g/%g", a.SerialSeconds, a.PipelinedSeconds)
	}
	if a.CriticalSide != "device" {
		t.Errorf("critical side = %q, want device", a.CriticalSide)
	}
	wantChain := []Stage{StageUpload, StageKernel, StageDownload}
	if len(a.CriticalChain) != len(wantChain) {
		t.Fatalf("chain = %v, want %v", a.CriticalChain, wantChain)
	}
	for i, st := range wantChain {
		if a.CriticalChain[i] != st {
			t.Fatalf("chain = %v, want %v", a.CriticalChain, wantChain)
		}
	}
	if a.LongestStage != StageKernel {
		t.Errorf("longest stage = %q, want kernel", a.LongestStage)
	}
	if frac := a.StageFractions[StageKernel]; !near(frac, 0.5) {
		t.Errorf("kernel fraction = %g, want 0.5", frac)
	}
	if s := a.String(); !strings.Contains(s, "device side") {
		t.Errorf("String() = %q", s)
	}
}

func TestAttributeHostBound(t *testing.T) {
	a := AttributeExecuted(&pipeline.Schedule{Spans: []pipeline.StageSpan{
		span(pipeline.Tree, 0, 0.030),
		span(pipeline.List, 0.030, 0.050),
		span(pipeline.Kernel, 0.050, 0.060),
	}})
	if a.CriticalSide != "host" {
		t.Fatalf("critical side = %q, want host", a.CriticalSide)
	}
	if !near(a.PipelinedSeconds, 0.050) {
		t.Errorf("pipelined = %g, want 0.050", a.PipelinedSeconds)
	}
	if len(a.CriticalChain) != 2 || a.CriticalChain[0] != StageTree || a.CriticalChain[1] != StageList {
		t.Errorf("chain = %v, want [tree_build list_build]", a.CriticalChain)
	}
	if a.LongestStage != StageTree {
		t.Errorf("longest = %q, want tree_build", a.LongestStage)
	}
	if s := a.String(); !strings.Contains(s, "host side") {
		t.Errorf("String() = %q", s)
	}
}

func TestAttributeEmpty(t *testing.T) {
	a := AttributeExecuted(&pipeline.Schedule{})
	if a.Spans != 0 || a.SerialSeconds != 0 || len(a.CriticalChain) != 0 {
		t.Errorf("empty attribution not empty: %+v", a)
	}
}

func TestAttributeExecutedSchedule(t *testing.T) {
	sched := &pipeline.Schedule{Spans: []pipeline.StageSpan{
		span(pipeline.Tree, 0, 0.001),
		span(pipeline.List, 0.001, 0.003),
		span(pipeline.Upload, 0.003, 0.004),
		span(pipeline.Kernel, 0.004, 0.014),
		span(pipeline.Download, 0.014, 0.017),
	}}
	a := AttributeExecuted(sched)
	if a.Spans != 5 {
		t.Fatalf("spans = %d, want 5", a.Spans)
	}
	if !near(a.HostSeconds, 0.003) || !near(a.DeviceSeconds, 0.014) {
		t.Errorf("host/device = %g/%g, want 0.003/0.014", a.HostSeconds, a.DeviceSeconds)
	}
	if !near(a.SerialSeconds, 0.017) || !near(a.PipelinedSeconds, 0.014) {
		t.Errorf("serial/pipelined = %g/%g", a.SerialSeconds, a.PipelinedSeconds)
	}
	if !near(a.MakespanSeconds, 0.017) {
		t.Errorf("makespan = %g, want 0.017 (in-order schedule)", a.MakespanSeconds)
	}
	if a.CriticalSide != "device" || a.LongestStage != StageKernel {
		t.Errorf("side=%q longest=%q", a.CriticalSide, a.LongestStage)
	}
	wantChain := []Stage{StageUpload, StageKernel, StageDownload}
	if len(a.CriticalChain) != len(wantChain) {
		t.Fatalf("chain = %v, want %v", a.CriticalChain, wantChain)
	}
	for i, st := range wantChain {
		if a.CriticalChain[i] != st {
			t.Fatalf("chain = %v, want %v", a.CriticalChain, wantChain)
		}
	}
}

// TestAttributeExecutedOverlappedMakespan: when stages overlap on the
// executed timeline, the makespan is shorter than the serial sum.
func TestAttributeExecutedOverlappedMakespan(t *testing.T) {
	sched := &pipeline.Schedule{Spans: []pipeline.StageSpan{
		span(pipeline.Tree, 0, 0.004),   // host chain
		span(pipeline.Upload, 0, 0.001), // device chain, concurrent
		span(pipeline.Kernel, 0.001, 0.003),
	}}
	a := AttributeExecuted(sched)
	if !near(a.SerialSeconds, 0.007) {
		t.Errorf("serial = %g, want 0.007", a.SerialSeconds)
	}
	if !near(a.MakespanSeconds, 0.004) {
		t.Errorf("makespan = %g, want 0.004 (overlapped)", a.MakespanSeconds)
	}
	if a.CriticalSide != "host" {
		t.Errorf("side = %q, want host", a.CriticalSide)
	}
}

func TestAttributeExecutedNil(t *testing.T) {
	a := AttributeExecuted(nil)
	if a.Spans != 0 || a.SerialSeconds != 0 || a.MakespanSeconds != 0 {
		t.Errorf("nil attribution not empty: %+v", a)
	}
}

func near(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d < 1e-12 || d < 1e-9*want
}
