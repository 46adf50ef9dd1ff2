// Package perf is the analysis layer on top of the raw telemetry of
// internal/obs and the cost model of internal/gpusim: it turns executed stage
// schedules and launch results into the *arguments* the paper makes.
//
// The paper justifies the jw-parallel plan with three observations: (1) the
// pipeline's per-step time decomposes into host work (tree build, walk/list
// construction), transfers, and kernels, and with double-buffering only the
// longer of the host and device chains is on the critical path (note 4);
// (2) i-parallel starves the device at small N — too few work-groups to keep
// wavefronts resident — while jw-parallel picks its group count to fill the
// device at every N; (3) each kernel sits somewhere on the device's roofline
// (compute roof = peak GFLOPS, memory roof = arithmetic intensity x
// bandwidth), and the plans differ in where. This package computes all three
// from a run's own telemetry:
//
//   - AttributeExecuted reads an executed stage schedule and produces the
//     per-stage time split and the critical serial chain (critpath.go).
//   - Roofline converts one launch result into an achieved-vs-roof report
//     with occupancy and divergence (roofline.go).
//   - Watchdog tracks energy/momentum/virial drift per snapshot and fails a
//     run that leaves its physics tolerances (watchdog.go).
//   - RunBench sweeps plans x N into a machine-readable report with repeat
//     statistics (bench.go); Compare diffs its modelled leaves against a
//     committed baseline exactly (baseline.go).
package perf

// Stage identifies one pipeline stage of a force evaluation for critical-path
// attribution. The stages mirror the paper's time-breakdown tables: host-side
// tree build and interaction-list construction, host->device uploads, the
// force kernel, and the download of results.
type Stage string

// Pipeline stages, in execution order.
const (
	StageTree     Stage = "tree_build"
	StageList     Stage = "list_build"
	StageUpload   Stage = "upload"
	StageKernel   Stage = "kernel"
	StageDownload Stage = "download"
)

// StageOrder lists the stages in pipeline execution order.
var StageOrder = []Stage{StageTree, StageList, StageUpload, StageKernel, StageDownload}

// HostStage reports whether the stage runs on the CPU side of the
// double-buffered pipeline (the paper's note 4: while the GPU evaluates step
// t, the CPU builds step t+1's tree and lists).
func (s Stage) HostStage() bool {
	return s == StageTree || s == StageList
}
