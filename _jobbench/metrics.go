package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of nbodyd sees, from the untraced HTTP run
// and set-up.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s", "higher"},
	{"job_ms_p50", "ms", "lower"},
	{"job_ms_p90", "ms", "lower"},
	{"modelled_ms_per_step", "ms", "lower"},
	{"modelled_gflops", "GFLOPS", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics: serve from the client side, the
// rest from the in-process replay. METRICS.md maps each to the end-to-end
// metric it should move.
var perLayer = []metricDef{
	{"serve.submit_ms", "ms", "lower"},
	{"serve.self_ms_per_job", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.stream_records_per_job", "count", "lower"},
	{"serve.stream_bytes_per_job", "B", "lower"},
	{"obs.spans_retained_per_job", "count", "lower"},
	{"perf.attribute_ms_per_job", "ms", "lower"},
	{"sim.self_ms_per_step", "ms", "lower"},
	{"sim.snapshots_per_job", "count", "lower"},
	{"sim.energy_drift_max", "ratio", "lower"},
	{"integrate.self_ms_per_step", "ms", "lower"},
	{"integrate.substeps_per_step", "count", "lower"},
	{"integrate.active_fraction", "ratio", "lower"},
	{"core.accel_ms", "ms", "lower"},
	{"core.evals_per_step", "count", "lower"},
	{"core.allocs_per_eval", "count", "lower"},
	{"core.force_rel_err_p99", "ratio", "lower"},
	{"core.jerk_ms", "ms", "lower"},
	{"core.jerk_iparallel_frac", "ratio", "higher"},
	{"bh.build_ms_per_eval", "ms", "lower"},
	{"bh.model_ms_per_eval", "ms", "lower"},
	{"bh.wall_to_model", "ratio", "lower"},
	{"bh.interactions_per_eval", "count", "lower"},
	{"gpusim.wall_ns_per_item", "ns", "lower"},
	{"gpusim.items_per_step", "count", "lower"},
	{"gpusim.barriers_per_step", "count", "lower"},
	{"gpusim.launches_per_step", "count", "lower"},
	{"gpusim.model_kernel_ms_per_step", "ms", "lower"},
	{"gpusim.model_transfer_ms_per_step", "ms", "lower"},
	{"gpusim.flops_per_byte", "flop/B", "higher"},
	{"gpusim.device_fill", "ratio", "higher"},
}

// sample is one metric's value and the number of samples behind it.
type sample struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// result is one workload run, as reported.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	// The wall-vs-model view and the traced-vs-untraced comparison.
	GPUWallMSPerStep  float64 `json:"gpu_wall_ms_per_step"`
	GPUModelMSPerStep float64 `json:"gpu_model_ms_per_step"`
	ServeMakespanS    float64 `json:"serve_makespan_s"`
	ServeLatencySumS  float64 `json:"serve_latency_sum_s"`
	ReplayWallS       float64 `json:"replay_wall_s"`
	ReplayRunSumS     float64 `json:"replay_run_sum_s"`
}

// runData is everything a run measured, for summarize.
type runData struct {
	setupWalls   []float64
	forces       []forceCheck
	served       []jobResult
	makespan     time.Duration
	spansPerJob  float64
	replayed     []*jobStats
	replayWall   time.Duration
	peakRSSMB    float64
	specs        []serve.JobSpec
	workloadName string
}

// sameState reports whether a streamed snapshot and a replayed one carry
// bit-identical physical state. Wall and engine seconds are left out: they
// are timings, and a cached engine's totals run on across jobs.
func sameState(a *serve.SnapshotJSON, b sim.Snapshot) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a != nil && a.Step == b.Step && a.Interactions == b.Interactions &&
		eq(a.Time, b.Time) && eq(a.Kinetic, b.Kinetic) && eq(a.Potential, b.Potential) &&
		eq(a.Total, b.Total) && eq(a.VirialRatio, b.VirialRatio) &&
		eq(a.Momentum[0], b.Momentum.X) && eq(a.Momentum[1], b.Momentum.Y) && eq(a.Momentum[2], b.Momentum.Z)
}

// check returns why a job's output is wrong, "" when it is right.
func check(r jobResult, st *jobStats) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case st.err != nil:
		return "replay: " + st.err.Error()
	case r.perf.JobID == "":
		return "no /perf attribution"
	case r.snapshots != st.snaps || !sameState(r.final, st.final):
		return "final streamed snapshot differs from the in-process replay"
	}
	return ""
}

// summarize checks every output and computes every metric.
func summarize(d runData) *result {
	res := &result{Workload: d.workloadName, Attempted: len(d.served), Metrics: map[string]sample{}}
	put := func(name string, v float64, n int) { res.Metrics[name] = sample{v, n} }

	var forceErr float64
	var bodies int
	var allocs []float64
	for _, fc := range d.forces {
		if fc.p99 > fc.tol {
			res.Problems = append(res.Problems, fmt.Sprintf("plan %s: p99 force error %.3g exceeds %.3g", fc.plan, fc.p99, fc.tol))
		}
		forceErr = max(forceErr, fc.p99)
		bodies += fc.bodies
		allocs = append(allocs, fc.allocsPer)
	}
	forcesOK := len(res.Problems) == 0

	var lat, submit, queue, records, bytes, selfMS []float64
	var rejected, steps, perfJobs int
	var execSec, kernelSec float64
	var drift []float64
	var flops int64
	for k, r := range d.served {
		st := d.replayed[k]
		if why := check(r, st); why != "" {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("job %d (%s): %s", k, d.specs[k].Plan, why))
		}
		submit = append(submit, ms(r.submit))
		if r.rejected {
			rejected++
		}
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.latency))
		records = append(records, float64(r.records))
		bytes = append(bytes, float64(r.bytes))
		queue = append(queue, float64(r.status.StartedAtMS-r.status.SubmittedAtMS))
		if r.perf.JobID != "" {
			// Job latency outside the service's attempt (submit, queue,
			// dispatch, final record): measured on the same job, so the
			// other job's contention for the cores cancels out.
			selfMS = append(selfMS, ms(r.latency)-r.perf.WallSeconds*1e3)
			perfJobs++
			steps += r.perf.Steps
			execSec += r.perf.ExecutedSeconds
			kernelSec += r.perf.KernelSeconds
			flops += r.perf.Flops
		}
		if r.first != nil && r.final != nil {
			drift = append(drift, math.Abs(r.final.Total-r.first.Total)/math.Abs(r.first.Total))
		}
	}
	res.Correct = res.Failed == 0 && forcesOK

	done := len(lat)
	put("jobs_per_s", ratio(float64(done), d.makespan.Seconds()), done)
	put("job_ms_p50", nearestRank(lat, 50), done)
	put("job_ms_p90", nearestRank(lat, 90), done)
	put("modelled_ms_per_step", ratio(execSec*1e3, float64(steps)), perfJobs)
	put("modelled_gflops", ratio(float64(flops), kernelSec)/1e9, perfJobs)
	put("setup_s", nearestRank(d.setupWalls, 50), len(d.setupWalls))
	put("peak_rss_mb", d.peakRSSMB, 1)

	put("serve.submit_ms", nearestRank(submit, 50), len(submit))
	put("serve.self_ms_per_job", mean(selfMS), len(selfMS))
	put("serve.queue_wait_ms", mean(queue), len(queue))
	put("serve.rejected", float64(rejected), len(d.served))
	put("serve.stream_records_per_job", mean(records), len(records))
	put("serve.stream_bytes_per_job", mean(bytes), len(bytes))
	put("sim.energy_drift_max", nearestRank(drift, 100), len(drift))
	put("obs.spans_retained_per_job", d.spansPerJob, len(d.served))

	// Replay aggregates over the jobs that replayed cleanly.
	var n, rSteps, snaps, bhEvals, launches, jerkI int
	var runW, stepW, engW, attribW time.Duration
	var accel, jerk []time.Duration
	var substeps, items, barriers, bhInteract, rFlops, rBytes int64
	var activeW, hostBuild, hostModel, kSec, tSec, fillW float64
	for _, st := range d.replayed {
		if st.err != nil {
			continue
		}
		n++
		rSteps += st.steps
		snaps += st.snaps
		runW += st.runWall
		stepW += st.stepWall
		engW += st.engineWall
		attribW += st.attribWall
		accel = append(accel, st.accelWalls...)
		jerk = append(jerk, st.jerkWalls...)
		jerkI += st.jerkIPlans
		substeps += st.substeps
		activeW += st.activeFrac * float64(st.evals())
		bhEvals += st.bhEvals
		hostBuild += st.hostBuild
		hostModel += st.hostModel
		bhInteract += st.bhInteract
		launches += st.launches
		items += st.items
		barriers += st.barriers
		kSec += st.kernelSec
		tSec += st.transferSec
		rFlops += st.flops
		rBytes += st.bytes
		fillW += st.deviceFill * st.kernelSec
	}
	evals := len(accel) + len(jerk)
	perStep := func(x float64) float64 { return ratio(x, float64(rSteps)) }
	put("perf.attribute_ms_per_job", ratio(ms(attribW), float64(n)), n)
	put("sim.self_ms_per_step", perStep(ms(runW-stepW)), rSteps)
	put("sim.snapshots_per_job", ratio(float64(snaps), float64(n)), n)
	put("integrate.self_ms_per_step", perStep(ms(stepW-engW)), rSteps)
	put("integrate.substeps_per_step", perStep(float64(substeps)), rSteps)
	put("integrate.active_fraction", ratio(activeW, float64(evals)), evals)
	put("core.accel_ms", nearestRank(msList(accel), 50), len(accel))
	put("core.evals_per_step", perStep(float64(evals)), rSteps)
	put("core.allocs_per_eval", mean(allocs), len(allocs))
	put("core.force_rel_err_p99", forceErr, bodies)
	put("core.jerk_ms", nearestRank(msList(jerk), 50), len(jerk))
	put("core.jerk_iparallel_frac", ratio(float64(jerkI), float64(len(jerk))), len(jerk))
	put("bh.build_ms_per_eval", ratio(hostBuild*1e3, float64(bhEvals)), bhEvals)
	put("bh.model_ms_per_eval", ratio(hostModel*1e3, float64(bhEvals)), bhEvals)
	put("bh.wall_to_model", ratio(hostBuild, hostModel), bhEvals)
	put("bh.interactions_per_eval", ratio(float64(bhInteract), float64(bhEvals)), bhEvals)
	gpuWall := engW.Seconds() - hostBuild
	put("gpusim.wall_ns_per_item", ratio(gpuWall*1e9, float64(items)), launches)
	put("gpusim.items_per_step", perStep(float64(items)), rSteps)
	put("gpusim.barriers_per_step", perStep(float64(barriers)), rSteps)
	put("gpusim.launches_per_step", perStep(float64(launches)), rSteps)
	put("gpusim.model_kernel_ms_per_step", perStep(kSec*1e3), rSteps)
	put("gpusim.model_transfer_ms_per_step", perStep(tSec*1e3), rSteps)
	put("gpusim.flops_per_byte", ratio(float64(rFlops), float64(rBytes)), launches)
	put("gpusim.device_fill", ratio(fillW, kSec), launches)

	res.GPUWallMSPerStep = perStep(gpuWall * 1e3)
	res.GPUModelMSPerStep = perStep((kSec + tSec) * 1e3)
	res.ServeMakespanS = d.makespan.Seconds()
	var latSum float64
	for _, l := range lat {
		latSum += l / 1e3
	}
	res.ServeLatencySumS = latSum
	res.ReplayWallS = d.replayWall.Seconds()
	res.ReplayRunSumS = runW.Seconds()
	return res
}
