package core

import (
	"context"
	"fmt"

	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/vec"
)

// Engine adapts a Plan to the force-engine interface the simulation driver
// (internal/sim) expects. It keeps two accountings of the modelled device
// time across the run:
//
//   - the *serial* totals (KernelSeconds, TransferSeconds, HostSeconds): the
//     per-kind sums with host and device work laid end to end — the paper's
//     "total time" basis, unchanged by the pipeline mode;
//   - the *executed* timeline: each evaluation's host chain and device chain
//     placed on a cross-step pipeline.Runner under Mode, so with
//     pipeline.Overlap step k+1's tree/list build overlaps step k's
//     transfers+kernel (the paper's implementation note 4) and
//     ExecutedSeconds reports the end-to-end overlapped time.
type Engine struct {
	Plan Plan
	// Mode selects how the executed timeline schedules consecutive
	// evaluations (default pipeline.Serial, under which the two accountings
	// coincide).
	Mode pipeline.Mode

	// Serial accumulators over all Accel calls.
	KernelSeconds   float64
	TransferSeconds float64
	HostSeconds     float64
	Flops           int64
	Interactions    int64
	Evaluations     int
	// HostBuildSeconds accumulates the *measured* wall-clock cost of the
	// host-side build across evaluations (tree + walks + flatten on the real
	// machine), next to the modelled HostSeconds.
	HostBuildSeconds float64

	// LastLaunches holds the device results of the most recent Accel call,
	// for trace export (cl.WriteMergedTrace) and PTPM reports.
	LastLaunches []*gpusim.Result
	// LastProfile is the full run profile of the most recent Accel call,
	// for perf-report export (perf.BuildPlanReport).
	LastProfile *RunProfile

	runner pipeline.Runner
	obs    *obs.Obs

	// jerk is the lazily built active-subset acceleration+jerk unit for the
	// Hermite block-timestep path; nil until the first AccelJerk call.
	jerk *jerkUnit

	// Schedule retention (RetainSchedules): the executed stage schedules of
	// every evaluation merged onto one continuous timeline, for post-run perf
	// attribution over what actually executed rather than just the last step.
	retainMax   int
	retained    pipeline.Schedule
	retainEnd   float64 // running offset: each evaluation's queue restarts at 0
	retainTrunc bool
}

// NewEngine wraps a plan.
func NewEngine(p Plan) *Engine { return &Engine{Plan: p} }

// Name implements the sim.Engine interface.
func (e *Engine) Name() string { return e.Plan.Name() }

// SetObs implements obs.Observable, forwarding the bundle to the plan (and
// through it to the bh pipeline and the cl queues).
func (e *Engine) SetObs(o *obs.Obs) {
	e.obs = o
	if p, ok := e.Plan.(obs.Observable); ok {
		p.SetObs(o)
	}
	if e.jerk != nil {
		e.jerk.setObs(o)
	}
}

// AccelContext implements the sim.ContextEngine interface. One force
// evaluation is the engine's scheduling quantum — the modelled device work is
// not preemptible — so the context is observed at evaluation boundaries: a
// cancelled or expired ctx fails the call before any work is enqueued, and a
// cancellation arriving mid-evaluation takes effect at the next call.
func (e *Engine) AccelContext(ctx context.Context, s *body.System) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// When the caller is running inside a distributed trace (the serve layer
	// threads its attempt span through ctx), each evaluation records a stamped
	// span so the merged Chrome trace links device work to the owning job.
	// Untraced runs skip the span entirely: their trace output is unchanged.
	if tc := obs.TraceContextFrom(ctx); tc.Valid() {
		sp := e.obs.Start("accel", "engine").Track(e.Name()).ChildOf(tc)
		defer sp.End()
	}
	return e.Accel(s)
}

// Accel implements the sim.Engine interface.
func (e *Engine) Accel(s *body.System) (int64, error) {
	prof, err := e.Plan.Accel(s)
	if err != nil {
		return 0, err
	}
	e.account(prof)
	return prof.Interactions, nil
}

// account folds one evaluation's RunProfile into the engine's serial
// accumulators, the executed cross-step timeline, schedule retention, and the
// telemetry gauges. Shared by the force path (Accel) and the jerk path
// (AccelJerk) so both accrue on the same accounting.
func (e *Engine) account(prof *RunProfile) {
	e.KernelSeconds += prof.Profile.KernelSeconds
	e.TransferSeconds += prof.Profile.TransferSeconds
	e.HostSeconds += prof.Profile.HostSeconds
	e.HostBuildSeconds += prof.HostBuildSeconds
	e.Flops += prof.Flops
	e.Interactions += prof.Interactions
	e.Evaluations++
	e.LastLaunches = prof.Launches
	e.LastProfile = prof

	// Place the evaluation on the executed cross-step timeline: the executed
	// stage schedule gives the host/device split.
	e.runner.Mode = e.Mode
	e.runner.AccountSchedule(prof.Schedule)
	e.retainSchedule(prof.Schedule)

	if e.obs != nil {
		e.obs.Counter("engine.evaluations").Inc()
		e.obs.Gauge("engine.model.total.seconds").Set(e.TotalSeconds())
		e.obs.Gauge("engine.model.executed.seconds").Set(e.ExecutedSeconds())
		e.obs.Gauge("engine.sustained.gflops").Set(e.SustainedGFLOPS())
		e.obs.Gauge("engine.host_build.seconds").Set(e.HostBuildSeconds)
	}
}

// SupportsJerk implements the sim.JerkEngine capability probe: the engine can
// evaluate active-subset acceleration+jerk only when its plan is one of the
// Go-kernel PP plans (the treecode has no exact jerk, and the OpenCL C source
// plans have no jerk kernel).
func (e *Engine) SupportsJerk() bool {
	if e.Plan.Kind() != KindPP {
		return false
	}
	_, ok := e.Plan.(jerkCapablePlan)
	return ok
}

// AccelJerk implements the sim.JerkEngine capability: it computes
// accelerations (into s.Acc) and jerks (into jerk) for the bodies listed in
// active, summed over all N sources, on the simulated device — the force
// path of the Hermite block-timestep integrator. The execution plan is
// re-selected per call as the active block shrinks (see jerkUnit); modelled
// time, flops and interactions accrue on the engine's usual accounting.
func (e *Engine) AccelJerk(ctx context.Context, s *body.System, active []int, jerk []vec.V3) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	p, ok := e.Plan.(jerkCapablePlan)
	if !ok || e.Plan.Kind() != KindPP {
		return 0, fmt.Errorf("core: plan %s has no jerk path", e.Plan.Name())
	}
	if e.jerk == nil {
		e.jerk = newJerkUnit(p.clContext(), p.ppParams())
		e.jerk.setObs(e.obs)
	}
	if tc := obs.TraceContextFrom(ctx); tc.Valid() {
		sp := e.obs.Start("accel-jerk", "engine").Track(e.Name()).ChildOf(tc)
		defer sp.End()
	}
	prof, err := e.jerk.eval(s, active, jerk)
	if err != nil {
		return 0, err
	}
	e.account(prof)
	return prof.Interactions, nil
}

// HostBuildTotalSeconds implements the sim.HostBuildTimedEngine capability:
// the measured wall-clock host-build time accumulated over the run.
func (e *Engine) HostBuildTotalSeconds() float64 { return e.HostBuildSeconds }

// hostWorkersPlan is implemented by plans whose walk construction can be
// capped (the BH plans).
type hostWorkersPlan interface {
	SetHostWorkers(n int)
}

// SetHostWorkers implements the sim.HostWorkersEngine capability, forwarding
// the cap to the plan when it has a host-side build stage.
func (e *Engine) SetHostWorkers(n int) {
	if p, ok := e.Plan.(hostWorkersPlan); ok {
		p.SetHostWorkers(n)
	}
}

// RetainSchedules starts a new accounting window and sets its
// executed-schedule retention: every subsequent evaluation's stage schedule
// is appended (time-shifted onto one continuous timeline) to the schedule
// RetainedSchedule returns, keeping at most maxSpans stage spans; maxSpans
// <= 0 disables retention. Calling it drops any previously retained
// schedule, zeroes the serial accumulators and restarts the executed
// timeline, so the totals cover exactly the evaluations the retained
// schedule does, summed from zero whatever the engine ran before.
func (e *Engine) RetainSchedules(maxSpans int) {
	e.retainMax = maxSpans
	e.retained = pipeline.Schedule{}
	e.retainEnd = 0
	e.retainTrunc = false
	e.KernelSeconds, e.TransferSeconds, e.HostSeconds, e.HostBuildSeconds = 0, 0, 0, 0
	e.Flops, e.Interactions, e.Evaluations = 0, 0, 0
	e.runner = pipeline.Runner{}
}

// RetainedSchedule returns a copy of the merged executed schedule accumulated
// since RetainSchedules, and whether spans were dropped to honour the cap.
// It returns nil when retention is disabled or nothing has executed.
func (e *Engine) RetainedSchedule() (*pipeline.Schedule, bool) {
	if e.retainMax <= 0 || len(e.retained.Spans) == 0 {
		return nil, false
	}
	out := pipeline.Schedule{
		Spans:           append([]pipeline.StageSpan(nil), e.retained.Spans...),
		HostWallSeconds: e.retained.HostWallSeconds,
	}
	return &out, e.retainTrunc
}

// retainSchedule merges one evaluation's schedule onto the retained timeline.
// Each evaluation's queue timeline restarts at zero (planBase resets the
// queue per Accel), so spans are shifted by the running end offset before
// appending; the offset then advances by the evaluation's latest stage end.
func (e *Engine) retainSchedule(sched *pipeline.Schedule) {
	if e.retainMax <= 0 || len(sched.Spans) == 0 {
		return
	}
	e.retained.HostWallSeconds += sched.HostWallSeconds
	var evalEnd float64
	for _, sp := range sched.Spans {
		if sp.End > evalEnd {
			evalEnd = sp.End
		}
		if len(e.retained.Spans) >= e.retainMax {
			e.retainTrunc = true
			continue
		}
		sp.Start += e.retainEnd
		sp.End += e.retainEnd
		e.retained.Spans = append(e.retained.Spans, sp)
	}
	e.retainEnd += evalEnd
}

// StartBatch implements sim.BatchEngine: it opens a window of steps whose
// evaluations may overlap on the executed timeline.
func (e *Engine) StartBatch() {
	e.runner.Mode = e.Mode
	e.runner.BeginWindow()
}

// FlushBatch implements sim.BatchEngine: it joins the pipeline (in-flight
// device work drains before the host touches the state, as at a snapshot)
// and returns the executed seconds of the window.
func (e *Engine) FlushBatch() float64 { return e.runner.EndWindow() }

// TotalSeconds returns the accumulated serial pipeline time (host and device
// chains laid end to end).
func (e *Engine) TotalSeconds() float64 {
	return e.KernelSeconds + e.TransferSeconds + e.HostSeconds
}

// ExecutedSeconds returns the end-to-end time of the executed cross-step
// timeline. Under pipeline.Serial it equals TotalSeconds; under
// pipeline.Overlap it is smaller whenever host and device chains overlap.
func (e *Engine) ExecutedSeconds() float64 { return e.runner.ExecutedSeconds() }

// SustainedGFLOPS returns useful flops over accumulated kernel time.
func (e *Engine) SustainedGFLOPS() float64 {
	if e.KernelSeconds <= 0 {
		return 0
	}
	return float64(e.Flops) / e.KernelSeconds / 1e9
}

// SustainedPipelinedGFLOPS returns useful flops over the executed timeline —
// the figure of merit the paper's pipelining argument improves.
func (e *Engine) SustainedPipelinedGFLOPS() float64 {
	t := e.ExecutedSeconds()
	if t <= 0 {
		return 0
	}
	return float64(e.Flops) / t / 1e9
}
