package sim

import (
	"context"
	"strings"

	"repro/internal/body"
	"repro/internal/obs"
	"repro/internal/vec"
)

// ContextEngine is optionally implemented by engines whose force evaluation
// can observe a context (core.Engine). RunContext prefers AccelContext over
// Accel so cancellation and deadlines propagate into the evaluation itself
// rather than only being checked between steps.
type ContextEngine interface {
	Engine
	AccelContext(ctx context.Context, s *body.System) (interactions int64, err error)
}

// ExecutedEngine is optionally implemented by engines that track an executed
// (possibly overlapped) timeline separate from their serial totals
// (core.Engine under pipeline.Overlap).
type ExecutedEngine interface {
	ExecutedSeconds() float64
}

// HostBuildTimedEngine is optionally implemented by engines that measure the
// wall-clock cost of their host-side build stage (tree + walks + flatten on
// the real machine, as opposed to the modelled pipeline time TimedEngine
// reports). Snapshots surface it as HostBuildSeconds.
type HostBuildTimedEngine interface {
	HostBuildTotalSeconds() float64
}

// HostWorkersEngine is optionally implemented by engines whose host-side
// build parallelism can be capped (0 = GOMAXPROCS, 1 = serial). RunContext
// applies Config.HostWorkers through it.
type HostWorkersEngine interface {
	SetHostWorkers(n int)
}

// JerkEngine is optionally implemented by engines that can evaluate
// active-subset acceleration+jerk — the extended force path the Hermite
// block-timestep integrator needs (integrate.BlockForceFunc). SupportsJerk
// lets an engine type implement the interface while declining the capability
// for configurations without a jerk path (core.Engine over a treecode plan);
// Caps records the capability only when it returns true, and RunContext falls
// back to the CPU reference pp.ScalarJerk otherwise.
type JerkEngine interface {
	SupportsJerk() bool
	AccelJerk(ctx context.Context, s *body.System, active []int, jerk []vec.V3) (int64, error)
}

// EngineCaps is the single probe for every optional capability an Engine may
// implement on top of the required Accel/Name pair. Run, RunContext and the
// job service (internal/serve) all discover capabilities through Caps rather
// than scattering their own type assertions; a field is nil when the engine
// does not implement the corresponding interface.
//
// The optional interfaces are deliberately independent: an engine may
// implement any subset, and everything in this module degrades gracefully —
// no timing in snapshots without Timed, no cross-step overlap without Batch,
// cancellation checked only between steps without Context.
type EngineCaps struct {
	// Timed reports accumulated engine time (Snapshot.EngineSeconds).
	Timed TimedEngine
	// Batch supports windowed cross-step pipelining (Config.PipelineWindow).
	Batch BatchEngine
	// Context supports in-evaluation cancellation (RunContext).
	Context ContextEngine
	// Executed reports the overlapped timeline (Snapshot.EngineExecutedSeconds).
	Executed ExecutedEngine
	// Observable accepts a telemetry bundle after construction.
	Observable obs.Observable
	// HostBuildTimed reports measured host-build time (Snapshot.HostBuildSeconds).
	HostBuildTimed HostBuildTimedEngine
	// HostWorkers accepts a host-build parallelism cap (Config.HostWorkers).
	HostWorkers HostWorkersEngine
	// Jerk evaluates active-subset acceleration+jerk for the Hermite
	// block-timestep path; nil when the engine declines SupportsJerk.
	Jerk JerkEngine
}

// Caps probes eng for every optional capability.
func Caps(eng Engine) EngineCaps {
	var c EngineCaps
	c.Timed, _ = eng.(TimedEngine)
	c.Batch, _ = eng.(BatchEngine)
	c.Context, _ = eng.(ContextEngine)
	c.Executed, _ = eng.(ExecutedEngine)
	c.Observable, _ = eng.(obs.Observable)
	c.HostBuildTimed, _ = eng.(HostBuildTimedEngine)
	c.HostWorkers, _ = eng.(HostWorkersEngine)
	if j, ok := eng.(JerkEngine); ok && j.SupportsJerk() {
		c.Jerk = j
	}
	return c
}

// Accel evaluates forces through the richest implemented path: AccelContext
// when the engine is context-aware, plain Accel otherwise.
func (c EngineCaps) Accel(ctx context.Context, eng Engine, s *body.System) (int64, error) {
	if c.Context != nil {
		return c.Context.AccelContext(ctx, s)
	}
	return eng.Accel(s)
}

// String lists the implemented capabilities ("timed,batch,context,executed,
// observable,hostbuild,hostworkers" for core.Engine; "" for a bare Engine) —
// used by reports and the job service's status output.
func (c EngineCaps) String() string {
	var parts []string
	if c.Timed != nil {
		parts = append(parts, "timed")
	}
	if c.Batch != nil {
		parts = append(parts, "batch")
	}
	if c.Context != nil {
		parts = append(parts, "context")
	}
	if c.Executed != nil {
		parts = append(parts, "executed")
	}
	if c.Observable != nil {
		parts = append(parts, "observable")
	}
	if c.HostBuildTimed != nil {
		parts = append(parts, "hostbuild")
	}
	if c.HostWorkers != nil {
		parts = append(parts, "hostworkers")
	}
	if c.Jerk != nil {
		parts = append(parts, "jerk")
	}
	return strings.Join(parts, ",")
}
