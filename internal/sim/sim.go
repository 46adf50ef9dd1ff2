// Package sim couples a force engine to a time integrator and drives the
// simulation loop, tracking the diagnostics (energy, momentum, interaction
// counts) that the examples and conservation tests consume.
package sim

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/diag"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pp"
	"repro/internal/vec"
)

// Engine computes accelerations for a system. Implementations include the
// CPU direct sum, the CPU treecode, and (via internal/core) the four GPU
// plans.
type Engine interface {
	// Accel fills s.Acc for the current positions and returns the number of
	// interactions evaluated.
	Accel(s *body.System) (interactions int64, err error)
	// Name identifies the engine for reports.
	Name() string
}

// DirectEngine is the CPU particle-particle engine.
type DirectEngine struct {
	Params  pp.Params
	Workers int // goroutines; <= 0 means GOMAXPROCS, 1 forces the scalar loop
}

// Name implements Engine.
func (e *DirectEngine) Name() string { return "cpu-pp" }

// Accel implements Engine.
func (e *DirectEngine) Accel(s *body.System) (int64, error) {
	if e.Workers == 1 {
		return pp.Scalar(s, e.Params), nil
	}
	return pp.Parallel(s, e.Params, e.Workers), nil
}

// TreeEngine is the CPU Barnes-Hut engine. The tree is rebuilt every call
// through a pooled bh.Builder, so steady-state steps reuse the arenas of the
// previous step instead of reallocating them.
type TreeEngine struct {
	Opt     bh.Options
	Workers int // force-evaluation goroutines; <= 0 means GOMAXPROCS

	// builder owns the pooled tree arenas. cpu-bh builds no walks, so the
	// builder's Workers cap does not apply.
	builder     bh.Builder
	hostSeconds float64
}

// Name implements Engine.
func (e *TreeEngine) Name() string { return "cpu-bh" }

// Accel implements Engine.
func (e *TreeEngine) Accel(s *body.System) (int64, error) {
	start := time.Now()
	t, err := e.builder.BuildInto(s, e.Opt)
	if err != nil {
		return 0, err
	}
	e.hostSeconds += time.Since(start).Seconds()
	st := t.Accel(e.Workers)
	return st.Interactions, nil
}

// HostBuildTotalSeconds implements HostBuildTimedEngine: accumulated
// wall-clock tree-build time.
func (e *TreeEngine) HostBuildTotalSeconds() float64 { return e.hostSeconds }

// Snapshot records diagnostics at one instant of a run.
type Snapshot struct {
	Step         int
	Time         float64
	Kinetic      float64
	Potential    float64
	Total        float64
	Momentum     vec.D3  // total linear momentum
	VirialRatio  float64 // -K/U; 0.5 is equilibrium
	Interactions int64   // cumulative since the start of the run
	// WallSeconds is the real time spent inside integrator steps since the
	// start of the run (diagnostics excluded).
	WallSeconds float64
	// EngineSeconds is the engine-reported accumulated time — for the GPU
	// plans, the modelled device pipeline time (see core.Engine). Zero when
	// the engine does not report timing.
	EngineSeconds float64
	// EngineExecutedSeconds is the engine's executed (possibly overlapped)
	// timeline; equals EngineSeconds when the engine runs serially and zero
	// when the engine does not track an executed timeline.
	EngineExecutedSeconds float64
	// HostBuildSeconds is the engine's accumulated *measured* host-build
	// wall-clock time (tree + walks + flatten on this machine). Zero when the
	// engine does not measure it.
	HostBuildSeconds float64
}

// TimedEngine is optionally implemented by engines that account their own
// accumulated time (core.Engine reports the modelled device pipeline time).
type TimedEngine interface {
	TotalSeconds() float64
}

// BatchEngine is optionally implemented by engines whose force evaluations
// can overlap across steps (core.Engine with pipeline.Overlap). Run hands
// such an engine a window of steps: StartBatch opens the window, FlushBatch
// joins the pipeline — in-flight device work must drain before the host
// reads the full state, as at a snapshot — and returns the window's executed
// seconds on the engine's modelled timeline.
type BatchEngine interface {
	Engine
	StartBatch()
	FlushBatch() float64
}

// Config configures a run.
type Config struct {
	DT    float32 // time step
	Steps int     // number of steps
	// Integrator names the scheme (see integrate.Names) to construct when the
	// caller passes a nil integrator to Run/RunContext; "" means leapfrog.
	// Ignored when an integrator instance is supplied.
	Integrator string
	// Scenario names the initial-condition family the system was generated
	// from ("plummer", "collision", ...). It selects the per-scenario watchdog
	// tolerances when Watchdog is nil (see ScenarioWatchdog); "" or "explicit"
	// leaves the watchdog off.
	Scenario string
	// DTMin, DTMax and Eta configure the Hermite block-timestep hierarchy
	// (integrate.Hermite fields of the same names) when the run uses a Hermite
	// integrator; zero values keep the integrator's own defaults, and the
	// fields are ignored by single-rate integrators.
	DTMin, DTMax float32
	Eta          float32
	// SnapshotEvery records diagnostics every k steps (and always at step 0
	// and the final step). Zero disables intermediate snapshots. Each
	// snapshot evaluates the exact O(N^2) float64 potential,
	// body.System.PotentialEnergy, on the calling goroutine, so at large N
	// a snapshot costs wall time of the order of a force evaluation.
	SnapshotEvery int
	// G and Eps are used only for the energy diagnostics; they should match
	// the engine's parameters.
	G, Eps float64
	// Log, when non-nil, receives a one-line report per snapshot.
	Log io.Writer
	// Obs, when non-nil, receives a span per integrator step, per-step
	// timing metrics (sim.step.ms histogram, sim.steps counter), and
	// per-snapshot conservation gauges (sim.energy_drift,
	// sim.momentum_norm, sim.virial_ratio).
	Obs *obs.Obs
	// Watchdog, when non-nil, checks conservation at every snapshot and
	// aborts the run (returning the snapshots recorded so far alongside the
	// *perf.Violation) once a tolerance is exceeded. Snapshots are the
	// check cadence: set SnapshotEvery to bound how far a broken run can
	// proceed.
	Watchdog *perf.Watchdog
	// HostWorkers, when non-zero and the engine implements
	// HostWorkersEngine, caps the engine's host-side build parallelism
	// (1 = serial; engines default to GOMAXPROCS).
	HostWorkers int
	// PipelineWindow, when > 1 and the engine implements BatchEngine, groups
	// that many consecutive steps into one pipeline window: the engine may
	// overlap evaluations within the window, and Run joins the pipeline at
	// window boundaries and before every snapshot. <= 1 runs every step to
	// completion (serial).
	PipelineWindow int
	// OnSnapshot, when non-nil, receives every snapshot as it is recorded
	// (the job service streams them to HTTP clients this way). A non-nil
	// return aborts the run with that error; the snapshots recorded so far
	// are still returned.
	OnSnapshot func(Snapshot) error
}

// Run advances the system and returns the recorded snapshots. It is
// RunContext under a background context: no deadline, no cancellation, and
// trajectory output identical to the pre-context API.
func Run(s *body.System, eng Engine, integ integrate.Integrator, cfg Config) ([]Snapshot, error) {
	return RunContext(context.Background(), s, eng, integ, cfg) // repocheck:allow ctxpropagate -- Run is the documented context-less compatibility wrapper; the root context is its contract
}

// RunContext advances the system and returns the recorded snapshots,
// honoring ctx between integrator steps: when ctx is cancelled or its
// deadline passes, the run stops before the next step, joins any open
// pipeline window so the engine is reusable, and returns the snapshots
// recorded so far alongside the context's error. Engines that implement
// ContextEngine additionally observe ctx inside each force evaluation.
func RunContext(ctx context.Context, s *body.System, eng Engine, integ integrate.Integrator, cfg Config) ([]Snapshot, error) {
	if cfg.DT <= 0 {
		return nil, fmt.Errorf("sim: non-positive dt %g", cfg.DT)
	}
	if cfg.Steps < 0 {
		return nil, fmt.Errorf("sim: negative step count %d", cfg.Steps)
	}
	if integ == nil {
		name := cfg.Integrator
		if name == "" {
			name = "leapfrog"
		}
		var err error
		integ, err = integrate.New(name)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if cfg.Watchdog == nil && cfg.Scenario != "" {
		cfg.Watchdog = ScenarioWatchdog(cfg.Scenario)
	}
	caps := Caps(eng)
	if cfg.HostWorkers != 0 && caps.HostWorkers != nil {
		caps.HostWorkers.SetHostWorkers(cfg.HostWorkers)
	}
	var engineErr error
	// forceCtx is swapped per step so a traced run's engine evaluations chain
	// under that step's span; an untraced run keeps ctx as-is.
	forceCtx := ctx
	force := func(sys *body.System) int64 {
		n, err := caps.Accel(forceCtx, eng, sys)
		if err != nil && engineErr == nil {
			engineErr = err
		}
		return n
	}

	// Block-timestep integrators need the extended acceleration+jerk path:
	// wire the richest implementation available — the engine's simulated-GPU
	// jerk kernels with their per-block plan selector when the Jerk capability
	// is present, the CPU reference otherwise. Each block substep records a
	// span under the current step and feeds the active-fraction telemetry.
	if bi, ok := integ.(integrate.BlockIntegrator); ok {
		if h, isHermite := integ.(*integrate.Hermite); isHermite {
			if cfg.Eta > 0 {
				h.Eta = cfg.Eta
			}
			if cfg.DTMin > 0 {
				h.DTMin = cfg.DTMin
			}
			if cfg.DTMax > 0 {
				h.DTMax = cfg.DTMax
			}
		}
		blockParams := pp.Params{G: float32(cfg.G), Eps: float32(cfg.Eps)}
		if blockParams.G == 0 {
			blockParams.G = 1
		}
		bi.SetBlockForce(func(sys *body.System, active []int, jerk []vec.V3) int64 {
			sp := cfg.Obs.StartCtx(forceCtx, "block", "sim").Track(integ.Name()).Arg("active", len(active))
			defer sp.End()
			var n int64
			if caps.Jerk != nil {
				var err error
				n, err = caps.Jerk.AccelJerk(forceCtx, sys, active, jerk)
				if err != nil && engineErr == nil {
					engineErr = err
				}
			} else {
				n = pp.ScalarJerk(sys, active, jerk, blockParams)
			}
			if nb := sys.N(); nb > 0 {
				cfg.Obs.Gauge("sim.block.active_fraction").Set(float64(len(active)) / float64(nb))
			}
			cfg.Obs.Counter("sim.block.substeps").Inc()
			return n
		})
	}

	timed := caps.Timed
	batch := caps.Batch
	useBatch := batch != nil && cfg.PipelineWindow > 1

	var snaps []Snapshot
	var cumInteractions int64
	var wallSeconds float64
	var e0 float64
	var p0 vec.D3
	record := func(step int) error {
		k := s.KineticEnergy()
		p := s.PotentialEnergy(cfg.G, cfg.Eps)
		sn := Snapshot{
			Step:         step,
			Time:         float64(step) * float64(cfg.DT),
			Kinetic:      k,
			Potential:    p,
			Total:        k + p,
			Momentum:     s.Momentum(),
			VirialRatio:  diag.VirialFromEnergies(k, p),
			Interactions: cumInteractions,
			WallSeconds:  wallSeconds,
		}
		if timed != nil {
			sn.EngineSeconds = timed.TotalSeconds()
		}
		if caps.Executed != nil {
			sn.EngineExecutedSeconds = caps.Executed.ExecutedSeconds()
		}
		if caps.HostBuildTimed != nil {
			sn.HostBuildSeconds = caps.HostBuildTimed.HostBuildTotalSeconds()
		}
		if len(snaps) == 0 {
			e0 = sn.Total
			p0 = sn.Momentum
		}
		den := e0
		if den < 0 {
			den = -den
		}
		if den == 0 {
			den = 1
		}
		drift := sn.Total - e0
		if drift < 0 {
			drift = -drift
		}
		cfg.Obs.Gauge("sim.energy_drift").Set(drift / den)
		cfg.Obs.Gauge("sim.momentum_norm").Set(sn.Momentum.Sub(p0).Norm())
		cfg.Obs.Gauge("sim.virial_ratio").Set(sn.VirialRatio)
		cfg.Obs.Gauge("sim.host_build.seconds").Set(sn.HostBuildSeconds)
		snaps = append(snaps, sn)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "step %6d  t=%8.4f  E=%+.6f  K=%.6f  U=%+.6f  interactions=%d  wall=%.3fs  engine=%.4fs\n",
				sn.Step, sn.Time, sn.Total, sn.Kinetic, sn.Potential, sn.Interactions, sn.WallSeconds, sn.EngineSeconds)
		}
		if err := cfg.Watchdog.Check(step, k, p, sn.Momentum); err != nil {
			return fmt.Errorf("sim: %s halted: %w", eng.Name(), err)
		}
		if cfg.OnSnapshot != nil {
			if err := cfg.OnSnapshot(sn); err != nil {
				return fmt.Errorf("sim: snapshot sink at step %d: %w", step, err)
			}
		}
		return nil
	}

	if err := record(0); err != nil {
		return snaps, err
	}
	windowOpen := false
	windowSteps := 0
	for step := 1; step <= cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			// Join the pipeline before bailing so the engine's executed
			// timeline is consistent and the engine can be handed the next
			// job (the serve pool relies on this).
			if windowOpen {
				batch.FlushBatch()
			}
			return snaps, fmt.Errorf("sim: %s cancelled before step %d: %w", eng.Name(), step, err)
		}
		if useBatch && !windowOpen {
			batch.StartBatch()
			windowOpen = true
			windowSteps = 0
		}
		// StartCtx chains the step under whatever trace position the caller
		// put in ctx (the serve layer's attempt span); a bare Run records the
		// same unstamped span as before.
		sp := cfg.Obs.StartCtx(ctx, "step", "sim").Track(eng.Name()).Arg("step", step)
		forceCtx = obs.WithTraceContext(ctx, sp.TraceContext())
		begin := time.Now()
		cumInteractions += integ.Step(s, cfg.DT, force)
		stepSeconds := time.Since(begin).Seconds()
		sp.End()
		wallSeconds += stepSeconds
		cfg.Obs.Counter("sim.steps").Inc()
		cfg.Obs.Histogram("sim.step.ms", obs.DefaultMillisBuckets).Observe(stepSeconds * 1e3)
		if engineErr != nil {
			return snaps, fmt.Errorf("sim: engine %s failed at step %d: %w", eng.Name(), step, engineErr)
		}
		windowSteps++
		takeSnap := (cfg.SnapshotEvery > 0 && step%cfg.SnapshotEvery == 0) || step == cfg.Steps
		// A snapshot reads the whole state on the host, so it is a pipeline
		// barrier: join before recording, exactly like a window boundary.
		if windowOpen && (windowSteps >= cfg.PipelineWindow || takeSnap) {
			batch.FlushBatch()
			windowOpen = false
		}
		if takeSnap {
			if err := record(step); err != nil {
				return snaps, err
			}
		}
	}
	return snaps, nil
}

// EnergyDrift returns the maximum relative deviation |E(t)-E(0)| / |E(0)|
// across the snapshots — the conservation metric used by tests.
func EnergyDrift(snaps []Snapshot) float64 {
	if len(snaps) == 0 {
		return 0
	}
	e0 := snaps[0].Total
	den := e0
	if den < 0 {
		den = -den
	}
	if den == 0 {
		den = 1
	}
	var worst float64
	for _, sn := range snaps {
		d := sn.Total - e0
		if d < 0 {
			d = -d
		}
		if r := d / den; r > worst {
			worst = r
		}
	}
	return worst
}
