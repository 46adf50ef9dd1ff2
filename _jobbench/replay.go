package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/pp"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vec"
)

// The replay runs each job in-process through the public entry points the
// job service uses (core.NewEngineByName with the pool's options,
// integrate.New, sim.RunContext with the job's config) and times every layer
// from the outside: timedEngine wraps the engine, timedIntegrator the
// integrator. Their spans go to a tracer the benchmark owns; the program's
// own always-on telemetry goes to a separate bundle, as it does in the
// service.

// Run-time defaults the service applies to a spec (serve.Service.attempt).
const (
	defaultTheta          = 0.6
	defaultEps            = 0.05
	defaultPipelineWindow = 8
	maxRetainedSpans      = 100_000
)

// jobStats is everything the replay measured for one job.
type jobStats struct {
	err   error
	final sim.Snapshot
	snaps int
	steps int

	runWall    time.Duration // sim.RunContext
	stepWall   time.Duration // Σ Integrator.Step
	engineWall time.Duration // Σ engine calls, accel and jerk
	attribWall time.Duration // perf attribution after the run
	accelWalls []time.Duration
	jerkWalls  []time.Duration
	jerkIPlans int // jerk calls the unit ran as i-parallel
	substeps   int64
	activeFrac float64

	bhEvals     int
	hostBuild   float64 // measured host build seconds of the BH evaluations
	hostModel   float64 // modelled (PaperHost) host seconds of the same
	bhInteract  int64
	launches    int
	items       int64
	barriers    int64
	kernelSec   float64
	transferSec float64
	flops       int64
	bytes       int64
	deviceFill  float64
}

// evals is the number of engine calls the job made.
func (st *jobStats) evals() int { return len(st.accelWalls) + len(st.jerkWalls) }

// account folds one evaluation's profile into the job's counters.
func (st *jobStats) account(prof *core.RunProfile, kind core.Kind) {
	if prof == nil {
		return
	}
	if kind == core.KindBH {
		st.bhEvals++
		st.hostBuild += prof.HostBuildSeconds
		st.hostModel += prof.Profile.HostSeconds
		st.bhInteract += prof.Interactions
	}
	st.launches += len(prof.Launches)
	for _, r := range prof.Launches {
		st.items += int64(r.Params.Global)
		for i := range r.Groups {
			st.barriers += r.Groups[i].Barriers
		}
		st.flops += r.TotalFlops()
		c, s := r.TotalBytes()
		st.bytes += c + s
	}
	st.kernelSec += prof.Profile.KernelSeconds
	st.transferSec += prof.Profile.TransferSeconds
}

// timedEngine embeds the engine, so every sim.Caps capability stays, and
// times the two force entry points.
type timedEngine struct {
	*core.Engine
	tr    *obs.Tracer
	jobID string
	st    *jobStats
}

// AccelContext implements sim.ContextEngine.
func (e *timedEngine) AccelContext(ctx context.Context, s *body.System) (int64, error) {
	sp := e.tr.StartCtx(ctx, "core.accel", "bench").Arg("job_id", e.jobID)
	start := time.Now()
	n, err := e.Engine.AccelContext(ctx, s)
	d := time.Since(start)
	sp.End()
	e.st.engineWall += d
	e.st.accelWalls = append(e.st.accelWalls, d)
	if err == nil {
		e.st.account(e.Engine.LastProfile, e.Engine.Plan.Kind())
	}
	return n, err
}

// AccelJerk implements sim.JerkEngine.
func (e *timedEngine) AccelJerk(ctx context.Context, s *body.System, active []int, jerk []vec.V3) (int64, error) {
	sp := e.tr.StartCtx(ctx, "core.jerk", "bench").Arg("job_id", e.jobID).Arg("active", len(active))
	start := time.Now()
	n, err := e.Engine.AccelJerk(ctx, s, active, jerk)
	d := time.Since(start)
	sp.End()
	e.st.engineWall += d
	e.st.jerkWalls = append(e.st.jerkWalls, d)
	if err == nil {
		if p := e.Engine.LastProfile; p != nil && p.Plan == "jerk:i-parallel" {
			e.st.jerkIPlans++
		}
		e.st.account(e.Engine.LastProfile, core.KindPP)
	}
	return n, err
}

// timedIntegrator times Integrator.Step under a span of the job's run.
type timedIntegrator struct {
	integrate.Integrator
	tr     *obs.Tracer
	parent obs.TraceContext
	jobID  string
	st     *jobStats
}

// Step implements integrate.Integrator.
func (t *timedIntegrator) Step(s *body.System, dt float32, force integrate.ForceFunc) int64 {
	sp := t.tr.Start("integrate.step", "bench").ChildOf(t.parent).Arg("job_id", t.jobID)
	start := time.Now()
	n := t.Integrator.Step(s, dt, force)
	t.st.stepWall += time.Since(start)
	sp.End()
	return n
}

// timedBlockIntegrator keeps the block-timestep capability sim.RunContext
// probes for.
type timedBlockIntegrator struct {
	*timedIntegrator
	block integrate.BlockIntegrator
}

// SetBlockForce implements integrate.BlockIntegrator.
func (t timedBlockIntegrator) SetBlockForce(f integrate.BlockForceFunc) { t.block.SetBlockForce(f) }

// replayer builds engines exactly as the service pool does, one cache per
// replay worker.
type replayer struct {
	dev gpusim.DeviceConfig
	// program is the telemetry bundle the engines and sim.RunContext record
	// into, as the service's bundle does; tr holds the benchmark's spans.
	program *obs.Obs
	tr      *obs.Tracer
	caches  []map[string]*core.Engine
}

func newReplayer(dev gpusim.DeviceConfig, workers int) *replayer {
	r := &replayer{dev: dev, program: obs.New(), tr: obs.NewTracer()}
	for i := 0; i < workers; i++ {
		r.caches = append(r.caches, map[string]*core.Engine{})
	}
	return r
}

// engine returns worker w's engine for the plan, building it on first use.
func (r *replayer) engine(w int, plan string, theta, eps float64) (*core.Engine, error) {
	key := fmt.Sprintf("%s|t=%g|e=%g", plan, theta, eps)
	if e, ok := r.caches[w][key]; ok {
		return e, nil
	}
	params := pp.DefaultParams()
	params.Eps = float32(eps)
	opt := bh.DefaultOptions()
	opt.Theta = float32(theta)
	opt.Eps = float32(eps)
	e, err := core.NewEngineByName(plan,
		core.WithDevice(r.dev),
		core.WithPPParams(params),
		core.WithBHOptions(opt),
		core.WithObs(r.program))
	if err != nil {
		return nil, err
	}
	r.caches[w][key] = e
	return e, nil
}

// forceParams returns the spec's theta and eps with the service defaults.
func forceParams(spec *serve.JobSpec) (theta, eps float64) {
	theta, eps = spec.Theta, spec.Eps
	if theta == 0 {
		theta = defaultTheta
	}
	if eps == 0 {
		eps = defaultEps
	}
	return theta, eps
}

// runJob replays one job on worker w's engine.
func (r *replayer) runJob(w int, jobID string, spec *serve.JobSpec) *jobStats {
	st := &jobStats{steps: spec.Steps}
	theta, eps := forceParams(spec)
	eng, err := r.engine(w, spec.Plan, theta, eps)
	if err != nil {
		st.err = err
		return st
	}
	sys, err := spec.System()
	if err != nil {
		st.err = err
		return st
	}
	integName := spec.Integrator
	if integName == "" {
		integName = "leapfrog"
	}
	integ, err := integrate.New(integName)
	if err != nil {
		st.err = err
		return st
	}
	if h, ok := integ.(*integrate.Hermite); ok {
		// sim.RunContext applies these only to a bare *integrate.Hermite.
		if spec.Eta > 0 {
			h.Eta = float32(spec.Eta)
		}
		if spec.DTMin > 0 {
			h.DTMin = float32(spec.DTMin)
		}
		if spec.DTMax > 0 {
			h.DTMax = float32(spec.DTMax)
		}
	}
	window := 0
	eng.Mode = pipeline.Serial
	if spec.Pipeline == "overlap" {
		window = spec.PipelineWindow
		if window < 2 {
			window = defaultPipelineWindow
		}
		eng.Mode = pipeline.Overlap
	}
	eng.RetainSchedules(maxRetainedSpans)
	defer eng.RetainSchedules(0)

	jobTC := obs.NewTraceContext()
	jobSpan := r.tr.Start("job", "bench").Trace(jobTC).Arg("job_id", jobID).Arg("plan", spec.Plan)
	defer jobSpan.End()
	runSpan := r.tr.Start("sim.run", "bench").ChildOf(jobTC).Arg("job_id", jobID)
	ctx := obs.WithTraceContext(context.Background(), runSpan.TraceContext())

	te := &timedEngine{Engine: eng, tr: r.tr, jobID: jobID, st: st}
	ti := &timedIntegrator{Integrator: integ, tr: r.tr, parent: runSpan.TraceContext(), jobID: jobID, st: st}
	var wrapped integrate.Integrator = ti
	if bi, ok := integ.(integrate.BlockIntegrator); ok {
		wrapped = timedBlockIntegrator{timedIntegrator: ti, block: bi}
	}

	start := time.Now()
	snaps, err := sim.RunContext(ctx, sys, te, wrapped, sim.Config{
		DT:             float32(spec.DT),
		Steps:          spec.Steps,
		SnapshotEvery:  spec.SnapshotEvery,
		G:              1,
		Eps:            eps,
		Integrator:     integName,
		Scenario:       spec.ScenarioName(),
		Obs:            r.program,
		PipelineWindow: window,
	})
	st.runWall = time.Since(start)
	runSpan.End()
	if err != nil {
		st.err = err
		return st
	}
	st.snaps = len(snaps)
	if len(snaps) > 0 {
		st.final = snaps[len(snaps)-1]
	}
	st.activeFrac = 1
	if h, ok := integ.(*integrate.Hermite); ok {
		st.substeps = h.Substeps()
		st.activeFrac = h.MeanActiveFraction()
	}

	// Attribute the executed schedule as the service does when an attempt
	// ends (serve.buildJobPerf).
	aStart := time.Now()
	if sched, _ := eng.RetainedSchedule(); sched != nil {
		_ = perf.AttributeExecuted(sched)
		st.deviceFill = weightedDeviceFill(r.dev, sched.Launches())
	}
	st.attribWall = time.Since(aStart)
	return st
}

// weightedDeviceFill is the kernel-time-weighted mean device fill over the
// launches, the figure /perf reports as device_fill.
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

// replayAll replays every job, one worker per engine cache as the service
// runs one job per engine slot, and returns the stats in job order and the
// replay's wall time.
func (r *replayer) replayAll(specs []serve.JobSpec) ([]*jobStats, time.Duration) {
	out := make([]*jobStats, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range r.caches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				out[k] = r.runJob(w, fmt.Sprintf("replay-%d", k+1), &specs[k])
			}
		}()
	}
	for k := range specs {
		next <- k
	}
	close(next)
	wg.Wait()
	return out, time.Since(start)
}

// forceCheck is one plan's force accuracy against the CPU direct sum.
type forceCheck struct {
	plan      string
	p99, tol  float64
	bodies    int
	allocsPer float64 // heap allocations per evaluation on a warm engine
}

// checkBodies is how many bodies each plan's force check pools, so its p99
// rests on some forty bodies beyond it whatever the job sizes.
const checkBodies = 4096

// checkForces evaluates each plan on the workload's first jobs of that plan,
// until checkBodies bodies are pooled, spreading them over the workers'
// engines (which also warms the replay caches), and compares the
// accelerations with a float64 CPU direct sum. It then counts the heap
// allocations of a steady-state evaluation: the plain force path, or an
// active-block jerk evaluation for Hermite jobs.
func (r *replayer) checkForces(plans []string, specs []serve.JobSpec) ([]forceCheck, error) {
	var out []forceCheck
	for _, plan := range plans {
		fc := forceCheck{plan: plan, tol: 1e-4}
		var errs []float64
		var eng *core.Engine
		var first *serve.JobSpec
		systems := 0
		for k := range specs {
			spec := &specs[k]
			if spec.Plan != plan {
				continue
			}
			if len(errs) >= checkBodies && systems >= len(r.caches) {
				break
			}
			if first == nil {
				first = spec
			}
			sys, err := spec.System()
			if err != nil {
				return nil, err
			}
			theta, eps := forceParams(spec)
			if eng, err = r.engine(systems%len(r.caches), plan, theta, eps); err != nil {
				return nil, err
			}
			systems++
			got := sys.Clone()
			if _, err := eng.Accel(got); err != nil {
				return nil, fmt.Errorf("plan %s: %w", plan, err)
			}
			errs = appendRelErrs(errs, directSum64(sys, float64(float32(eps))), got.Acc)
		}
		if first == nil {
			return nil, fmt.Errorf("no job uses plan %s", plan)
		}
		fc.p99, fc.bodies = nearestRank(errs, 99), len(errs)
		if eng.Plan.Kind() == core.KindBH {
			// The treecode's opening-angle error at theta 0.6, not rounding.
			fc.tol = 0.05
		}
		sys, err := first.System()
		if err != nil {
			return nil, err
		}
		if fc.allocsPer, err = allocsPerEval(eng, sys, first.Integrator == "hermite"); err != nil {
			return nil, fmt.Errorf("plan %s: %w", plan, err)
		}
		out = append(out, fc)
	}
	return out, nil
}

// directSum64 is the softened direct sum of pp.AccumulateInto (G = 1) in
// float64, so the reference carries no float32 rounding of its own.
func directSum64(s *body.System, eps float64) [][3]float64 {
	acc := make([][3]float64, s.N())
	eps2 := eps * eps
	for i, pi := range s.Pos {
		for j, pj := range s.Pos {
			dx := float64(pj.X) - float64(pi.X)
			dy := float64(pj.Y) - float64(pi.Y)
			dz := float64(pj.Z) - float64(pi.Z)
			r2 := dx*dx + dy*dy + dz*dz + eps2
			if r2 == 0 {
				continue
			}
			f := float64(s.Mass[j]) / (r2 * math.Sqrt(r2))
			acc[i][0] += dx * f
			acc[i][1] += dy * f
			acc[i][2] += dz * f
		}
	}
	return acc
}

// appendRelErrs appends each body's relative error |got-want|/|want|.
func appendRelErrs(errs []float64, want [][3]float64, got []vec.V3) []float64 {
	for i, w := range want {
		dx := float64(got[i].X) - w[0]
		dy := float64(got[i].Y) - w[1]
		dz := float64(got[i].Z) - w[2]
		n := math.Sqrt(w[0]*w[0] + w[1]*w[1] + w[2]*w[2])
		errs = append(errs, math.Sqrt(dx*dx+dy*dy+dz*dz)/math.Max(n, 1e-12))
	}
	return errs
}

// allocsPerEval counts the mean heap allocations of one evaluation on a warm
// engine. It runs before the timed window, with nothing else running.
func allocsPerEval(eng *core.Engine, sys *body.System, jerk bool) (float64, error) {
	s := sys.Clone()
	eval := func() error { _, err := eng.Accel(s); return err }
	if jerk {
		// A tenth of the bodies active, the typical Hermite block.
		var active []int
		for i := 0; i < s.N(); i += 10 {
			active = append(active, i)
		}
		j := make([]vec.V3, s.N())
		eval = func() error { _, err := eng.AccelJerk(context.Background(), s, active, j); return err }
	}
	if err := eval(); err != nil {
		return 0, err
	}
	const evals = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < evals; i++ {
		if err := eval(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / evals, nil
}
