package perf

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/pp"
	"repro/internal/vec"
)

// BenchSchemaVersion identifies the BENCH_*.json layout; bump on breaking
// changes and regenerate the committed BENCH files with cmd/bench -out,
// because ReadBenchReport reads only the current version.
//
// v2 added the pipeline mode and the per-point pipelined time / speedup
// columns; v3 added the measured host-build time and allocations-per-step
// columns; v4 added the per-point activeFraction column and the Hermite
// block-timestep sweep point.
const BenchSchemaVersion = 4

// PlanNames lists the four plans in the paper's presentation order.
var PlanNames = []string{"i-parallel", "j-parallel", "w-parallel", "jw-parallel"}

// BenchConfig parameterises a benchmark sweep.
type BenchConfig struct {
	// Plans to sweep; nil selects all four of PlanNames.
	Plans []string
	// Sizes is the body-count sweep (ascending).
	Sizes []int
	// Repeats is the number of timed repetitions per (plan, N) point; the
	// modelled metrics are deterministic, so the repeats exist to estimate
	// wall-clock variance (and to catch nondeterminism if it ever appears).
	Repeats int
	// Theta, Eps and Seed configure the workload/treecode as in the paper.
	Theta, Eps float32
	Seed       uint64
	// Pipeline selects how consecutive evaluations are placed on the executed
	// timeline: pipeline.Serial (the default) lays them end to end;
	// pipeline.Overlap double-buffers host against device work across repeats
	// (the paper's implementation note 4), which the PipelinedMS column
	// measures.
	Pipeline pipeline.Mode
	// Hermite adds the Hermite block-timestep sweep point: one extra point at
	// the smallest configured size driving the i-parallel jerk path through
	// the block scheduler, whose ActiveFraction column records how much of
	// the system the average block touched.
	Hermite bool
	// Device is the modelled GPU.
	Device gpusim.DeviceConfig
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer
	// TraceOut, when non-nil, receives the merged host+device Chrome trace
	// of the sweep's final point.
	TraceOut io.Writer
}

// DefaultBenchConfig returns the tracked sweep: the lower half of the
// paper's N range (where the plan regimes differ most) on the HD 5850 model.
func DefaultBenchConfig() BenchConfig {
	return BenchConfig{
		Sizes:   []int{1024, 2048, 4096, 8192, 16384},
		Repeats: 3,
		Theta:   0.6,
		Eps:     0.05,
		Seed:    20110511,
		Hermite: true,
		Device:  gpusim.HD5850(),
	}
}

// QuickBenchConfig returns a reduced sweep for CI smoke jobs and tests.
func QuickBenchConfig() BenchConfig {
	c := DefaultBenchConfig()
	c.Sizes = []int{512, 1024, 2048}
	c.Repeats = 2
	return c
}

// Stat summarises repeated observations of one metric.
type Stat struct {
	Mean    float64 `json:"mean"`
	Std     float64 `json:"std"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// newStat computes the summary of xs (population standard deviation). The
// mean is a running mean, so equal samples average to themselves exactly
// and a sweep's modelled means do not depend on its repeat count.
func newStat(xs []float64) Stat {
	s := Stat{Samples: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for k, x := range xs {
		s.Mean += (x - s.Mean) / float64(k+1)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(xs)))
	return s
}

// BenchPoint is one (plan, N) measurement: repeat statistics over the
// modelled times plus the full perf report of the final evaluation.
type BenchPoint struct {
	Plan string `json:"plan"`
	N    int    `json:"n"`

	KernelMS     Stat `json:"kernelMs"`
	TransferMS   Stat `json:"transferMs"`
	HostMS       Stat `json:"hostMs"`
	TotalMS      Stat `json:"totalMs"`
	WallMS       Stat `json:"wallMs"` // real time per evaluation on this machine
	KernelGFLOPS Stat `json:"kernelGflops"`
	// PipelinedMS is the executed cost per evaluation on the cross-evaluation
	// timeline under the sweep's pipeline mode: under serial it equals
	// TotalMS; under overlap it converges to max(host, device) per step.
	PipelinedMS Stat `json:"pipelinedMs"`
	// SpeedupVsSerial is TotalMS.Mean / PipelinedMS.Mean — the overlap-vs-
	// serial speedup column (1.0 under serial mode or when host work is
	// negligible).
	SpeedupVsSerial float64 `json:"speedupVsSerial"`

	// HostBuildMS is the *measured* wall-clock host-build time per evaluation
	// (tree + walks + flatten on this machine; per outer step on the Hermite
	// point) — the real counterpart of the modelled HostMS. Machine-dependent,
	// so Compare does not gate on it.
	HostBuildMS Stat `json:"hostBuildMs"`
	// AllocsPerStep is the heap allocations per evaluation (runtime mallocs
	// delta; per outer step on the Hermite point), the steady-state figure
	// the pooled host pipeline drives to ~0 for the BH plans.
	AllocsPerStep Stat `json:"allocsPerStep"`
	// ActiveFraction is the mean fraction of the system each force evaluation
	// touched: 1.0 for the whole-system plan points, and the block scheduler's
	// mean active fraction for the Hermite sweep point.
	ActiveFraction float64 `json:"activeFraction"`

	Report PlanReport `json:"report"`
}

// BenchReport is the versioned, machine-readable product of a sweep — the
// BENCH_<date>.json schema.
type BenchReport struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at,omitempty"`
	// Pipeline is the mode the sweep ran under ("serial" or "overlap").
	Pipeline string `json:"pipeline"`
	// DeviceModel pins every cost-model parameter the numbers depend on, so
	// baselines are comparable (or detectably incomparable) across
	// device-model changes.
	DeviceModel gpusim.DeviceConfig `json:"device_model"`
	Plans       []string            `json:"plans"`
	Sizes       []int               `json:"sizes"`
	Repeats     int                 `json:"repeats"`
	Theta       float32             `json:"theta"`
	Eps         float32             `json:"eps"`
	Seed        uint64              `json:"seed"`
	Points      []BenchPoint        `json:"points"`
}

// Point returns the point for (plan, n), or nil.
func (r *BenchReport) Point(plan string, n int) *BenchPoint {
	for i := range r.Points {
		if r.Points[i].Plan == plan && r.Points[i].N == n {
			return &r.Points[i]
		}
	}
	return nil
}

// newPlan constructs one of the four plans on a fresh device context.
func newPlan(name string, dev gpusim.DeviceConfig, theta, eps float32) (core.Plan, error) {
	opt := bh.DefaultOptions()
	opt.Theta = theta
	opt.Eps = eps
	return core.NewPlanByName(name,
		core.WithDevice(dev),
		core.WithPPParams(pp.Params{G: 1, Eps: eps}),
		core.WithBHOptions(opt))
}

// RunBench sweeps the configured plans over the configured sizes under a
// background context. It is the context-less compatibility wrapper around
// RunBenchContext, mirroring sim.Run.
func RunBench(cfg BenchConfig) (*BenchReport, error) {
	return RunBenchContext(context.Background(), cfg) // repocheck:allow ctxpropagate -- RunBench is the documented context-less compatibility wrapper; the root context is its contract
}

// RunBenchContext sweeps the configured plans over the configured sizes.
// Each point runs Repeats force evaluations on a fresh plan instance (first
// evaluation warm — buffers allocated — before timing starts), collects
// repeat statistics, and builds the perf report from the final evaluation's
// executed schedule and launch results. The context reaches the Hermite
// point's jerk evaluations; the fixed-plan points are modelled, not
// cancellable.
func RunBenchContext(ctx context.Context, cfg BenchConfig) (*BenchReport, error) {
	plans := cfg.Plans
	if len(plans) == 0 {
		plans = PlanNames
	}
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("perf: empty size sweep")
	}
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	rep := &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		Pipeline:      cfg.Pipeline.String(),
		DeviceModel:   cfg.Device,
		Plans:         plans,
		Sizes:         cfg.Sizes,
		Repeats:       repeats,
		Theta:         cfg.Theta,
		Eps:           cfg.Eps,
		Seed:          cfg.Seed,
	}

	var lastObs *obs.Obs
	var lastLaunches []*gpusim.Result
	for _, n := range cfg.Sizes {
		sys := ic.Plummer(n, cfg.Seed)
		for _, name := range plans {
			plan, err := newPlan(name, cfg.Device, cfg.Theta, cfg.Eps)
			if err != nil {
				return nil, err
			}
			o := obs.New()
			if ob, ok := plan.(obs.Observable); ok {
				ob.SetObs(o)
			}
			// The runner places this point's evaluations on the executed
			// cross-evaluation timeline under the configured pipeline mode.
			runner := pipeline.Runner{Mode: cfg.Pipeline}
			// Warm-up: allocate buffers and page in the pipeline so wall
			// statistics measure steady-state evaluations. Accounting the
			// warm-up also primes the overlap pipeline, so the timed repeats
			// observe the steady-state step cost.
			warmProf, err := plan.Accel(sys.Clone())
			if err != nil {
				return nil, fmt.Errorf("perf: %s at N=%d: %w", name, n, err)
			}
			runner.AccountSchedule(warmProf.Schedule)

			var kernel, transfer, host, total, wall, gflops, pipelined []float64
			var hostBuild, allocs []float64
			var prof *core.RunProfile
			for r := 0; r < repeats; r++ {
				// The final repeat's span bundle feeds the merged trace
				// (TraceOut), so it must cover exactly one evaluation.
				if r == repeats-1 {
					o.Trace.Reset()
				}
				in := sys.Clone()
				mallocsBefore := mallocs()
				begin := time.Now()
				prof, err = plan.Accel(in)
				wallSec := time.Since(begin).Seconds()
				mallocsAfter := mallocs()
				if err != nil {
					return nil, fmt.Errorf("perf: %s at N=%d: %w", name, n, err)
				}
				kernel = append(kernel, prof.Profile.KernelSeconds*1e3)
				transfer = append(transfer, prof.Profile.TransferSeconds*1e3)
				host = append(host, prof.Profile.HostSeconds*1e3)
				total = append(total, prof.Profile.TotalSeconds()*1e3)
				wall = append(wall, wallSec*1e3)
				gflops = append(gflops, prof.KernelGFLOPS())
				pipelined = append(pipelined, runner.AccountSchedule(prof.Schedule)*1e3)
				hostBuild = append(hostBuild, prof.HostBuildSeconds*1e3)
				allocs = append(allocs, float64(mallocsAfter-mallocsBefore))
			}

			pt := BenchPoint{
				Plan:           name,
				N:              n,
				KernelMS:       newStat(kernel),
				TransferMS:     newStat(transfer),
				HostMS:         newStat(host),
				TotalMS:        newStat(total),
				WallMS:         newStat(wall),
				KernelGFLOPS:   newStat(gflops),
				PipelinedMS:    newStat(pipelined),
				HostBuildMS:    newStat(hostBuild),
				AllocsPerStep:  newStat(allocs),
				ActiveFraction: 1,
				Report:         BuildPlanReport(cfg.Device, prof),
			}
			if pt.PipelinedMS.Mean > 0 {
				pt.SpeedupVsSerial = pt.TotalMS.Mean / pt.PipelinedMS.Mean
			}
			rep.Points = append(rep.Points, pt)
			lastObs, lastLaunches = o, prof.Launches
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "  %-12s N=%-7d kernel=%8.3fms  %7.1f GFLOPS  occ=%s  pipe=%.2fx  %s\n",
					name, n, pt.KernelMS.Mean, pt.KernelGFLOPS.Mean,
					occupancySummary(pt.Report), pt.SpeedupVsSerial,
					pt.Report.Attribution.CriticalSide+"-bound")
			}
		}
	}
	if cfg.Hermite {
		pt, err := hermitePoint(ctx, cfg, repeats)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "  %-12s N=%-7d wall=%8.3fms  active=%.3f\n",
				pt.Plan, pt.N, pt.WallMS.Mean, pt.ActiveFraction)
		}
	}
	if cfg.TraceOut != nil && lastObs != nil {
		if err := cl.WriteMergedTrace(cfg.TraceOut, lastObs.Trace, cfg.Device, lastLaunches...); err != nil {
			return nil, fmt.Errorf("perf: merged trace: %w", err)
		}
	}
	return rep, nil
}

// mallocs returns the number of heap objects the process has allocated so
// far. RunBench reads it around one evaluation at a time (or one Hermite
// repeat), with nothing else running, for the allocsPerStep column.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // repocheck:allow stoptheworld -- a bench process times one evaluation alone, and only ReadMemStats counts its allocations exactly (runtime/metrics lags by a P's cached span)
	return ms.Mallocs
}

// hermiteBlockPlan names the Hermite sweep point. It is deliberately not a
// core plan name, so Compare, which matches points on (plan, N), never
// diffs it against a force-only point.
const hermiteBlockPlan = "hermite-block"

// hermitePoint measures the Hermite block-timestep integrator end to end on
// the i-parallel jerk path at the sweep's smallest size: full outer steps
// through the block scheduler, so the point reflects the mix of i- and
// j-parallel block evaluations the dynamic plan selector actually chose.
// Smallest size because the cost per outer step is a multiple of a
// whole-system evaluation (one per block boundary). Every column, the
// measured host-build time and allocations included, is per outer step.
func hermitePoint(ctx context.Context, cfg BenchConfig, repeats int) (BenchPoint, error) {
	n := cfg.Sizes[0]
	const outerSteps = 2
	outerDT := float32(1.0 / 16)

	var wall, kernel, transfer, host, total, gflops, active []float64
	var hostBuild, allocs []float64
	var last *core.RunProfile
	for r := 0; r < repeats; r++ {
		plan, err := newPlan("i-parallel", cfg.Device, cfg.Theta, cfg.Eps)
		if err != nil {
			return BenchPoint{}, err
		}
		eng := core.NewEngine(plan)
		integ := &integrate.Hermite{}
		var forceErr error
		integ.SetBlockForce(func(s *body.System, act []int, jerk []vec.V3) int64 {
			inter, err := eng.AccelJerk(ctx, s, act, jerk)
			if err != nil && forceErr == nil {
				forceErr = err
			}
			return inter
		})
		sys := ic.Plummer(n, cfg.Seed)
		mallocsBefore := mallocs()
		begin := time.Now()
		for st := 0; st < outerSteps; st++ {
			integ.Step(sys, outerDT, nil)
		}
		wallSec := time.Since(begin).Seconds()
		mallocsAfter := mallocs()
		if forceErr != nil {
			return BenchPoint{}, fmt.Errorf("perf: %s at N=%d: %w", hermiteBlockPlan, n, forceErr)
		}
		wall = append(wall, wallSec*1e3/outerSteps)
		kernel = append(kernel, eng.KernelSeconds*1e3/outerSteps)
		transfer = append(transfer, eng.TransferSeconds*1e3/outerSteps)
		host = append(host, eng.HostSeconds*1e3/outerSteps)
		total = append(total, eng.TotalSeconds()*1e3/outerSteps)
		gflops = append(gflops, eng.SustainedGFLOPS())
		hostBuild = append(hostBuild, eng.HostBuildSeconds*1e3/outerSteps)
		allocs = append(allocs, float64(mallocsAfter-mallocsBefore)/outerSteps)
		active = append(active, integ.MeanActiveFraction())
		last = eng.LastProfile
	}
	var meanActive float64
	for _, a := range active {
		meanActive += a
	}
	meanActive /= float64(len(active))
	// The block path runs strictly serially (each block's correction feeds
	// the next prediction), so the executed cost is the serial total.
	return BenchPoint{
		Plan:            hermiteBlockPlan,
		N:               n,
		KernelMS:        newStat(kernel),
		TransferMS:      newStat(transfer),
		HostMS:          newStat(host),
		TotalMS:         newStat(total),
		WallMS:          newStat(wall),
		KernelGFLOPS:    newStat(gflops),
		PipelinedMS:     newStat(total),
		SpeedupVsSerial: 1,
		HostBuildMS:     newStat(hostBuild),
		AllocsPerStep:   newStat(allocs),
		ActiveFraction:  meanActive,
		Report:          BuildPlanReport(cfg.Device, last),
	}, nil
}

// occupancySummary renders the first kernel's occupancy as "8/24".
func occupancySummary(r PlanReport) string {
	if len(r.Kernels) == 0 {
		return "-"
	}
	k := r.Kernels[0]
	return fmt.Sprintf("%d/%d", k.OccupancyWavefronts, k.MaxWavefrontsPerCU)
}
