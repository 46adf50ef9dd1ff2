package sim

import (
	"bytes"
	"context"
	"errors"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/pp"
)

func TestRunDirectEngine(t *testing.T) {
	s := ic.Plummer(128, 1)
	eng := &DirectEngine{Params: pp.DefaultParams()}
	snaps, err := Run(s, eng, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 20, SnapshotEvery: 5, G: 1, Eps: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots: step 0, 5, 10, 15, 20.
	if len(snaps) != 5 {
		t.Fatalf("got %d snapshots, want 5", len(snaps))
	}
	if snaps[0].Step != 0 || snaps[4].Step != 20 {
		t.Errorf("snapshot steps: first %d last %d", snaps[0].Step, snaps[4].Step)
	}
	if d := snaps[4].Time - 0.2; d > 1e-6 || d < -1e-6 {
		t.Errorf("final time %g, want 0.2", snaps[4].Time)
	}
	if snaps[4].Interactions != 21*128*128 { // priming + 20 steps
		t.Errorf("interactions %d, want %d", snaps[4].Interactions, 21*128*128)
	}
	if drift := EnergyDrift(snaps); drift > 1e-2 {
		t.Errorf("energy drift %g", drift)
	}
}

func TestRunTreeEngine(t *testing.T) {
	s := ic.Plummer(256, 2)
	eng := &TreeEngine{Opt: bh.DefaultOptions()}
	snaps, err := Run(s, eng, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 10, G: 1, Eps: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if drift := EnergyDrift(snaps); drift > 1e-2 {
		t.Errorf("energy drift %g", drift)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	s := ic.Plummer(8, 1)
	eng := &DirectEngine{Params: pp.DefaultParams()}
	if _, err := Run(s, eng, &integrate.Leapfrog{}, Config{DT: 0, Steps: 1}); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := Run(s, eng, &integrate.Leapfrog{}, Config{DT: 0.01, Steps: -1}); err == nil {
		t.Error("negative steps accepted")
	}
}

type failingEngine struct{ after int }

func (e *failingEngine) Name() string { return "failing" }
func (e *failingEngine) Accel(s *body.System) (int64, error) {
	e.after--
	if e.after < 0 {
		return 0, errors.New("synthetic failure")
	}
	s.ZeroAcc()
	return 1, nil
}

func TestRunPropagatesEngineError(t *testing.T) {
	s := ic.Plummer(8, 1)
	_, err := Run(s, &failingEngine{after: 3}, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 10, G: 1, Eps: 0.05,
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("err = %v, want synthetic failure", err)
	}
}

func TestRunLogsSnapshots(t *testing.T) {
	s := ic.Plummer(16, 3)
	var buf bytes.Buffer
	_, err := Run(s, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 2, SnapshotEvery: 1, G: 1, Eps: 0.05, Log: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 3 { // steps 0, 1, 2
		t.Errorf("logged %d lines, want 3:\n%s", lines, buf.String())
	}
	if !strings.Contains(buf.String(), "E=") {
		t.Error("log lines lack energy")
	}
}

// timedTestEngine reports a fixed amount of accumulated time per Accel call.
type timedTestEngine struct {
	calls int
}

func (e *timedTestEngine) Name() string { return "timed" }
func (e *timedTestEngine) Accel(s *body.System) (int64, error) {
	e.calls++
	s.ZeroAcc()
	return int64(s.N()), nil
}
func (e *timedTestEngine) TotalSeconds() float64 { return 0.25 * float64(e.calls) }

func TestRunRecordsTiming(t *testing.T) {
	s := ic.Plummer(16, 5)
	o := obs.New()
	var buf bytes.Buffer
	eng := &timedTestEngine{}
	snaps, err := Run(s, eng, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 4, SnapshotEvery: 2, G: 1, Eps: 0.05, Log: &buf, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := snaps[len(snaps)-1]
	if last.WallSeconds <= 0 {
		t.Errorf("final WallSeconds = %g, want > 0", last.WallSeconds)
	}
	// Priming call + one per step: 5 calls by the final snapshot.
	if want := 0.25 * 5; last.EngineSeconds != want {
		t.Errorf("final EngineSeconds = %g, want %g", last.EngineSeconds, want)
	}
	if snaps[0].WallSeconds != 0 || snaps[0].EngineSeconds != 0 {
		t.Errorf("step-0 snapshot timing: wall=%g engine=%g", snaps[0].WallSeconds, snaps[0].EngineSeconds)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].WallSeconds < snaps[i-1].WallSeconds {
			t.Errorf("WallSeconds not monotone: %g after %g", snaps[i].WallSeconds, snaps[i-1].WallSeconds)
		}
	}
	if !strings.Contains(buf.String(), "wall=") || !strings.Contains(buf.String(), "engine=") {
		t.Errorf("log lines lack timing:\n%s", buf.String())
	}

	snap := o.Metrics.Snapshot()
	if got := snap.Counters["sim.steps"]; got != 4 {
		t.Errorf("sim.steps counter = %d, want 4", got)
	}
	h, ok := snap.Histograms["sim.step.ms"]
	if !ok || h.Count != 4 {
		t.Errorf("sim.step.ms histogram = %+v, want 4 observations", h)
	}
	var stepSpans int
	for _, sp := range o.Trace.Spans() {
		if sp.Name == "step" && sp.Category == "sim" {
			stepSpans++
		}
	}
	if stepSpans != 4 {
		t.Errorf("got %d step spans, want 4", stepSpans)
	}
}

func TestRunZeroSteps(t *testing.T) {
	s := ic.Plummer(8, 1)
	snaps, err := Run(s, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 0, G: 1, Eps: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Step != 0 {
		t.Errorf("zero-step run snapshots: %+v", snaps)
	}
}

func TestEnergyDrift(t *testing.T) {
	if EnergyDrift(nil) != 0 {
		t.Error("empty drift not zero")
	}
	snaps := []Snapshot{{Total: -2}, {Total: -2.1}, {Total: -1.95}}
	if d := EnergyDrift(snaps); d < 0.049 || d > 0.051 {
		t.Errorf("drift = %g, want 0.05", d)
	}
	zero := []Snapshot{{Total: 0}, {Total: 0.5}}
	if d := EnergyDrift(zero); d != 0.5 {
		t.Errorf("zero-baseline drift = %g", d)
	}
}

func TestDirectEngineWorkerModes(t *testing.T) {
	s := ic.Plummer(64, 4)
	scalar := &DirectEngine{Params: pp.DefaultParams(), Workers: 1}
	n, err := scalar.Accel(s.Clone())
	if err != nil || n != 64*64 {
		t.Fatalf("scalar: n=%d err=%v", n, err)
	}
	par := &DirectEngine{Params: pp.DefaultParams()}
	n, err = par.Accel(s.Clone())
	if err != nil || n != 64*64 {
		t.Fatalf("parallel: n=%d err=%v", n, err)
	}
	if scalar.Name() != "cpu-pp" {
		t.Errorf("Name = %q", scalar.Name())
	}
}

func TestTreeEngineName(t *testing.T) {
	eng := &TreeEngine{Opt: bh.DefaultOptions()}
	if eng.Name() != "cpu-bh" {
		t.Errorf("Name = %q", eng.Name())
	}
	if _, err := eng.Accel(body.NewSystem(0)); err == nil {
		t.Error("empty system accepted by tree engine")
	}
}

func TestRunRecordsConservationGauges(t *testing.T) {
	s := ic.Plummer(64, 3)
	o := obs.New()
	snaps, err := Run(s, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 4, SnapshotEvery: 2, G: 1, Eps: 0.05, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := snaps[len(snaps)-1]
	wantDrift := last.Total - snaps[0].Total
	if wantDrift < 0 {
		wantDrift = -wantDrift
	}
	wantDrift /= -snaps[0].Total // bound system: E0 < 0
	if got := o.Gauge("sim.energy_drift").Value(); got != wantDrift {
		t.Errorf("sim.energy_drift gauge = %g, want %g", got, wantDrift)
	}
	wantMom := last.Momentum.Sub(snaps[0].Momentum).Norm()
	if got := o.Gauge("sim.momentum_norm").Value(); got != wantMom {
		t.Errorf("sim.momentum_norm gauge = %g, want %g", got, wantMom)
	}
	if got := o.Gauge("sim.virial_ratio").Value(); got != last.VirialRatio {
		t.Errorf("sim.virial_ratio gauge = %g, want %g", got, last.VirialRatio)
	}
	// A bound Plummer sphere sits near virial equilibrium.
	if last.VirialRatio < 0.2 || last.VirialRatio > 0.8 {
		t.Errorf("virial ratio %g far from equilibrium", last.VirialRatio)
	}
}

func TestRunWatchdogHaltsBrokenRun(t *testing.T) {
	s := ic.Plummer(32, 5)
	// An absurdly large timestep destroys energy conservation within a few
	// steps; the watchdog must halt the run and surface a *perf.Violation.
	w := &perf.Watchdog{Tol: perf.Tolerances{MaxEnergyDrift: 1e-4}}
	snaps, err := Run(s, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, Config{
		DT: 5, Steps: 50, SnapshotEvery: 1, G: 1, Eps: 0.05, Watchdog: w,
	})
	if err == nil {
		t.Fatal("watchdog did not halt a dt=5 run within 50 steps")
	}
	var v *perf.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *perf.Violation", err)
	}
	if len(snaps) == 0 || len(snaps) > 51 {
		t.Errorf("got %d snapshots with the halt", len(snaps))
	}
	if !strings.Contains(err.Error(), "halted") {
		t.Errorf("err = %q", err)
	}
}

func TestRunWatchdogPassesHealthyRun(t *testing.T) {
	s := ic.Plummer(64, 6)
	w := &perf.Watchdog{Tol: perf.Tolerances{MaxEnergyDrift: 1e-2, MaxMomentumDrift: 1e-3}}
	if _, err := Run(s, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 10, SnapshotEvery: 5, G: 1, Eps: 0.05, Watchdog: w,
	}); err != nil {
		t.Fatalf("healthy run halted: %v", err)
	}
}

// TestRunPipelineWindow drives a GPU-plan engine through Run in overlap mode
// with a window of steps: trajectories are bitwise-identical to the serial
// run (the overlap is timeline accounting, not reordered physics), while the
// executed engine timeline comes out shorter than the serial one.
func TestRunPipelineWindow(t *testing.T) {
	ctx, err := cl.NewContext(gpusim.HD5850())
	if err != nil {
		t.Fatal(err)
	}
	newEng := func(mode pipeline.Mode) *core.Engine {
		eng, err := core.NewEngineByName("jw-parallel", core.WithCLContext(ctx))
		if err != nil {
			t.Fatal(err)
		}
		eng.Mode = mode
		return eng
	}
	cfg := Config{DT: 0.01, Steps: 8, SnapshotEvery: 4, G: 1, Eps: 0.05}

	serialSys := ic.Plummer(1024, 11)
	serialEng := newEng(pipeline.Serial)
	serialSnaps, err := Run(serialSys, serialEng, &integrate.Leapfrog{}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	overlapSys := ic.Plummer(1024, 11)
	overlapEng := newEng(pipeline.Overlap)
	cfg.PipelineWindow = 4
	overlapSnaps, err := Run(overlapSys, overlapEng, &integrate.Leapfrog{}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := range serialSys.Pos {
		if serialSys.Pos[i] != overlapSys.Pos[i] || serialSys.Vel[i] != overlapSys.Vel[i] {
			t.Fatalf("body %d diverged between serial and overlap runs", i)
		}
	}
	last := overlapSnaps[len(overlapSnaps)-1]
	if last.EngineExecutedSeconds <= 0 || last.EngineExecutedSeconds >= last.EngineSeconds {
		t.Errorf("overlap executed %g not below serial-basis %g",
			last.EngineExecutedSeconds, last.EngineSeconds)
	}
	sLast := serialSnaps[len(serialSnaps)-1]
	if d := sLast.EngineExecutedSeconds - sLast.EngineSeconds; d > 1e-12 || d < -1e-12 {
		t.Errorf("serial executed %g != serial total %g",
			sLast.EngineExecutedSeconds, sLast.EngineSeconds)
	}
	if sLast.EngineSeconds != last.EngineSeconds {
		t.Errorf("serial basis changed across modes: %g vs %g", sLast.EngineSeconds, last.EngineSeconds)
	}
}

// stopsOutsideGC returns how many times this process has stopped the world
// for something other than garbage collection: runtime.ReadMemStats,
// runtime.GOMAXPROCS, a goroutine profile, testing.AllocsPerRun and the
// like. No test of this package runs in parallel, so while a test runs no
// other test of the process can add to it.
func stopsOutsideGC() uint64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestRunContextStopsNoWorld requires a run to stop the world only for
// garbage collection: a 4-step jw-parallel run with a snapshot every step
// adds no sample to the runtime's histogram of other pauses. In nbodyd
// every stop freezes the other engine slots and every HTTP goroutine.
func TestRunContextStopsNoWorld(t *testing.T) {
	eng, err := core.NewEngineByName("jw-parallel", core.WithDevice(gpusim.TestDevice()))
	if err != nil {
		t.Fatal(err)
	}
	s := ic.Plummer(256, 3)
	before := stopsOutsideGC()
	snaps, err := RunContext(context.Background(), s, eng, nil, Config{
		DT: 0.01, Steps: 4, SnapshotEvery: 1, G: 1, Eps: 0.05, Obs: obs.New(),
	})
	stops := stopsOutsideGC() - before
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 5 {
		t.Fatalf("got %d snapshots, want 5", len(snaps))
	}
	if stops != 0 {
		t.Fatalf("a 4-step run with 5 snapshots stopped the world %d times outside garbage collection, want 0", stops)
	}
}
