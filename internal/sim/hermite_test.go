package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/pp"
)

// TestRunHermiteGPUJerkPath drives the full Hermite block-timestep stack:
// RunContext wires the engine's jerk capability into the integrator, the jerk
// unit re-selects its execution plan per block as the active set shrinks, and
// the scenario watchdog (armed from Config.Scenario) passes on a Plummer
// sphere.
func TestRunHermiteGPUJerkPath(t *testing.T) {
	params := pp.Params{G: 1, Eps: 0.05}
	eng, err := core.NewEngineByName("i-parallel", core.WithDevice(gpusim.TestDevice()), core.WithPPParams(params))
	if err != nil {
		t.Fatal(err)
	}
	caps := Caps(eng)
	if !strings.Contains(caps.String(), "jerk") {
		t.Fatalf("PP core engine caps %q lack jerk", caps)
	}

	o := obs.New()
	eng.SetObs(o)
	// 256 bodies: a full block fills the 2-CU test device (i-parallel), while
	// shrunken blocks fall below the occupancy threshold (j-parallel).
	s := ic.Plummer(256, 4)
	cfg := Config{
		DT:            1.0 / 16,
		Steps:         2,
		SnapshotEvery: 1,
		G:             1, Eps: 0.05,
		Scenario: "plummer",
		Obs:      o,
	}
	snaps, err := RunContext(context.Background(), s, eng, &integrate.Hermite{}, cfg)
	if err != nil {
		t.Fatalf("hermite run: %v", err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	if drift := EnergyDrift(snaps); drift > 1e-2 {
		t.Errorf("energy drift %.3g exceeds plummer watchdog band", drift)
	}
	if got := o.Counter("sim.block.substeps").Value(); got <= int64(cfg.Steps) {
		t.Errorf("block substeps = %d, want > %d (block levels unused?)", got, cfg.Steps)
	}
	iSel := o.Counter("core.jerk.plan.i-parallel").Value()
	jSel := o.Counter("core.jerk.plan.j-parallel").Value()
	if iSel == 0 || jSel == 0 {
		t.Errorf("plan selector never switched: i-parallel=%d j-parallel=%d", iSel, jSel)
	}
	if f := o.Gauge("sim.block.active_fraction").Value(); f <= 0 || f > 1 {
		t.Errorf("active fraction gauge %g out of range", f)
	}
}

// TestRunHermiteCPUFallbackMatchesWatchdog runs Hermite on an engine without
// the jerk capability: RunContext must fall back to the CPU reference jerk and
// the collision scenario watchdog must hold.
func TestRunHermiteCPUFallbackMatchesWatchdog(t *testing.T) {
	s := ic.Collision(64, 4.0, 0.5, 6)
	eng := &DirectEngine{Params: pp.Params{G: 1, Eps: 0.05}}
	cfg := Config{
		DT:            1.0 / 32,
		Steps:         8,
		SnapshotEvery: 4,
		G:             1, Eps: 0.05,
		Scenario:   "collision",
		Integrator: "hermite",
	}
	snaps, err := RunContext(context.Background(), s, eng, nil, cfg)
	if err != nil {
		t.Fatalf("hermite fallback run: %v", err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
}

// TestRunNilIntegratorFromConfig pins the Config.Integrator path: a nil
// integrator resolves through integrate.New, and an unknown name fails with
// the canonical-name list.
func TestRunNilIntegratorFromConfig(t *testing.T) {
	s := ic.Plummer(16, 1)
	eng := &DirectEngine{Params: pp.DefaultParams()}
	if _, err := Run(s, eng, nil, Config{DT: 0.01, Steps: 1}); err != nil {
		t.Fatalf("default (leapfrog) run: %v", err)
	}
	_, err := Run(s.Clone(), eng, nil, Config{DT: 0.01, Steps: 1, Integrator: "rk4"})
	if err == nil || !strings.Contains(err.Error(), "hermite") {
		t.Fatalf("unknown integrator error %v does not list canonical names", err)
	}
}

// TestScenarioWatchdogPresets pins the preset table and that Config.Scenario
// actually arms the watchdog: a deliberately unstable run on a plummer
// scenario must be halted by the installed tolerances.
func TestScenarioWatchdogPresets(t *testing.T) {
	for _, name := range ScenarioNames() {
		if _, ok := ScenarioTolerances(name); !ok {
			t.Errorf("scenario %q has no tolerance preset", name)
		}
		if ScenarioWatchdog(name) == nil {
			t.Errorf("scenario %q has no watchdog", name)
		}
	}
	if ScenarioWatchdog("explicit") != nil {
		t.Error("explicit bodies must not get a watchdog preset")
	}
	if ScenarioWatchdog("warp-core-breach") != nil {
		t.Error("unknown scenario got a watchdog")
	}

	s := ic.Plummer(32, 2)
	eng := &DirectEngine{Params: pp.Params{G: 1, Eps: 0.05}}
	_, err := Run(s, eng, &integrate.Euler{}, Config{
		DT: 0.5, Steps: 64, SnapshotEvery: 4,
		G: 1, Eps: 0.05,
		Scenario: "plummer",
	})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("unstable plummer run not halted by scenario watchdog: %v", err)
	}
}
