package perf

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/vec"
)

// Tolerances configures the physics watchdog. A zero tolerance disables its
// check, so the zero value watches nothing.
type Tolerances struct {
	// MaxEnergyDrift bounds |E(t)-E(0)| / |E(0)| (the conservation metric
	// of sim.EnergyDrift). Leapfrog at sane dt holds this to <1e-3 over
	// hundreds of steps; a blow-up here means the force kernel or the
	// integrator is wrong, not that the run is merely slow.
	MaxEnergyDrift float64
	// MaxMomentumDrift bounds ||P(t)-P(0)|| (absolute; the workload
	// generators emit systems at rest, so P should stay ~0 and any growth
	// is a force-asymmetry bug).
	MaxMomentumDrift float64
	// VirialMin/VirialMax bound the virial ratio -K/U when VirialMax > 0.
	// Near-equilibrium workloads (Plummer, Hernquist) should hover around
	// 0.5; use a generous band — the ratio breathes during relaxation.
	VirialMin, VirialMax float64
}

// Violation is the error returned when a check fails.
type Violation struct {
	Step   int
	Metric string
	Value  float64
	Limit  float64
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("perf: watchdog: %s %.3e exceeds tolerance %.3e at step %d",
		v.Metric, v.Value, v.Limit, v.Step)
}

// Watchdog checks conservation laws against tolerances as a simulation runs.
// The first Check call records the baseline (E(0), P(0)); subsequent calls
// compare against it. The zero value with a Tol is ready to use; sim.Run
// threads one through via sim.Config.Watchdog.
type Watchdog struct {
	Tol Tolerances

	started bool
	e0      float64
	p0      vec.D3
}

// EnergyDrift returns the relative drift of total energy e against the
// recorded baseline (0 before the baseline exists).
func (w *Watchdog) EnergyDrift(e float64) float64 {
	if !w.started {
		return 0
	}
	den := w.e0
	if den < 0 {
		den = -den
	}
	if den == 0 {
		den = 1
	}
	d := e - w.e0
	if d < 0 {
		d = -d
	}
	return d / den
}

// Check records/compares one snapshot's conservation state. kinetic and
// potential are the snapshot's exact energies; momentum the system's total
// momentum. It returns a *Violation when a tolerance is exceeded, nil
// otherwise.
func (w *Watchdog) Check(step int, kinetic, potential float64, momentum vec.D3) error {
	if w == nil {
		return nil
	}
	e := kinetic + potential
	if !w.started {
		w.started = true
		w.e0 = e
		w.p0 = momentum
	}
	if w.Tol.MaxEnergyDrift > 0 {
		if drift := w.EnergyDrift(e); drift > w.Tol.MaxEnergyDrift {
			return &Violation{Step: step, Metric: "energy drift", Value: drift, Limit: w.Tol.MaxEnergyDrift}
		}
	}
	if w.Tol.MaxMomentumDrift > 0 {
		if drift := momentum.Sub(w.p0).Norm(); drift > w.Tol.MaxMomentumDrift {
			return &Violation{Step: step, Metric: "momentum drift", Value: drift, Limit: w.Tol.MaxMomentumDrift}
		}
	}
	if w.Tol.VirialMax > 0 && potential != 0 {
		vr := diag.VirialFromEnergies(kinetic, potential)
		if vr < w.Tol.VirialMin {
			return &Violation{Step: step, Metric: "virial ratio (below band)", Value: vr, Limit: w.Tol.VirialMin}
		}
		if vr > w.Tol.VirialMax {
			return &Violation{Step: step, Metric: "virial ratio (above band)", Value: vr, Limit: w.Tol.VirialMax}
		}
	}
	return nil
}
