package perf

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/vec"
)

func TestWatchdogEnergyDrift(t *testing.T) {
	w := &Watchdog{Tol: Tolerances{MaxEnergyDrift: 0.01}}
	if err := w.Check(0, 1.0, -2.0, vec.D3{}); err != nil {
		t.Fatalf("baseline check failed: %v", err)
	}
	// E0 = -1; 0.5% drift passes, 5% fails.
	if err := w.Check(10, 1.0, -2.005, vec.D3{}); err != nil {
		t.Fatalf("0.5%% drift rejected: %v", err)
	}
	err := w.Check(20, 1.0, -2.05, vec.D3{})
	if err == nil {
		t.Fatal("5% drift accepted")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("error is %T, want *Violation", err)
	}
	if v.Step != 20 || !strings.Contains(v.Metric, "energy") {
		t.Errorf("violation = %+v", v)
	}
	if !strings.Contains(v.Error(), "step 20") {
		t.Errorf("Error() = %q", v.Error())
	}
}

func TestWatchdogMomentumDrift(t *testing.T) {
	w := &Watchdog{Tol: Tolerances{MaxMomentumDrift: 1e-3}}
	if err := w.Check(0, 1, -2, vec.D3{X: 0.5}); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if err := w.Check(1, 1, -2, vec.D3{X: 0.5 + 1e-4}); err != nil {
		t.Fatalf("small momentum drift rejected: %v", err)
	}
	if err := w.Check(2, 1, -2, vec.D3{X: 0.5, Y: 0.01}); err == nil {
		t.Fatal("large momentum drift accepted")
	}
}

func TestWatchdogVirialBand(t *testing.T) {
	w := &Watchdog{Tol: Tolerances{VirialMin: 0.3, VirialMax: 0.7}}
	if err := w.Check(0, 0.5, -1.0, vec.D3{}); err != nil { // -K/U = 0.5
		t.Fatalf("equilibrium rejected: %v", err)
	}
	if err := w.Check(1, 0.9, -1.0, vec.D3{}); err == nil { // 0.9 above band
		t.Fatal("virial 0.9 accepted in [0.3, 0.7]")
	}
	if err := w.Check(2, 0.1, -1.0, vec.D3{}); err == nil { // 0.1 below band
		t.Fatal("virial 0.1 accepted in [0.3, 0.7]")
	}
}

func TestWatchdogDisabledAndNil(t *testing.T) {
	// Zero tolerances: everything passes.
	w := &Watchdog{}
	if err := w.Check(0, 1, -1, vec.D3{}); err != nil {
		t.Fatalf("zero-tolerance watchdog flagged: %v", err)
	}
	if err := w.Check(1, 100, -1, vec.D3{X: 99}); err != nil {
		t.Fatalf("zero-tolerance watchdog flagged drift: %v", err)
	}
	// A nil watchdog is a no-op.
	var nilW *Watchdog
	if err := nilW.Check(0, 1, -1, vec.D3{}); err != nil {
		t.Fatalf("nil watchdog flagged: %v", err)
	}
}
