package integrate

import (
	"math"
	"testing"

	"repro/internal/body"
	"repro/internal/pp"
	"repro/internal/vec"
)

// circularBinary returns two equal masses on a circular orbit (G=1,
// unsoftened): m=0.5 each, separation 1, circular speed 0.5 each.
func circularBinary() *body.System {
	s := body.NewSystem(2)
	s.SetBody(0, body.Body{Pos: vec.V3{X: -0.5}, Vel: vec.V3{Y: -0.5}, Mass: 0.5})
	s.SetBody(1, body.Body{Pos: vec.V3{X: 0.5}, Vel: vec.V3{Y: 0.5}, Mass: 0.5})
	return s
}

func forceFunc() ForceFunc {
	params := pp.Params{G: 1, Eps: 0}
	return func(s *body.System) int64 {
		return pp.Scalar(s, params)
	}
}

func energy(s *body.System) float64 {
	return s.KineticEnergy() + s.PotentialEnergy(1, 0)
}

func runOrbit(t *testing.T, ig Integrator, dt float32, steps int) (drift float64) {
	t.Helper()
	s := circularBinary()
	e0 := energy(s)
	f := forceFunc()
	for i := 0; i < steps; i++ {
		ig.Step(s, dt, f)
	}
	return math.Abs(energy(s)-e0) / math.Abs(e0)
}

func TestLeapfrogConservesEnergy(t *testing.T) {
	// ~16 orbits (period = 2*pi for this binary).
	drift := runOrbit(t, &Leapfrog{}, 0.01, 10000)
	if drift > 1e-3 {
		t.Errorf("leapfrog energy drift %g over 10000 steps", drift)
	}
}

func TestEulerDriftsMoreThanLeapfrog(t *testing.T) {
	e := runOrbit(t, Euler{}, 0.01, 2000)
	l := runOrbit(t, &Leapfrog{}, 0.01, 2000)
	if e < 10*l {
		t.Errorf("Euler drift %g not clearly worse than leapfrog %g", e, l)
	}
}

func TestVerletMatchesLeapfrogOrder(t *testing.T) {
	v := runOrbit(t, &Verlet{}, 0.01, 5000)
	l := runOrbit(t, &Leapfrog{}, 0.01, 5000)
	// Same order of accuracy: within an order of magnitude.
	if v > 10*l+1e-9 {
		t.Errorf("Verlet drift %g vs leapfrog %g", v, l)
	}
	if v > 1e-3 {
		t.Errorf("Verlet drift %g too large", v)
	}
}

func TestSecondOrderConvergence(t *testing.T) {
	// Halving dt should cut leapfrog's energy error by ~4x over a fixed
	// physical time span. The steps are deliberately coarse so truncation
	// error dominates float32 round-off.
	e1 := runOrbit(t, &Leapfrog{}, 0.2, 100) // t = 20
	e2 := runOrbit(t, &Leapfrog{}, 0.1, 200) // t = 20
	ratio := e1 / e2
	if ratio < 2.5 {
		t.Errorf("leapfrog convergence ratio %g, want ~4 (2nd order)", ratio)
	}
}

func TestCircularOrbitStaysCircular(t *testing.T) {
	s := circularBinary()
	ig := &Leapfrog{}
	f := forceFunc()
	for i := 0; i < 6283; i++ { // ~one period at dt=0.001... keep separation bounded
		ig.Step(s, 0.001, f)
		sep := s.Pos[1].Sub(s.Pos[0]).Norm()
		if sep < 0.9 || sep > 1.1 {
			t.Fatalf("step %d: separation %g drifted from 1", i, sep)
		}
	}
}

func TestForceEvaluationsPerStep(t *testing.T) {
	s := circularBinary()
	calls := 0
	f := func(sys *body.System) int64 {
		calls++
		return pp.Scalar(sys, pp.Params{G: 1, Eps: 0})
	}
	lf := &Leapfrog{}
	lf.Step(s, 0.01, f)
	if calls != 2 {
		t.Errorf("first leapfrog step made %d force calls, want 2 (priming + kick)", calls)
	}
	calls = 0
	for i := 0; i < 5; i++ {
		lf.Step(s, 0.01, f)
	}
	if calls != 5 {
		t.Errorf("5 steady-state leapfrog steps made %d force calls, want 5", calls)
	}

	v := &Verlet{}
	calls = 0
	v.Step(s, 0.01, f)
	if calls != 2 {
		t.Errorf("first Verlet step made %d calls, want 2", calls)
	}
	calls = 0
	for i := 0; i < 5; i++ {
		v.Step(s, 0.01, f)
	}
	if calls != 5 {
		t.Errorf("5 steady-state Verlet steps made %d calls, want 5", calls)
	}
}

func TestNew(t *testing.T) {
	for _, name := range []string{"euler", "leapfrog", "verlet"} {
		ig, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if ig.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, ig.Name())
		}
	}
	if _, err := New("rk4"); err == nil {
		t.Error("unknown integrator accepted")
	}
}

func TestInteractionCountsPropagate(t *testing.T) {
	s := circularBinary()
	f := forceFunc()
	lf := &Leapfrog{}
	n := lf.Step(s, 0.01, f) // priming + end-of-step force: 2 evals x 4 pairs
	if n != 8 {
		t.Errorf("first step interactions = %d, want 8", n)
	}
	if n = lf.Step(s, 0.01, f); n != 4 {
		t.Errorf("steady step interactions = %d, want 4", n)
	}
}
