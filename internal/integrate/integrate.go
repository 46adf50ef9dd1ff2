// Package integrate provides the time integrators that advance a body
// system given accelerations: explicit Euler (the simplest scheme, kept for
// reference and error comparisons), leapfrog in kick-drift-kick form (the
// standard N-body integrator, symplectic and time-reversible), velocity
// Verlet (algebraically equivalent to leapfrog but organised around a single
// force evaluation per step with cached accelerations), and a 4th-order
// Hermite predictor-corrector with individual power-of-two block timesteps
// (the production astrophysics scheme, which needs the extended
// acceleration+jerk force path — see BlockIntegrator).
package integrate

import (
	"fmt"
	"strings"

	"repro/internal/body"
)

// ForceFunc computes accelerations into s.Acc for the current positions and
// returns the number of interactions evaluated (for GFLOPS accounting).
type ForceFunc func(s *body.System) int64

// Integrator advances a system by one step of size dt, calling force as
// needed (once per step for all provided schemes, except the first Verlet
// step which primes the acceleration cache).
type Integrator interface {
	// Step advances s by dt and returns interactions evaluated.
	Step(s *body.System, dt float32, force ForceFunc) int64
	// Name identifies the scheme.
	Name() string
}

// Euler is the explicit (forward) Euler scheme: v += a dt; x += v dt.
// First-order; energy drifts linearly. Included as the error baseline.
type Euler struct{}

// Name implements Integrator.
func (Euler) Name() string { return "euler" }

// Step implements Integrator.
func (Euler) Step(s *body.System, dt float32, force ForceFunc) int64 {
	n := force(s)
	for i := range s.Pos {
		s.Vel[i] = s.Vel[i].Add(s.Acc[i].Scale(dt))
		s.Pos[i] = s.Pos[i].Add(s.Vel[i].Scale(dt))
	}
	return n
}

// Leapfrog is the kick-drift-kick leapfrog. It is second-order and
// symplectic: total energy oscillates but does not secularly drift, the
// property the long-integration example demonstrates.
type Leapfrog struct {
	primed bool
}

// Name implements Integrator.
func (*Leapfrog) Name() string { return "leapfrog" }

// Step implements Integrator. KDK needs the acceleration at the *current*
// positions for the opening half-kick; after the first step that
// acceleration is the one computed at the end of the previous step, so only
// one force evaluation per step is required.
func (l *Leapfrog) Step(s *body.System, dt float32, force ForceFunc) int64 {
	var n int64
	if !l.primed {
		n += force(s)
		l.primed = true
	}
	half := dt / 2
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(s.Acc[i].Scale(half))
	}
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(s.Vel[i].Scale(dt))
	}
	n += force(s)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(s.Acc[i].Scale(half))
	}
	return n
}

// Verlet is velocity Verlet with a cached previous acceleration:
// x += v dt + a dt^2/2; then v += (a_old + a_new) dt / 2.
type Verlet struct {
	acc    []accEntry
	primed bool
}

type accEntry struct{ x, y, z float32 }

// Name implements Integrator.
func (*Verlet) Name() string { return "verlet" }

// Step implements Integrator.
func (v *Verlet) Step(s *body.System, dt float32, force ForceFunc) int64 {
	var n int64
	if !v.primed || len(v.acc) != s.N() {
		n += force(s)
		v.acc = make([]accEntry, s.N())
		for i, a := range s.Acc {
			v.acc[i] = accEntry{a.X, a.Y, a.Z}
		}
		v.primed = true
	}
	half := dt / 2
	for i := range s.Pos {
		a := v.acc[i]
		s.Pos[i].X += s.Vel[i].X*dt + a.x*half*dt
		s.Pos[i].Y += s.Vel[i].Y*dt + a.y*half*dt
		s.Pos[i].Z += s.Vel[i].Z*dt + a.z*half*dt
	}
	n += force(s)
	for i := range s.Vel {
		old := v.acc[i]
		s.Vel[i].X += (old.x + s.Acc[i].X) * half
		s.Vel[i].Y += (old.y + s.Acc[i].Y) * half
		s.Vel[i].Z += (old.z + s.Acc[i].Z) * half
		v.acc[i] = accEntry{s.Acc[i].X, s.Acc[i].Y, s.Acc[i].Z}
	}
	return n
}

// Names lists the canonical integrator names New accepts, in order of
// increasing sophistication. CLI flags and the job service validate against
// this list instead of keeping private copies.
func Names() []string {
	return []string{"euler", "leapfrog", "verlet", "hermite"}
}

// New returns the integrator with the given name (see Names).
func New(name string) (Integrator, error) {
	switch name {
	case "euler":
		return Euler{}, nil
	case "leapfrog":
		return &Leapfrog{}, nil
	case "verlet":
		return &Verlet{}, nil
	case "hermite":
		return &Hermite{}, nil
	}
	return nil, fmt.Errorf("integrate: unknown integrator %q (known: %s)", name, strings.Join(Names(), ", "))
}
