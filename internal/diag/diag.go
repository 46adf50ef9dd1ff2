// Package diag provides the astrophysical diagnostics used to judge whether
// a simulation is physically sensible: Lagrangian radii, velocity
// dispersion, and the virial ratio. The galaxy and collision examples report
// them, and tests use them to verify that the initial-condition generators
// produce the distributions they claim.
package diag

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/body"
	"repro/internal/vec"
)

// LagrangianRadii returns, for each requested mass fraction in (0,1], the
// radius around the centre of mass enclosing that fraction of the total
// mass. Fractions must be ascending. The half-mass radius is
// LagrangianRadii(s, 0.5)[0].
func LagrangianRadii(s *body.System, fractions ...float64) ([]float64, error) {
	if s.N() == 0 {
		return nil, fmt.Errorf("diag: empty system")
	}
	for i, f := range fractions {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("diag: mass fraction %g out of (0,1]", f)
		}
		if i > 0 && f <= fractions[i-1] {
			return nil, fmt.Errorf("diag: fractions not ascending at %d", i)
		}
	}
	com := s.CenterOfMass()
	type rm struct {
		r float64
		m float64
	}
	rs := make([]rm, s.N())
	for i := range s.Pos {
		rs[i] = rm{r: s.Pos[i].D3().Sub(com).Norm(), m: float64(s.Mass[i])}
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].r < rs[b].r })

	total := s.TotalMass()
	out := make([]float64, len(fractions))
	var cum float64
	k := 0
	for _, e := range rs {
		cum += e.m
		for k < len(fractions) && cum >= fractions[k]*total {
			out[k] = e.r
			k++
		}
		if k == len(fractions) {
			break
		}
	}
	for ; k < len(fractions); k++ {
		out[k] = rs[len(rs)-1].r
	}
	return out, nil
}

// VelocityDispersion returns the 1-D velocity dispersion sigma (rms of one
// Cartesian velocity component about the mean, mass-weighted).
func VelocityDispersion(s *body.System) float64 {
	m := s.TotalMass()
	if m == 0 {
		return 0
	}
	mean := vec.D3{}
	for i := range s.Vel {
		mean = mean.Add(s.Vel[i].D3().Scale(float64(s.Mass[i])))
	}
	mean = mean.Scale(1 / m)
	var sum float64
	for i := range s.Vel {
		d := s.Vel[i].D3().Sub(mean)
		sum += float64(s.Mass[i]) * d.Norm2()
	}
	return math.Sqrt(sum / m / 3)
}

// VirialFromEnergies returns the virial ratio -K/U given the kinetic and
// potential energies, or 0 when the potential is zero. 0.5 is equilibrium.
func VirialFromEnergies(k, u float64) float64 {
	if u == 0 {
		return 0
	}
	return -k / u
}

// Summary is a one-call bundle of the standard diagnostics.
type Summary struct {
	N               int
	TotalMass       float64
	Kinetic         float64
	Potential       float64
	VirialRatio     float64
	HalfMassRadius  float64
	R10, R90        float64 // 10% and 90% Lagrangian radii
	Sigma1D         float64
	CenterOfMass    vec.D3
	Momentum        vec.D3
	AngularMomentum vec.D3
}

// Summarize computes a Summary (O(N^2) because of the exact potential).
func Summarize(s *body.System, g, eps float64) (Summary, error) {
	radii, err := LagrangianRadii(s, 0.1, 0.5, 0.9)
	if err != nil {
		return Summary{}, err
	}
	k := s.KineticEnergy()
	u := s.PotentialEnergy(g, eps)
	sum := Summary{
		N:               s.N(),
		TotalMass:       s.TotalMass(),
		Kinetic:         k,
		Potential:       u,
		HalfMassRadius:  radii[1],
		R10:             radii[0],
		R90:             radii[2],
		Sigma1D:         VelocityDispersion(s),
		CenterOfMass:    s.CenterOfMass(),
		Momentum:        s.Momentum(),
		AngularMomentum: s.AngularMomentum(),
	}
	sum.VirialRatio = VirialFromEnergies(k, u)
	return sum, nil
}

// String renders the summary for example output.
func (s Summary) String() string {
	return fmt.Sprintf(
		"N=%d M=%.4f E=%.4f (K=%.4f U=%.4f, -K/U=%.3f) r10/50/90=%.3f/%.3f/%.3f sigma=%.4f",
		s.N, s.TotalMass, s.Kinetic+s.Potential, s.Kinetic, s.Potential,
		s.VirialRatio, s.R10, s.HalfMassRadius, s.R90, s.Sigma1D)
}
