package diag

import (
	"math"
	"strings"
	"testing"

	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/vec"
)

func TestLagrangianRadiiPlummer(t *testing.T) {
	s := ic.Plummer(8000, 1)
	radii, err := LagrangianRadii(s, 0.1, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic Plummer: r_f = a / sqrt(f^(-2/3) - 1): r10 ~ 0.5241,
	// r50 ~ 1.3048, r90 ~ 3.7069 (the generator truncates at mass fraction
	// 0.999, pulling the outer radii slightly inward).
	checks := []struct{ got, want, tol float64 }{
		{radii[0], 0.5241, 0.08},
		{radii[1], 1.3048, 0.10},
		{radii[2], 3.7069, 0.45},
	}
	for i, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("radius %d = %g, want %g +/- %g", i, c.got, c.want, c.tol)
		}
	}
	if !(radii[0] < radii[1] && radii[1] < radii[2]) {
		t.Errorf("radii not ascending: %v", radii)
	}
}

func TestLagrangianRadiiValidation(t *testing.T) {
	s := ic.Plummer(10, 1)
	if _, err := LagrangianRadii(s, 0); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, err := LagrangianRadii(s, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := LagrangianRadii(s, 0.5, 0.3); err == nil {
		t.Error("descending fractions accepted")
	}
	if _, err := LagrangianRadii(body.NewSystem(0), 0.5); err == nil {
		t.Error("empty system accepted")
	}
	// Fraction 1 returns the outermost radius.
	r, err := LagrangianRadii(s, 1)
	if err != nil || r[0] <= 0 {
		t.Errorf("full-mass radius %v err %v", r, err)
	}
}

func TestVelocityDispersion(t *testing.T) {
	// Two bodies moving oppositely: mean 0, sigma1D = |v|/sqrt(3).
	s := body.NewSystem(2)
	s.SetBody(0, body.Body{Pos: vec.V3{X: 1}, Vel: vec.V3{X: 2}, Mass: 1})
	s.SetBody(1, body.Body{Pos: vec.V3{X: -1}, Vel: vec.V3{X: -2}, Mass: 1})
	want := 2.0 / math.Sqrt(3)
	if got := VelocityDispersion(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("sigma = %g, want %g", got, want)
	}
	// Bulk motion does not contribute.
	for i := range s.Vel {
		s.Vel[i].Y += 10
	}
	if got := VelocityDispersion(s); math.Abs(got-want) > 1e-5 {
		t.Errorf("sigma with bulk flow = %g, want %g", got, want)
	}
}

func TestVirialRatioEquilibrium(t *testing.T) {
	s := ic.Plummer(4000, 3)
	vr := VirialFromEnergies(s.KineticEnergy(), s.PotentialEnergy(1, 0))
	if vr < 0.4 || vr > 0.6 {
		t.Errorf("Plummer virial ratio %g, want ~0.5", vr)
	}
	cold := ic.UniformCube(500, 2, 3)
	if vr := VirialFromEnergies(cold.KineticEnergy(), cold.PotentialEnergy(1, 0)); vr != 0 {
		t.Errorf("cold system virial ratio %g, want 0", vr)
	}
}

func TestSummarize(t *testing.T) {
	s := ic.Plummer(1000, 4)
	sum, err := Summarize(s, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 1000 || math.Abs(sum.TotalMass-1) > 1e-3 {
		t.Errorf("summary basics: %+v", sum)
	}
	if sum.VirialRatio < 0.35 || sum.VirialRatio > 0.65 {
		t.Errorf("virial ratio %g", sum.VirialRatio)
	}
	if !(sum.R10 < sum.HalfMassRadius && sum.HalfMassRadius < sum.R90) {
		t.Errorf("radii ordering: %+v", sum)
	}
	str := sum.String()
	for _, want := range []string{"N=1000", "-K/U", "sigma"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
}
