package fmm

import (
	"math"
	"testing"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/pp"
	"repro/internal/vec"
)

func run(t *testing.T, s *body.System, opt bh.Options) Stats {
	t.Helper()
	tree, err := bh.Build(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Accel(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMatchesDirectSum(t *testing.T) {
	for _, n := range []int{2, 17, 300, 2000} {
		s := ic.Plummer(n, uint64(n))
		exact := s.Clone()
		pp.Scalar(exact, pp.Params{G: 1, Eps: 0.05})

		opt := bh.DefaultOptions()
		run(t, s, opt)
		if e := pp.RMSRelError(exact.Acc, s.Acc, 1e-3); e > 0.01 {
			t.Errorf("n=%d: RMS rel error %g vs direct sum", n, e)
		}
	}
}

func TestAccuracyImprovesWithTheta(t *testing.T) {
	s0 := ic.Plummer(3000, 1)
	exact := s0.Clone()
	pp.Scalar(exact, pp.Params{G: 1, Eps: 0.05})

	var prev = math.Inf(1)
	for _, theta := range []float32{1.0, 0.6, 0.3} {
		opt := bh.DefaultOptions()
		opt.Theta = theta
		s := s0.Clone()
		run(t, s, opt)
		e := pp.RMSRelError(exact.Acc, s.Acc, 1e-3)
		if e > prev*1.1 {
			t.Errorf("theta=%g: error %g did not improve on %g", theta, e, prev)
		}
		prev = e
	}
}

func TestMomentumExactlyAntisymmetric(t *testing.T) {
	// Every interaction is applied to both partners with opposite
	// mass-weighted signs, so the net momentum change is zero to float32
	// rounding — far tighter than the one-sided engines achieve.
	s := ic.Plummer(1500, 2)
	run(t, s, bh.DefaultOptions())
	var f vec.D3
	var scale float64
	for i := range s.Acc {
		f = f.Add(s.Acc[i].D3().Scale(float64(s.Mass[i])))
		scale += s.Acc[i].D3().Norm() * float64(s.Mass[i])
	}
	if f.Norm() > 1e-6*scale {
		t.Errorf("net force %v (relative %g)", f, f.Norm()/scale)
	}
}

func TestComplexityIsNearLinear(t *testing.T) {
	opt := bh.DefaultOptions()
	s1 := ic.Plummer(4096, 1)
	st1 := run(t, s1, opt)
	s2 := ic.Plummer(16384, 1)
	st2 := run(t, s2, opt)
	growth := float64(st2.Interactions()) / float64(st1.Interactions())
	// O(N) predicts 4x; allow the constant to drift but demand clearly
	// better than the treecode's N log N growth and far better than N^2.
	if growth > 6.5 {
		t.Errorf("interaction growth %gx for 4x bodies; not FMM-like", growth)
	}
	// And the dual-tree should need fewer interactions than per-body BH
	// walks at the same theta.
	tree, err := bh.Build(s2.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	bhStats := tree.Accel(0)
	if st2.Interactions() >= bhStats.Interactions {
		t.Errorf("dual-tree interactions %d not below BH %d",
			st2.Interactions(), bhStats.Interactions)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Accel(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	s := ic.Plummer(64, 1)
	tree, err := bh.Build(s, bh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	other := ic.Plummer(32, 2)
	if _, err := Accel(tree, other); err == nil {
		t.Error("mismatched system accepted")
	}
}

func TestEngineConservesEnergy(t *testing.T) {
	s := ic.Plummer(512, 3)
	eng := &Engine{Opt: bh.DefaultOptions()}
	lf := &integrate.Leapfrog{}
	force := func(sys *body.System) int64 {
		n, err := eng.Accel(sys)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	e0 := s.KineticEnergy() + s.PotentialEnergy(1, 0.05)
	for i := 0; i < 25; i++ {
		lf.Step(s, 0.01, force)
	}
	e1 := s.KineticEnergy() + s.PotentialEnergy(1, 0.05)
	drift := math.Abs((e1 - e0) / e0)
	if drift > 5e-3 {
		t.Errorf("energy drift %g", drift)
	}
	if eng.Name() != "cpu-fmm" {
		t.Errorf("Name = %q", eng.Name())
	}
	// Momentum stays pinned thanks to exact antisymmetry.
	if p := s.Momentum(); p.Norm() > 1e-3 {
		t.Errorf("momentum drift %v", p)
	}
}

func TestTwoBodySanity(t *testing.T) {
	s := body.NewSystem(2)
	s.SetBody(0, body.Body{Pos: vec.V3{X: -1}, Mass: 1})
	s.SetBody(1, body.Body{Pos: vec.V3{X: 1}, Mass: 1})
	opt := bh.DefaultOptions()
	opt.Eps = 0
	run(t, s, opt)
	if math.Abs(float64(s.Acc[0].X)-0.25) > 1e-6 || math.Abs(float64(s.Acc[1].X)+0.25) > 1e-6 {
		t.Errorf("two-body forces %v %v", s.Acc[0], s.Acc[1])
	}
}
