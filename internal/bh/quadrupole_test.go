package bh

import (
	"math"
	"testing"

	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/pp"
	"repro/internal/vec"
)

func TestQuadTensorProperties(t *testing.T) {
	s := ic.Plummer(500, 1)
	tree, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tree.ComputeQuadrupoles()
	for ni := range tree.Nodes {
		q := tree.quads[ni]
		// Traceless by construction.
		if tr := float64(q.XX) + float64(q.YY) + float64(q.ZZ()); math.Abs(tr) > 1e-5 {
			t.Fatalf("node %d trace %g", ni, tr)
		}
	}
	// A single-body cell has a vanishing quadrupole about its own COM.
	for ni := range tree.Nodes {
		nd := &tree.Nodes[ni]
		if nd.Leaf && nd.Count == 1 {
			if q := tree.quads[ni]; math.Abs(float64(q.XX))+math.Abs(float64(q.XY)) > 1e-6 {
				t.Fatalf("single-body node %d has quadrupole %+v", ni, q)
			}
		}
	}
}

func TestQuadApplyContract(t *testing.T) {
	q := Quad{XX: 1, XY: 2, XZ: 3, YY: -4, YZ: 5}
	v := vec.V3{X: 1, Y: -1, Z: 2}
	got := q.Apply(v)
	// Manual: row1 = (1,2,3).v = 1-2+6 = 5; row2 = (2,-4,5).v = 2+4+10 = 16;
	// row3 = (3,5,3).v with ZZ = -(1-4)=3 -> 3-5+6 = 4.
	want := vec.V3{X: 5, Y: 16, Z: 4}
	if got != want {
		t.Fatalf("Apply = %v, want %v", got, want)
	}
	if !(Quad{}).IsZero() {
		t.Error("zero quad not zero")
	}
}

// TestQuadrupoleAgainstTwoPointCell checks the multipole expansion against
// the exact field of a known two-body cell at large distance: the monopole
// error decays like (d/r)^2 while the quadrupole-corrected error decays
// like (d/r)^3 (the dipole vanishes about the COM).
func TestQuadrupoleAgainstTwoPointCell(t *testing.T) {
	// Two unit masses separated by 2d along x, probe on the x axis at r.
	const d = 0.1
	mk := func() (*body.System, *Tree) {
		s := body.NewSystem(2)
		s.SetBody(0, body.Body{Pos: vec.V3{X: -d}, Mass: 1})
		s.SetBody(1, body.Body{Pos: vec.V3{X: +d}, Mass: 1})
		tree, err := Build(s, Options{Theta: 0.5, LeafCap: 2, MaxDepth: 10, Eps: 0, G: 1})
		if err != nil {
			t.Fatal(err)
		}
		tree.ComputeQuadrupoles()
		return s, tree
	}
	_, tree := mk()

	exact := func(r float64) float64 {
		return 1/((r+d)*(r+d)) + 1/((r-d)*(r-d))
	}
	for _, r := range []float64{1.0, 2.0, 4.0} {
		p := vec.V3{X: float32(-r)}
		// Cell 0 is the root covering both bodies.
		mono := tree.Nodes[0].COM.Sub(p)
		monoAcc := float64(tree.Nodes[0].Mass) / float64(mono.Norm2())
		quadAcc := float64(tree.quadAccel(0, p, 0).Norm())
		ex := exact(r)
		errMono := math.Abs(monoAcc-ex) / ex
		errQuad := math.Abs(quadAcc-ex) / ex
		if errQuad >= errMono {
			t.Errorf("r=%g: quadrupole error %g not below monopole %g", r, errQuad, errMono)
		}
		// Quadrupole truncation error should be O((d/r)^4) for this
		// symmetric pair (odd moments vanish): a decade below monopole at
		// r/d = 10.
		if r >= 2 && errQuad > errMono/5 {
			t.Errorf("r=%g: quadrupole error %g too large vs monopole %g", r, errQuad, errMono)
		}
	}
}

func TestQuadrupoleImprovesAccuracy(t *testing.T) {
	s := ic.Plummer(2000, 3)
	exact := s.Clone()
	pp.Scalar(exact, pp.Params{G: 1, Eps: 0.05})

	opt := DefaultOptions()
	opt.Theta = 0.8 // coarse, so cell terms dominate the error budget

	monoSys := s.Clone()
	monoTree, err := Build(monoSys, opt)
	if err != nil {
		t.Fatal(err)
	}
	monoTree.Accel(1)
	errMono := pp.RMSRelError(exact.Acc, monoSys.Acc, 1e-3)

	quadSys := s.Clone()
	quadTree, err := Build(quadSys, opt)
	if err != nil {
		t.Fatal(err)
	}
	quadTree.ComputeQuadrupoles()
	st := quadTree.AccelQuad()
	errQuad := pp.RMSRelError(exact.Acc, quadSys.Acc, 1e-3)

	// Per accepted cell the monopole truncation error scales like (s/2d)^2
	// and the quadrupole one like (s/2d)^3, so at theta=0.8 the expected
	// gain is a factor ~2-3, growing as theta shrinks.
	if errQuad >= errMono/1.5 {
		t.Errorf("quadrupole RMS error %g not clearly below monopole %g", errQuad, errMono)
	}
	if st.Interactions == 0 {
		t.Error("no interactions recorded")
	}
	t.Logf("theta=%.1f: monopole RMS %.2e, quadrupole RMS %.2e (%.1fx better)",
		opt.Theta, errMono, errQuad, errMono/errQuad)
}

func TestAccelQuadPanicsWithoutMoments(t *testing.T) {
	s := ic.Plummer(64, 1)
	tree, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AccelQuadAt without ComputeQuadrupoles did not panic")
		}
	}()
	tree.AccelQuadAt(0)
}
