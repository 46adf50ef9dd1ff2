package body

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func twoBody() *System {
	s := NewSystem(2)
	s.SetBody(0, Body{Pos: vec.V3{X: -1}, Vel: vec.V3{Y: 0.5}, Mass: 1})
	s.SetBody(1, Body{Pos: vec.V3{X: 1}, Vel: vec.V3{Y: -0.5}, Mass: 1})
	return s
}

func TestFromBodiesRoundTrip(t *testing.T) {
	bs := []Body{
		{Pos: vec.V3{X: 1, Y: 2, Z: 3}, Vel: vec.V3{X: 4, Y: 5, Z: 6}, Mass: 7},
		{Pos: vec.V3{X: -1, Y: 0, Z: 1}, Vel: vec.V3{X: 0, Y: 0, Z: 0}, Mass: 0.5},
	}
	s := NewSystem(len(bs))
	for i, b := range bs {
		s.SetBody(i, b)
	}
	if s.N() != 2 {
		t.Fatalf("N = %d", s.N())
	}
	for i, want := range bs {
		if got := s.Body(i); got != want {
			t.Errorf("Body(%d) = %+v, want %+v", i, got, want)
		}
	}
	s.SetBody(0, bs[1])
	if s.Body(0) != bs[1] {
		t.Error("SetBody did not store")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := twoBody()
	s.Acc[0] = vec.V3{X: 9, Y: 9, Z: 9}
	c := s.Clone()
	c.Pos[0].X = 42
	c.Acc[0].X = 0
	if s.Pos[0].X == 42 || s.Acc[0].X == 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestValidate(t *testing.T) {
	s := twoBody()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	bad := twoBody()
	bad.Mass[1] = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero mass accepted")
	}
	nan := twoBody()
	nan.Pos[0].X = float32(math.NaN())
	if err := nan.Validate(); err == nil {
		t.Error("NaN position accepted")
	}
	ragged := twoBody()
	ragged.Vel = ragged.Vel[:1]
	if err := ragged.Validate(); err == nil {
		t.Error("ragged system accepted")
	}
	inf := twoBody()
	inf.Vel[0].Y = float32(math.Inf(1))
	if err := inf.Validate(); err == nil {
		t.Error("infinite velocity accepted")
	}
}

func TestDiagnostics(t *testing.T) {
	s := twoBody()
	if m := s.TotalMass(); m != 2 {
		t.Errorf("TotalMass = %g", m)
	}
	if com := s.CenterOfMass(); com.Norm() > 1e-12 {
		t.Errorf("COM = %v", com)
	}
	if p := s.Momentum(); p.Norm() > 1e-12 {
		t.Errorf("Momentum = %v", p)
	}
	// L = sum m r x v: body0 at (-1,0,0), v=(0,0.5,0) -> Lz = -1*0.5 = -0.5;
	// body1 mirrored gives another -0.5.
	if l := s.AngularMomentum(); math.Abs(l.Z+1) > 1e-12 {
		t.Errorf("Lz = %g, want -1", l.Z)
	}
	if k := s.KineticEnergy(); math.Abs(k-0.25) > 1e-12 {
		t.Errorf("K = %g, want 0.25", k)
	}
	// U = -G m1 m2 / sqrt(4 + eps^2) with G=1, eps=0.
	if u := s.PotentialEnergy(1, 0); math.Abs(u+0.5) > 1e-12 {
		t.Errorf("U = %g, want -0.5", u)
	}
}

func TestPotentialEnergySoftening(t *testing.T) {
	s := twoBody()
	u0 := s.PotentialEnergy(1, 0)
	u1 := s.PotentialEnergy(1, 1)
	if u1 <= u0 {
		t.Errorf("softened potential %g not shallower than %g", u1, u0)
	}
	want := -1 / math.Sqrt(5) // r=2, eps=1 -> sqrt(4+1)
	if math.Abs(u1-want) > 1e-12 {
		t.Errorf("softened U = %g, want %g", u1, want)
	}
}

func TestRecenterProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := NewSystem(16)
		x := uint64(seed)
		next := func() float32 {
			x = x*6364136223846793005 + 1442695040888963407
			return float32(int32(x>>33)) / (1 << 28)
		}
		for i := 0; i < s.N(); i++ {
			s.Pos[i] = vec.V3{X: next(), Y: next(), Z: next()}
			s.Vel[i] = vec.V3{X: next(), Y: next(), Z: next()}
			s.Mass[i] = 0.1 + float32(math.Abs(float64(next())))
		}
		s.Recenter()
		return s.CenterOfMass().Norm() < 1e-4 && s.Momentum().Norm() < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBounds(t *testing.T) {
	s := twoBody()
	b := s.Bounds()
	if b.Min.X != -1 || b.Max.X != 1 {
		t.Errorf("Bounds = %+v", b)
	}
	if b.Dist2(vec.V3{}) != 0 {
		t.Error("bounds exclude origin")
	}
}

func TestFlattenUnflatten(t *testing.T) {
	s := twoBody()
	flat := s.FlattenPos(nil)
	if len(flat) != 8 {
		t.Fatalf("flat len = %d", len(flat))
	}
	if flat[0] != -1 || flat[3] != 1 || flat[4] != 1 || flat[7] != 1 {
		t.Errorf("flat = %v", flat)
	}
	// Buffer reuse: same backing array when capacity suffices.
	flat2 := s.FlattenPos(flat)
	if &flat2[0] != &flat[0] {
		t.Error("FlattenPos reallocated despite sufficient capacity")
	}

	acc := []float32{1, 2, 3, 0, 4, 5, 6, 0}
	s.UnflattenAcc(acc)
	if s.Acc[0] != (vec.V3{X: 1, Y: 2, Z: 3}) || s.Acc[1] != (vec.V3{X: 4, Y: 5, Z: 6}) {
		t.Errorf("Acc = %v", s.Acc)
	}
}

func TestUnflattenAccPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short buffer")
		}
	}()
	twoBody().UnflattenAcc([]float32{1, 2})
}

func TestZeroAcc(t *testing.T) {
	s := twoBody()
	s.Acc[0] = vec.V3{X: 1, Y: 1, Z: 1}
	s.ZeroAcc()
	if s.Acc[0] != (vec.V3{}) {
		t.Error("ZeroAcc left residue")
	}
}
