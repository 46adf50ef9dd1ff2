package pp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/rng"
	"repro/internal/vec"
)

// system builds a System holding bs.
func system(bs ...body.Body) *body.System {
	s := body.NewSystem(len(bs))
	for i, b := range bs {
		s.SetBody(i, b)
	}
	return s
}

func TestTwoBodyAnalytic(t *testing.T) {
	// Two unit masses at distance 2, no softening: |a| = G m / r^2 = 0.25.
	s := system(
		body.Body{Pos: vec.V3{X: -1}, Mass: 1},
		body.Body{Pos: vec.V3{X: 1}, Mass: 1},
	)
	Scalar(s, Params{G: 1, Eps: 0})
	if math.Abs(float64(s.Acc[0].X)-0.25) > 1e-6 {
		t.Errorf("a0.x = %g, want 0.25", s.Acc[0].X)
	}
	if math.Abs(float64(s.Acc[1].X)+0.25) > 1e-6 {
		t.Errorf("a1.x = %g, want -0.25", s.Acc[1].X)
	}
	if s.Acc[0].Y != 0 || s.Acc[0].Z != 0 {
		t.Errorf("off-axis acceleration: %v", s.Acc[0])
	}
}

func TestSofteningReducesForce(t *testing.T) {
	mk := func(eps float32) float32 {
		s := system(
			body.Body{Pos: vec.V3{X: -0.5}, Mass: 1},
			body.Body{Pos: vec.V3{X: 0.5}, Mass: 1},
		)
		Scalar(s, Params{G: 1, Eps: eps})
		return s.Acc[0].X
	}
	if !(mk(1.0) < mk(0.1) && mk(0.1) < mk(0)) {
		t.Errorf("softening does not monotonically reduce force: %g %g %g", mk(0), mk(0.1), mk(1.0))
	}
}

func TestSelfInteractionIsZero(t *testing.T) {
	s := system(body.Body{Pos: vec.V3{X: 3, Y: -1, Z: 2}, Mass: 5})
	Scalar(s, Params{G: 1, Eps: 0.05})
	if s.Acc[0] != (vec.V3{}) {
		t.Errorf("single body acceleration = %v, want zero", s.Acc[0])
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	// Sum of m_i a_i must vanish: internal forces cancel pairwise.
	s := ic.Plummer(300, 8)
	Scalar(s, DefaultParams())
	var f vec.D3
	for i := range s.Acc {
		f = f.Add(s.Acc[i].D3().Scale(float64(s.Mass[i])))
	}
	// float32 accumulation leaves a small residue; compare against the
	// typical force magnitude.
	var scale float64
	for i := range s.Acc {
		scale += s.Acc[i].D3().Norm() * float64(s.Mass[i])
	}
	if f.Norm() > 1e-5*scale {
		t.Errorf("net internal force %v (relative %g)", f, f.Norm()/scale)
	}
}

// TestVariantsAgree requires every variant to equal Scalar bit for bit: each
// body's sum runs over the sources in the same order.
func TestVariantsAgree(t *testing.T) {
	params := DefaultParams()
	for _, n := range []int{1, 2, 17, 64, 100, 257} {
		ref := ic.Plummer(n, uint64(n))
		Scalar(ref, params)
		for name, run := range map[string]func(*body.System) int64{
			"tiled-16":   func(s *body.System) int64 { return Tiled(s, params, 16) },
			"tiled-def":  func(s *body.System) int64 { return Tiled(s, params, 0) },
			"parallel-3": func(s *body.System) int64 { return Parallel(s, params, 3) },
			"parallel-0": func(s *body.System) int64 { return Parallel(s, params, 0) },
		} {
			s := ic.Plummer(n, uint64(n))
			inter := run(s)
			if inter != int64(n)*int64(n) {
				t.Errorf("n=%d %s: interactions = %d", n, name, inter)
			}
			for i := range ref.Acc {
				if s.Acc[i] != ref.Acc[i] {
					t.Errorf("n=%d %s: body %d: %v, Scalar %v", n, name, i, s.Acc[i], ref.Acc[i])
					break
				}
			}
		}
	}
}

func TestTranslationInvariance(t *testing.T) {
	params := DefaultParams()
	s1 := ic.Plummer(128, 4)
	s2 := s1.Clone()
	shift := vec.V3{X: 10, Y: -20, Z: 5}
	for i := range s2.Pos {
		s2.Pos[i] = s2.Pos[i].Add(shift)
	}
	Scalar(s1, params)
	Scalar(s2, params)
	if e := MaxRelError(s1.Acc, s2.Acc, 1e-3); e > 1e-2 {
		t.Errorf("accelerations not translation invariant: %g", e)
	}
}

func TestAccumulateIntoProperties(t *testing.T) {
	// Force points from the body toward the source, scaled by source mass.
	f := func(px, py, pz, sx, sy, sz int16, m uint8) bool {
		p := vec.V3{X: float32(px) / 100, Y: float32(py) / 100, Z: float32(pz) / 100}
		q := vec.V3{X: float32(sx) / 100, Y: float32(sy) / 100, Z: float32(sz) / 100}
		mass := float32(m)/64 + 0.1
		var a vec.V3
		a.X, a.Y, a.Z = AccumulateInto(p.X, p.Y, p.Z, q.X, q.Y, q.Z, mass, 0.01)
		d := q.Sub(p)
		// a must be parallel to d with a non-negative coefficient.
		cross := vec.V3{
			X: a.Y*d.Z - a.Z*d.Y,
			Y: a.Z*d.X - a.X*d.Z,
			Z: a.X*d.Y - a.Y*d.X,
		}
		if float64(cross.Norm()) > 1e-5*(1+float64(a.Norm())*float64(d.Norm())) {
			return false
		}
		return a.Dot(d) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumulateIntoMassLinearity(t *testing.T) {
	x1, y1, z1 := AccumulateInto(0, 0, 0, 1, 2, 3, 1, 0.01)
	x2, y2, z2 := AccumulateInto(0, 0, 0, 1, 2, 3, 2, 0.01)
	if math.Abs(float64(x2-2*x1)) > 1e-6 {
		t.Errorf("force not linear in source mass: (%g,%g,%g) vs (%g,%g,%g)", x1, y1, z1, x2, y2, z2)
	}
}

// TestAccumulateTileMatchesOneByOne requires the tile loop to equal
// AccumulateInto called one source at a time, in tile order, bit for bit,
// and a coincident unsoftened source to contribute exactly +0.
func TestAccumulateTileMatchesOneByOne(t *testing.T) {
	r := rng.New(1)
	coord := func() float32 { return float32(r.NormFloat64()) }
	for trial := 0; trial < 200; trial++ {
		k := int(r.Uint64() % 301)
		tile := make([]float32, 4*k)
		for i := 0; i < k; i++ {
			tile[4*i], tile[4*i+1], tile[4*i+2], tile[4*i+3] = coord(), coord(), coord(), float32(r.Float64())
		}
		px, py, pz := coord(), coord(), coord()
		ax0, ay0, az0 := coord(), coord(), coord()
		eps2 := float32(r.Float64() * 0.01)

		wx, wy, wz := ax0, ay0, az0
		for i := 0; i < k; i++ {
			x, y, z := AccumulateInto(px, py, pz, tile[4*i], tile[4*i+1], tile[4*i+2], tile[4*i+3], eps2)
			wx, wy, wz = wx+x, wy+y, wz+z
		}
		gx, gy, gz := AccumulateTile(px, py, pz, ax0, ay0, az0, tile, eps2)
		if math.Float32bits(gx) != math.Float32bits(wx) || math.Float32bits(gy) != math.Float32bits(wy) ||
			math.Float32bits(gz) != math.Float32bits(wz) {
			t.Fatalf("trial %d, %d sources: tile (%g,%g,%g), one by one (%g,%g,%g)", trial, k, gx, gy, gz, wx, wy, wz)
		}
	}

	x, y, z := AccumulateInto(1, -2, 3, 1, -2, 3, 5, 0)
	for _, c := range []float32{x, y, z} {
		if c != 0 || math.Signbit(float64(c)) {
			t.Fatalf("coincident source with eps2 = 0 contributes (%g,%g,%g), want +0", x, y, z)
		}
	}
	if x, y, z := AccumulateTile(1, -2, 3, 0.5, 0.25, -1, []float32{1, -2, 3, 5}, 0); x != 0.5 || y != 0.25 || z != -1 {
		t.Fatalf("tile of one coincident source moved the sum to (%g,%g,%g)", x, y, z)
	}
}

// TestAccumulateGatherMatchesOneByOne requires the gather leaf to fold
// AccumulateInto of each listed source, in list order, into every lane's
// running sum bit for bit, with repeated and out-of-order indices and lists
// several stack tiles long.
func TestAccumulateGatherMatchesOneByOne(t *testing.T) {
	r := rng.New(2)
	coord := func() float32 { return float32(r.NormFloat64()) }
	const sources = 50
	src := make([]float32, 4*sources)
	for i := 0; i < sources; i++ {
		src[4*i], src[4*i+1], src[4*i+2], src[4*i+3] = coord(), coord(), coord(), float32(r.Float64())
	}
	for trial := 0; trial < 200; trial++ {
		list := make([]int32, r.Uint64()%(3*gatherTile+10))
		for e := range list {
			list[e] = int32(r.Uint64() % sources)
		}
		n := int(r.Uint64() % 10)
		var lanes [6][]float32 // px, py, pz, ax, ay, az
		for c := range lanes {
			lanes[c] = make([]float32, n)
			for l := range lanes[c] {
				lanes[c][l] = coord()
			}
		}
		px, py, pz := lanes[0], lanes[1], lanes[2]
		ax0, ay0, az0 := append([]float32(nil), lanes[3]...), append([]float32(nil), lanes[4]...), append([]float32(nil), lanes[5]...)
		eps2 := float32(r.Float64() * 0.01)

		AccumulateGatherLanes(px, py, pz, lanes[3], lanes[4], lanes[5], list, src, eps2)
		for l := 0; l < n; l++ {
			wx, wy, wz := ax0[l], ay0[l], az0[l]
			for _, j := range list {
				x, y, z := AccumulateInto(px[l], py[l], pz[l], src[4*j], src[4*j+1], src[4*j+2], src[4*j+3], eps2)
				wx, wy, wz = wx+x, wy+y, wz+z
			}
			gx, gy, gz := lanes[3][l], lanes[4][l], lanes[5][l]
			if math.Float32bits(gx) != math.Float32bits(wx) || math.Float32bits(gy) != math.Float32bits(wy) ||
				math.Float32bits(gz) != math.Float32bits(wz) {
				t.Fatalf("trial %d, %d entries, lane %d of %d: gather (%g,%g,%g), one by one (%g,%g,%g)",
					trial, len(list), l, n, gx, gy, gz, wx, wy, wz)
			}
		}
	}
}

func TestErrorMetrics(t *testing.T) {
	want := []vec.V3{{X: 1}, {Y: 2}}
	got := []vec.V3{{X: 1.1}, {Y: 2}}
	if e := MaxRelError(want, got, 0); math.Abs(e-0.1/1.0) > 1e-5 {
		t.Errorf("MaxRelError = %g", e)
	}
	rms := RMSRelError(want, got, 0)
	wantRMS := math.Sqrt(0.1 * 0.1 / 2)
	if math.Abs(rms-wantRMS) > 1e-5 {
		t.Errorf("RMSRelError = %g, want %g", rms, wantRMS)
	}
	if RMSRelError(nil, nil, 1) != 0 {
		t.Error("empty RMS not zero")
	}
}

func TestParallelWorkerEdgeCases(t *testing.T) {
	params := DefaultParams()
	// More workers than bodies, and exactly one worker, must both work.
	for _, workers := range []int{1, 5, 100} {
		s := ic.Plummer(3, 1)
		ref := s.Clone()
		Scalar(ref, params)
		Parallel(s, params, workers)
		if e := MaxRelError(ref.Acc, s.Acc, 1e-4); e > 1e-5 {
			t.Errorf("workers=%d: error %g", workers, e)
		}
	}
}
