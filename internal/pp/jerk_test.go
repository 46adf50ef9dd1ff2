package pp

import (
	"math"
	"testing"

	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/rng"
	"repro/internal/vec"
)

// TestScalarJerkMatchesFiniteDifference checks the analytic jerk against a
// central finite difference of the acceleration along straight-line motion:
// advancing every body by +-h along its velocity and differencing Scalar's
// accelerations must reproduce ScalarJerk to O(h^2).
func TestScalarJerkMatchesFiniteDifference(t *testing.T) {
	const n = 64
	s := ic.Plummer(n, 7)
	p := Params{G: 1, Eps: 0.1}

	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	jerk := make([]vec.V3, n)
	ScalarJerk(s, active, jerk, p)

	const h = 1e-3
	shift := func(sign float32) *body.System {
		c := s.Clone()
		for i := range c.Pos {
			c.Pos[i] = c.Pos[i].Add(c.Vel[i].Scale(sign * h))
		}
		return c
	}
	fwd := shift(+1)
	bwd := shift(-1)
	Scalar(fwd, p)
	Scalar(bwd, p)

	var worst float64
	for i := 0; i < n; i++ {
		fd := fwd.Acc[i].Sub(bwd.Acc[i]).Scale(1 / (2 * h))
		d := float64(fd.Sub(jerk[i]).Norm())
		den := float64(jerk[i].Norm()) + 1e-3
		if r := d / den; r > worst {
			worst = r
		}
	}
	if worst > 2e-2 {
		t.Fatalf("jerk vs finite difference: worst relative error %.3g", worst)
	}
}

// TestScalarJerkAccMatchesScalar checks that the acceleration half of the
// combined kernel reproduces the canonical force path for the active subset.
func TestScalarJerkAccMatchesScalar(t *testing.T) {
	const n = 96
	s := ic.Plummer(n, 3)
	p := DefaultParams()

	want := s.Clone()
	Scalar(want, p)

	active := []int{0, 5, 17, 41, 95}
	jerk := make([]vec.V3, n)
	ScalarJerk(s, active, jerk, p)
	for _, i := range active {
		d := float64(s.Acc[i].Sub(want.Acc[i]).Norm())
		den := float64(want.Acc[i].Norm()) + 1e-6
		if d/den > 1e-6 {
			t.Fatalf("body %d: ScalarJerk acc %v != Scalar acc %v", i, s.Acc[i], want.Acc[i])
		}
	}
	// Inactive slots must be untouched (still zero: fresh clone).
	if s.Acc[1] != (vec.V3{}) || jerk[1] != (vec.V3{}) {
		t.Fatalf("inactive body written: acc=%v jerk=%v", s.Acc[1], jerk[1])
	}
}

// TestAccumulateJerkIntoCoincident pins the zero-softening coincident-body
// convention: zero force, zero jerk, no NaNs.
func TestAccumulateJerkIntoCoincident(t *testing.T) {
	a, j := AccumulateJerkInto(1, 2, 3, 0.1, 0.2, 0.3, 1, 2, 3, 9, 9, 9, 5, 0)
	if a != (vec.V3{}) || j != (vec.V3{}) {
		t.Fatalf("coincident bodies: acc=%v jerk=%v, want zeros", a, j)
	}
	if math.IsNaN(float64(j.X)) {
		t.Fatal("NaN jerk")
	}
}

// TestAccumulateJerkTileMatchesOneByOne requires the jerk tile leaf to equal
// AccumulateJerkInto called one 7-float source (x, y, z, m, vx, vy, vz) at a
// time, in tile order, bit for bit.
func TestAccumulateJerkTileMatchesOneByOne(t *testing.T) {
	r := rng.New(3)
	coord := func() float32 { return float32(r.NormFloat64()) }
	bits := func(fs ...float32) (b []uint32) {
		for _, f := range fs {
			b = append(b, math.Float32bits(f))
		}
		return b
	}
	for trial := 0; trial < 200; trial++ {
		k := int(r.Uint64() % 301)
		tile := make([]float32, 7*k)
		for i := range tile {
			tile[i] = coord()
		}
		for i := 0; i < k; i++ {
			tile[7*i+3] = float32(r.Float64())
		}
		px, py, pz, vx, vy, vz := coord(), coord(), coord(), coord(), coord(), coord()
		ax, ay, az, jx, jy, jz := coord(), coord(), coord(), coord(), coord(), coord()
		eps2 := float32(r.Float64() * 0.01)

		wa, wj := vec.V3{X: ax, Y: ay, Z: az}, vec.V3{X: jx, Y: jy, Z: jz}
		for i := 0; i < k; i++ {
			s := tile[7*i:]
			a, j := AccumulateJerkInto(px, py, pz, vx, vy, vz, s[0], s[1], s[2], s[4], s[5], s[6], s[3], eps2)
			wa.X, wa.Y, wa.Z = wa.X+a.X, wa.Y+a.Y, wa.Z+a.Z
			wj.X, wj.Y, wj.Z = wj.X+j.X, wj.Y+j.Y, wj.Z+j.Z
		}
		gax, gay, gaz, gjx, gjy, gjz := AccumulateJerkTile(px, py, pz, vx, vy, vz, ax, ay, az, jx, jy, jz, tile, eps2)
		got, want := bits(gax, gay, gaz, gjx, gjy, gjz), bits(wa.X, wa.Y, wa.Z, wj.X, wj.Y, wj.Z)
		for c := range got {
			if got[c] != want[c] {
				t.Fatalf("trial %d, %d sources: tile %v, one by one %v", trial, k, got, want)
			}
		}
	}
}
