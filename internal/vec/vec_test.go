package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func v3Gen(a, b, c int16) V3 {
	return V3{float32(a) / 64, float32(b) / 64, float32(c) / 64}
}

func approx32(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestV3Algebra(t *testing.T) {
	add := func(ax, ay, az, bx, by, bz int16) bool {
		a, b := v3Gen(ax, ay, az), v3Gen(bx, by, bz)
		// Commutativity and inverse.
		if a.Add(b) != b.Add(a) {
			return false
		}
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(add, nil); err != nil {
		t.Error(err)
	}

	scale := func(ax, ay, az int16) bool {
		a := v3Gen(ax, ay, az)
		return a.Scale(2) == a.Add(a) && a.Scale(-1) == (V3{-a.X, -a.Y, -a.Z}) && a.Scale(0) == (V3{})
	}
	if err := quick.Check(scale, nil); err != nil {
		t.Error(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	f := func(ax, ay, az int16) bool {
		a := v3Gen(ax, ay, az)
		if !approx32(a.Dot(a), a.Norm2(), 1e-5*(1+a.Norm2())) {
			return false
		}
		n := a.Norm()
		return approx32(n*n, a.Norm2(), 1e-3*(1+a.Norm2()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Cauchy-Schwarz.
	cs := func(ax, ay, az, bx, by, bz int16) bool {
		a, b := v3Gen(ax, ay, az), v3Gen(bx, by, bz)
		lhs := float64(a.Dot(b))
		rhs := float64(a.Norm()) * float64(b.Norm())
		return math.Abs(lhs) <= rhs*(1+1e-5)+1e-6
	}
	if err := quick.Check(cs, nil); err != nil {
		t.Error(err)
	}
}

func TestD3RoundTrip(t *testing.T) {
	a := V3{1.5, -2.25, 3.75} // exactly representable
	if a.D3().V3() != a {
		t.Errorf("D3 round trip changed %v", a)
	}
	d := D3{0.1, 0.2, 0.3}
	if got := d.Scale(2); math.Abs(got.X-0.2) > 1e-15 {
		t.Errorf("D3.Scale: %v", got)
	}
	if s := d.Sub(d); s != (D3{}) {
		t.Errorf("D3.Sub self = %v", s)
	}
}

func TestD3Norm(t *testing.T) {
	d := D3{3, 4, 0}
	if d.Norm() != 5 {
		t.Errorf("Norm(3,4,0) = %g", d.Norm())
	}
	if d.Norm2() != 25 {
		t.Errorf("Norm2 = %g", d.Norm2())
	}
	if d.Dot(D3{1, 1, 1}) != 7 {
		t.Errorf("Dot = %g", d.Dot(D3{1, 1, 1}))
	}
}

func TestEmptyAABB(t *testing.T) {
	e := Empty()
	if !(e.Min.X > e.Max.X && e.Min.Y > e.Max.Y && e.Min.Z > e.Max.Z) {
		t.Fatal("Empty() not empty")
	}
	if e.Dist2(V3{}) == 0 {
		t.Error("empty box contains origin")
	}
	// Extending the empty box with one point gives the degenerate box at
	// that point.
	p := V3{1, 2, 3}
	b := e.Extend(p)
	if b.Min != p || b.Max != p {
		t.Errorf("Extend(empty, p) = %+v", b)
	}
}

func TestAABBExtendContains(t *testing.T) {
	f := func(pts [][3]int16) bool {
		if len(pts) == 0 {
			return true
		}
		b := Empty()
		vs := make([]V3, len(pts))
		for i, p := range pts {
			vs[i] = v3Gen(p[0], p[1], p[2])
			b = b.Extend(vs[i])
		}
		for _, v := range vs {
			if b.Dist2(v) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAABBUnion(t *testing.T) {
	a := AABB{Min: V3{0, 0, 0}, Max: V3{1, 1, 1}}
	b := AABB{Min: V3{2, -1, 0.5}, Max: V3{3, 0.5, 2}}
	u := a.Union(b)
	want := AABB{Min: V3{0, -1, 0}, Max: V3{3, 1, 2}}
	if u != want {
		t.Errorf("Union = %+v, want %+v", u, want)
	}
	// Union with empty is identity.
	if got := a.Union(Empty()); got != a {
		t.Errorf("Union with empty = %+v", got)
	}
}

func TestAABBGeometry(t *testing.T) {
	b := AABB{Min: V3{-1, -2, -3}, Max: V3{1, 2, 3}}
	if c := b.Center(); c != (V3{0, 0, 0}) {
		t.Errorf("Center = %v", c)
	}
	if s := b.Size(); s != (V3{2, 4, 6}) {
		t.Errorf("Size = %v", s)
	}
	if m := b.MaxExtent(); m != 6 {
		t.Errorf("MaxExtent = %g", m)
	}
}

func TestAABBDist2(t *testing.T) {
	b := AABB{Min: V3{0, 0, 0}, Max: V3{1, 1, 1}}
	cases := []struct {
		p    V3
		want float32
	}{
		{V3{0.5, 0.5, 0.5}, 0},        // inside
		{V3{2, 0.5, 0.5}, 1},          // +x face
		{V3{-1, 0.5, 0.5}, 1},         // -x face
		{V3{2, 2, 0.5}, 2},            // edge
		{V3{2, 2, 2}, 3},              // corner
		{V3{1, 1, 1}, 0},              // on corner
		{V3{0.5, -0.5, 0.5}, 0.25},    // -y face
		{V3{1.5, 1.5, 1.5}, 3 * 0.25}, // corner at 0.5 each axis
	}
	for _, c := range cases {
		if got := b.Dist2(c.p); !approx32(got, c.want, 1e-6) {
			t.Errorf("Dist2(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestDist2LowerBoundsPointDistances(t *testing.T) {
	// Property: Dist2(p) <= |p-q|^2 for every q in the box.
	f := func(px, py, pz, qx, qy, qz int16) bool {
		p := v3Gen(px, py, pz)
		q := v3Gen(qx, qy, qz)
		b := Empty().Extend(q).Extend(V3{0, 0, 0})
		return float64(b.Dist2(p)) <= float64(p.Sub(q).Norm2())+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestV3String(t *testing.T) {
	if s := (V3{1, 2, 3}).String(); s != "(1, 2, 3)" {
		t.Errorf("String = %q", s)
	}
	if s := (D3{1.5, 0, -2}).String(); s != "(1.5, 0, -2)" {
		t.Errorf("D3 String = %q", s)
	}
}
