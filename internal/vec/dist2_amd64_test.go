package vec

import (
	"math"
	"testing"
)

// refDist2 is AABB.Dist2 in its loop form, kept to pin the straight-line
// form's bits. It runs only on amd64, where no multiply is fused into an
// add, so its rounding is the straight-line form's explicit one.
func refDist2(b AABB, p V3) float32 {
	var d2 float32
	for _, ax := range [3][3]float32{
		{p.X, b.Min.X, b.Max.X},
		{p.Y, b.Min.Y, b.Max.Y},
		{p.Z, b.Min.Z, b.Max.Z},
	} {
		v, lo, hi := ax[0], ax[1], ax[2]
		if v < lo {
			d := lo - v
			d2 += d * d
		} else if v > hi {
			d := v - hi
			d2 += d * d
		}
	}
	return d2
}

// dist2Axis is one axis of a Dist2 input: the point's coordinate and the
// box's extent.
type dist2Axis struct{ v, lo, hi float32 }

// dist2Axes crosses special boxes with special coordinates: inside, on each
// face and past it, gaps whose squares round, signed zeros, infinities and
// NaN in the point or the box, subnormal gaps and squares, and gaps whose
// squares overflow.
func dist2Axes() []dist2Axis {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	tiny := math.Float32frombits(1) // smallest subnormal
	boxes := [][2]float32{
		{0, 1}, {-1, 1}, {negZero, 0}, {0, negZero}, {2, 2},
		{inf, -inf}, {-inf, inf}, {-inf, 0}, {0, inf},
		{nan, 1}, {0, nan}, {nan, nan},
		{1e-40, 2e-40}, {tiny, tiny}, {-1e30, 1e30}, {1e30, 3e38},
	}
	var axes []dist2Axis
	for _, bx := range boxes {
		lo, hi := bx[0], bx[1]
		points := []float32{
			lo, hi, (lo + hi) / 2, lo - 1, hi + 1, lo - 1e-20, hi + 1e-20,
			0, negZero, inf, -inf, nan, tiny, -tiny, 1e-40, -1e-40,
			1e30, -1e30, 3e38, -3e38, 0.5, -2.5,
			// Gaps whose squares round, so the order of the sum shows.
			math.Pi, -math.E, 1.1, -0.3, 1e-3 * math.Pi, 7.77e5,
		}
		for _, v := range points {
			axes = append(axes, dist2Axis{v, lo, hi})
		}
	}
	return axes
}

// TestAABBDist2Bitwise requires AABB.Dist2 to return the loop form's bits
// on every special input: each axis runs through every case while the
// other two take a few typical ones, then a deterministic sweep mixes
// cases on all three axes.
func TestAABBDist2Bitwise(t *testing.T) {
	axes := dist2Axes()
	typical := []dist2Axis{
		{0.5, 0, 1}, {2, 0, 1}, {-3, 0, 1}, {1, 0, 1},
		{float32(math.NaN()), 0, 1}, {float32(math.Inf(-1)), 0, 1}, {1e30, -1, 1}, {1e-40, 0, 1e-20},
		{math.Pi, 0, 1}, {-0.3, 0, 1}, {1.1, -1, 1},
	}
	check := func(x, y, z dist2Axis) {
		b := AABB{Min: V3{x.lo, y.lo, z.lo}, Max: V3{x.hi, y.hi, z.hi}}
		p := V3{x.v, y.v, z.v}
		got, want := b.Dist2(p), refDist2(b, p)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Dist2(%+v, %v) = %v (%#08x), loop form %v (%#08x)",
				b, p, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	for _, a := range axes {
		for _, u := range typical {
			for _, w := range typical {
				check(a, u, w)
				check(u, a, w)
				check(u, w, a)
			}
		}
	}
	// A fixed stride through the full cross product: consecutive triples
	// differ on every axis.
	n := len(axes)
	for i := 0; i < 200000; i++ {
		check(axes[i%n], axes[(7*i+3)%n], axes[(13*i+5)%n])
	}
}
