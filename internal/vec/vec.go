// Package vec provides the small fixed-size vector types used throughout the
// simulation: V3 (float32, the GPU-side precision of the paper's kernels) and
// D3 (float64, used for diagnostics where accumulated round-off matters), plus
// an axis-aligned bounding box.
package vec

import (
	"fmt"
	"math"
)

// V3 is a 3-component single-precision vector. Body positions, velocities and
// accelerations are stored in V3, matching the float arithmetic of the
// paper's OpenCL kernels.
type V3 struct {
	X, Y, Z float32
}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v V3) Scale(s float32) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v . w.
func (v V3) Dot(w V3) float32 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm2 returns |v|^2.
func (v V3) Norm2() float32 { return v.Dot(v) }

// Norm returns |v|.
func (v V3) Norm() float32 { return float32(math.Sqrt(float64(v.Norm2()))) }

// D3 widens v to double precision.
func (v V3) D3() D3 { return D3{float64(v.X), float64(v.Y), float64(v.Z)} }

// String implements fmt.Stringer.
func (v V3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// D3 is a 3-component double-precision vector used for diagnostics
// (energies, momenta, centre of mass) where single precision would lose the
// signal in accumulated round-off.
type D3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v D3) Add(w D3) D3 { return D3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v D3) Sub(w D3) D3 { return D3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v D3) Scale(s float64) D3 { return D3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v . w.
func (v D3) Dot(w D3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm2 returns |v|^2.
func (v D3) Norm2() float64 { return v.Dot(v) }

// Norm returns |v|.
func (v D3) Norm() float64 { return math.Sqrt(v.Norm2()) }

// V3 narrows v to single precision.
func (v D3) V3() V3 { return V3{float32(v.X), float32(v.Y), float32(v.Z)} }

// String implements fmt.Stringer.
func (v D3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// AABB is an axis-aligned bounding box. A box with Min > Max on any axis is
// empty; Empty returns such a box suitable as the identity for Extend.
type AABB struct {
	Min, Max V3
}

// Empty returns the empty box, the identity element for Extend and Union.
func Empty() AABB {
	inf := float32(math.Inf(1))
	return AABB{Min: V3{inf, inf, inf}, Max: V3{-inf, -inf, -inf}}
}

// Extend grows the box to include point p.
func (b AABB) Extend(p V3) AABB {
	return AABB{
		Min: V3{min32(b.Min.X, p.X), min32(b.Min.Y, p.Y), min32(b.Min.Z, p.Z)},
		Max: V3{max32(b.Max.X, p.X), max32(b.Max.Y, p.Y), max32(b.Max.Z, p.Z)},
	}
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB {
	return AABB{
		Min: V3{min32(b.Min.X, c.Min.X), min32(b.Min.Y, c.Min.Y), min32(b.Min.Z, c.Min.Z)},
		Max: V3{max32(b.Max.X, c.Max.X), max32(b.Max.Y, c.Max.Y), max32(b.Max.Z, c.Max.Z)},
	}
}

// Center returns the box centre. It is undefined for an empty box.
func (b AABB) Center() V3 {
	return V3{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2, (b.Min.Z + b.Max.Z) / 2}
}

// Size returns the box extent along each axis.
func (b AABB) Size() V3 {
	return V3{b.Max.X - b.Min.X, b.Max.Y - b.Min.Y, b.Max.Z - b.Min.Z}
}

// MaxExtent returns the largest axis extent, the side length of the cube used
// as an octree root.
func (b AABB) MaxExtent() float32 {
	s := b.Size()
	return max32(s.X, max32(s.Y, s.Z))
}

// Dist2 returns the squared distance from p to the closest point of the box
// (zero when p is inside). It is the quantity used by the group-walk opening
// criterion. The squares are summed x, then y, then z; an axis on which p
// lies inside the box (or that holds a NaN) adds +0, which leaves the
// non-negative sum unchanged. Each square is converted explicitly, so no
// architecture fuses it into the sum.
func (b AABB) Dist2(p V3) float32 {
	dx := gap(p.X, b.Min.X, b.Max.X)
	dy := gap(p.Y, b.Min.Y, b.Max.Y)
	dz := gap(p.Z, b.Min.Z, b.Max.Z)
	return float32(dx*dx) + float32(dy*dy) + float32(dz*dz)
}

// gap returns how far v lies outside [lo, hi], or 0 inside it.
func gap(v, lo, hi float32) float32 {
	if v < lo {
		return lo - v
	}
	if v > hi {
		return v - hi
	}
	return 0
}

func min32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
