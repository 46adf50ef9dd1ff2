package bh

import (
	"math"

	"repro/internal/pp"
	"repro/internal/vec"
)

// Quadrupole extension: the classic first improvement over the monopole
// (centre-of-mass) treecode the paper implements. Each cell additionally
// carries the traceless quadrupole tensor of its bodies about the centre of
// mass,
//
//	Q_ab = sum_i m_i (3 dr_a dr_b - |dr|^2 delta_ab),   dr = r_i - COM,
//
// and the far-field acceleration gains the quadrupole term of the multipole
// expansion. At equal theta this cuts the force error by roughly an order
// of magnitude for ~15 extra flops per accepted cell; the theta-order
// ablation (exp.QuadrupoleSweep) quantifies the trade. The GPU plans keep
// the paper's monopole kernels; quadrupole evaluation is a CPU-engine
// extension.

// Quad is a symmetric traceless 3x3 tensor stored as its upper triangle.
type Quad struct {
	XX, XY, XZ, YY, YZ float32 // ZZ = -(XX+YY) by tracelessness
}

// ZZ returns the redundant component.
func (q Quad) ZZ() float32 { return -(q.XX + q.YY) }

// IsZero reports whether the tensor vanishes (single body or perfectly
// symmetric distribution).
func (q Quad) IsZero() bool {
	return q.XX == 0 && q.XY == 0 && q.XZ == 0 && q.YY == 0 && q.YZ == 0
}

// Apply returns Q . v.
func (q Quad) Apply(v vec.V3) vec.V3 {
	return vec.V3{
		X: q.XX*v.X + q.XY*v.Y + q.XZ*v.Z,
		Y: q.XY*v.X + q.YY*v.Y + q.YZ*v.Z,
		Z: q.XZ*v.X + q.YZ*v.Y + q.ZZ()*v.Z,
	}
}

// ComputeQuadrupoles fills the quadrupole moment of every node, bottom-up.
// It is optional: Build does not compute them (the monopole pipeline of the
// paper does not need them); call it once after Build when using
// AccelQuadAt.
func (t *Tree) ComputeQuadrupoles() {
	if t.quads == nil {
		t.quads = make([]Quad, len(t.Nodes))
	}
	t.computeQuad(0)
}

// computeQuad computes the quadrupole of node ni about its own COM directly
// from its bodies. (A production code would use the parallel-axis shift of
// child moments; the direct form is O(N log N) overall and trivially
// correct, which the tests exploit.)
func (t *Tree) computeQuad(ni int32) {
	nd := &t.Nodes[ni]
	var xx, xy, xz, yy, yz float64
	for _, bi := range t.Index[nd.First : nd.First+nd.Count] {
		m := float64(t.sys.Mass[bi])
		d := t.sys.Pos[bi].Sub(nd.COM)
		dx, dy, dz := float64(d.X), float64(d.Y), float64(d.Z)
		r2 := dx*dx + dy*dy + dz*dz
		xx += m * (3*dx*dx - r2)
		xy += m * 3 * dx * dy
		xz += m * 3 * dx * dz
		yy += m * (3*dy*dy - r2)
		yz += m * 3 * dy * dz
	}
	t.quads[ni] = Quad{
		XX: float32(xx), XY: float32(xy), XZ: float32(xz),
		YY: float32(yy), YZ: float32(yz),
	}
	if !nd.Leaf {
		for _, ci := range nd.Children {
			if ci != NoChild {
				t.computeQuad(ci)
			}
		}
	}
}

// QuadFlopsPerCell is the conventional extra operation count charged per
// quadrupole-accepted cell on top of the monopole interaction.
const QuadFlopsPerCell = 15

// quadAccel returns the softened monopole+quadrupole acceleration at p due
// to the cell ni: with u = COM - p, r^2 = |u|^2 + eps^2,
//
//	a = M u / r^3 - Q u / r^5 + (5/2) (u^T Q u) u / r^7
//
// (G applied by the caller). With eps -> 0 this is -grad_p of the
// multipole-expanded potential phi = -M/r - (u^T Q u)/(2 r^5); note
// grad_p = -grad_u since u = COM - p.
func (t *Tree) quadAccel(ni int32, p vec.V3, eps2 float32) vec.V3 {
	nd := &t.Nodes[ni]
	u := nd.COM.Sub(p)
	r2 := u.Norm2() + eps2
	if r2 == 0 {
		return vec.V3{}
	}
	inv := 1 / float32(math.Sqrt(float64(r2)))
	inv2 := inv * inv
	inv3 := inv * inv2
	acc := u.Scale(nd.Mass * inv3)

	q := t.quads[ni]
	if q.IsZero() {
		return acc
	}
	inv5 := inv3 * inv2
	inv7 := inv5 * inv2
	qu := q.Apply(u)
	uqu := u.Dot(qu)
	acc = acc.Add(qu.Scale(-inv5))
	acc = acc.Add(u.Scale(2.5 * uqu * inv7))
	return acc
}

// AccelQuadAt returns the Barnes-Hut acceleration at body bi using
// monopole+quadrupole cell interactions. ComputeQuadrupoles must have been
// called after Build.
func (t *Tree) AccelQuadAt(bi int32) (vec.V3, Stats) {
	if t.quads == nil {
		panic("bh: AccelQuadAt before ComputeQuadrupoles")
	}
	var st Stats
	p := t.sys.Pos[bi]
	eps2 := t.Opt.Eps * t.Opt.Eps
	var acc vec.V3
	stack := make([]int32, 0, 64)
	stack = append(stack, 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[ni]
		if !nd.Leaf && t.accept(nd, p) {
			acc = acc.Add(t.quadAccel(ni, p, eps2))
			st.Interactions++
			continue
		}
		if nd.Leaf {
			for _, bj := range t.Index[nd.First : nd.First+nd.Count] {
				if bj == bi {
					continue
				}
				q := t.sys.Pos[bj]
				x, y, z := pp.AccumulateInto(p.X, p.Y, p.Z, q.X, q.Y, q.Z, t.sys.Mass[bj], eps2)
				acc.X, acc.Y, acc.Z = acc.X+x, acc.Y+y, acc.Z+z
				st.Interactions++
			}
			continue
		}
		st.NodesOpened++
		for _, ci := range nd.Children {
			if ci != NoChild {
				stack = append(stack, ci)
			}
		}
	}
	return acc.Scale(t.Opt.G), st
}

// AccelQuad fills sys.Acc for every body with quadrupole-corrected walks
// (serial; the accuracy ablation is not performance-critical).
func (t *Tree) AccelQuad() Stats {
	var st Stats
	for i := 0; i < t.sys.N(); i++ {
		a, s := t.AccelQuadAt(int32(i))
		t.sys.Acc[i] = a
		st.Interactions += s.Interactions
		st.NodesOpened += s.NodesOpened
	}
	return st
}
