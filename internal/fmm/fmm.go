// Package fmm implements the third force algorithm the paper surveys
// (Greengard & Rokhlin's fast multipole method, in the Dehnen-style
// cell-cell formulation): a *dual* tree traversal in which pairs of cells
// that satisfy a mutual acceptance criterion interact once through their
// multipoles, well-separated interactions accumulate into per-cell local
// fields (M2L), locals are pushed down the tree (L2L) and applied to bodies
// at the leaves (L2P), and only leaf-leaf pairs fall back to direct
// summation.
//
// Local expansions are kept to dipole order: each cell accumulates a
// uniform acceleration plus its spatial gradient (the Jacobian of the far
// field about the cell's centre of mass), which restores the second-order
// accuracy of the treecode while keeping the real FMM's O(N) interaction
// counts and — because every interaction is applied symmetrically to both
// sides, and the dipole term sums to zero over a cell's bodies by the
// definition of the centre of mass — *exact* Newton's-third-law
// antisymmetry of the total momentum change (the momentum-conservation
// property test exploits this). The octree substrate is shared with the
// Barnes-Hut package.
package fmm

import (
	"fmt"
	"math"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/pp"
	"repro/internal/vec"
)

// Stats reports the work of one evaluation.
type Stats struct {
	// CellPairs is the number of M2L (cell-cell multipole) interactions.
	CellPairs int64
	// DirectPairs is the number of body-body interactions evaluated (each
	// unordered pair counted once).
	DirectPairs int64
}

// Interactions returns a total comparable to the other engines' counts
// (direct pairs count twice: both partners receive a force).
func (s Stats) Interactions() int64 { return s.CellPairs + 2*s.DirectPairs }

// localExp is a dipole-order local expansion about a cell's centre of
// mass: the far-field acceleration is A + J.(x - COM) for a body at x.
// J is symmetric (it is the Hessian of the far potential).
type localExp struct {
	A vec.V3
	// Symmetric Jacobian, upper triangle.
	XX, XY, XZ, YY, YZ, ZZ float32
}

// apply evaluates the expansion at offset dx from the expansion centre.
func (l *localExp) apply(dx vec.V3) vec.V3 {
	return vec.V3{
		X: l.A.X + l.XX*dx.X + l.XY*dx.Y + l.XZ*dx.Z,
		Y: l.A.Y + l.XY*dx.X + l.YY*dx.Y + l.YZ*dx.Z,
		Z: l.A.Z + l.XZ*dx.X + l.YZ*dx.Y + l.ZZ*dx.Z,
	}
}

// addJ accumulates m * (3 d d^T / r^5 - I / r^3), the far-field Jacobian of
// a monopole of mass m at separation d (even in d, so both partners of an
// M2L pair share it up to their mass factors).
func (l *localExp) addJ(m float32, d vec.V3, inv3, inv5 float32) {
	c3 := 3 * m * inv5
	mi3 := m * inv3
	l.XX += c3*d.X*d.X - mi3
	l.XY += c3 * d.X * d.Y
	l.XZ += c3 * d.X * d.Z
	l.YY += c3*d.Y*d.Y - mi3
	l.YZ += c3 * d.Y * d.Z
	l.ZZ += c3*d.Z*d.Z - mi3
}

// evaluator carries one traversal's state.
type evaluator struct {
	t     *bh.Tree
	sys   *body.System
	theta float32
	eps2  float32
	// locals[ni] is the dipole-order local expansion of cell ni about its
	// COM, accumulated by M2L interactions (before the G factor).
	locals []localExp
	stats  Stats
}

// Accel computes accelerations into sys.Acc using the dual-tree method over
// a tree previously built (with bh.Build) for the same system. The tree's
// Options supply theta, eps and G.
func Accel(t *bh.Tree, sys *body.System) (Stats, error) {
	if t == nil || sys == nil {
		return Stats{}, fmt.Errorf("fmm: nil tree or system")
	}
	if len(t.Index) != sys.N() {
		return Stats{}, fmt.Errorf("fmm: tree covers %d bodies, system has %d", len(t.Index), sys.N())
	}
	e := &evaluator{
		t:      t,
		sys:    sys,
		theta:  t.Opt.Theta,
		eps2:   t.Opt.Eps * t.Opt.Eps,
		locals: make([]localExp, len(t.Nodes)),
	}
	sys.ZeroAcc()
	e.dual(0, 0)
	e.downward(0, localExp{})
	g := t.Opt.G
	for i := range sys.Acc {
		sys.Acc[i] = sys.Acc[i].Scale(g)
	}
	return e.stats, nil
}

// accept reports whether two distinct cells are well separated under the
// mutual opening criterion (s_a + s_b) / d < theta.
func (e *evaluator) accept(a, b *bh.Node) bool {
	d := b.COM.Sub(a.COM)
	d2 := d.Norm2()
	s := 2 * (a.Half + b.Half)
	return s*s < e.theta*e.theta*d2
}

// m2l applies the mutual multipole interaction between cells a and b: each
// side receives the other's monopole field expanded to dipole order about
// its own COM. Both sides are charged in one call; the uniform parts give
// m_a * dA_a = -m_b * dA_b exactly, and the Jacobian parts contribute no
// net momentum because sum m_i (x_i - COM) = 0.
func (e *evaluator) m2l(ai, bi int32) {
	a := &e.t.Nodes[ai]
	b := &e.t.Nodes[bi]
	d := b.COM.Sub(a.COM)
	r2 := d.Norm2() + e.eps2
	if r2 == 0 {
		return
	}
	inv := 1 / float32(math.Sqrt(float64(r2)))
	inv3 := inv * inv * inv
	inv5 := inv3 * inv * inv
	la := &e.locals[ai]
	lb := &e.locals[bi]
	la.A = la.A.Add(d.Scale(b.Mass * inv3))
	lb.A = lb.A.Sub(d.Scale(a.Mass * inv3))
	la.addJ(b.Mass, d, inv3, inv5)
	lb.addJ(a.Mass, d, inv3, inv5)
	e.stats.CellPairs++
}

// dual is the mutual traversal. Invariant: (ai, bi) is visited at most once
// per unordered pair.
func (e *evaluator) dual(ai, bi int32) {
	a := &e.t.Nodes[ai]
	b := &e.t.Nodes[bi]

	if ai == bi {
		if a.Leaf {
			e.directSelf(a)
			return
		}
		children := childrenOf(a)
		for x := 0; x < len(children); x++ {
			for y := x; y < len(children); y++ {
				e.dual(children[x], children[y])
			}
		}
		return
	}

	if e.accept(a, b) {
		e.m2l(ai, bi)
		return
	}
	if a.Leaf && b.Leaf {
		e.directPair(a, b)
		return
	}
	// Split the larger cell (or the only internal one).
	if b.Leaf || (!a.Leaf && a.Half >= b.Half) {
		for _, ci := range childrenOf(a) {
			e.dual(ci, bi)
		}
		return
	}
	for _, ci := range childrenOf(b) {
		e.dual(ai, ci)
	}
}

func childrenOf(n *bh.Node) []int32 {
	out := make([]int32, 0, 8)
	for _, ci := range n.Children {
		if ci != bh.NoChild {
			out = append(out, ci)
		}
	}
	return out
}

// directSelf sums the exact pairwise forces within one leaf, each unordered
// pair evaluated once and applied to both partners.
func (e *evaluator) directSelf(a *bh.Node) {
	idx := e.t.Index[a.First : a.First+a.Count]
	for x := 0; x < len(idx); x++ {
		bi := idx[x]
		p := e.sys.Pos[bi]
		for y := x + 1; y < len(idx); y++ {
			bj := idx[y]
			q := e.sys.Pos[bj]
			var k vec.V3
			k.X, k.Y, k.Z = pp.AccumulateInto(p.X, p.Y, p.Z, q.X, q.Y, q.Z, 1, e.eps2)
			e.sys.Acc[bi] = e.sys.Acc[bi].Add(k.Scale(e.sys.Mass[bj]))
			e.sys.Acc[bj] = e.sys.Acc[bj].Sub(k.Scale(e.sys.Mass[bi]))
			e.stats.DirectPairs++
		}
	}
}

// directPair sums the exact pairwise forces between two leaves.
func (e *evaluator) directPair(a, b *bh.Node) {
	idxA := e.t.Index[a.First : a.First+a.Count]
	idxB := e.t.Index[b.First : b.First+b.Count]
	for _, bi := range idxA {
		p := e.sys.Pos[bi]
		for _, bj := range idxB {
			q := e.sys.Pos[bj]
			var k vec.V3
			k.X, k.Y, k.Z = pp.AccumulateInto(p.X, p.Y, p.Z, q.X, q.Y, q.Z, 1, e.eps2)
			e.sys.Acc[bi] = e.sys.Acc[bi].Add(k.Scale(e.sys.Mass[bj]))
			e.sys.Acc[bj] = e.sys.Acc[bj].Sub(k.Scale(e.sys.Mass[bi]))
			e.stats.DirectPairs++
		}
	}
}

// downward pushes accumulated locals to the leaves (L2L: shift the parent
// expansion to the child's COM) and applies them to bodies (L2P: evaluate
// at each body's offset from its leaf's COM).
func (e *evaluator) downward(ni int32, inherited localExp) {
	n := &e.t.Nodes[ni]
	local := e.locals[ni]
	local.A = local.A.Add(inherited.A)
	local.XX += inherited.XX
	local.XY += inherited.XY
	local.XZ += inherited.XZ
	local.YY += inherited.YY
	local.YZ += inherited.YZ
	local.ZZ += inherited.ZZ
	if n.Leaf {
		for _, bi := range e.t.Index[n.First : n.First+n.Count] {
			dx := e.sys.Pos[bi].Sub(n.COM)
			e.sys.Acc[bi] = e.sys.Acc[bi].Add(local.apply(dx))
		}
		return
	}
	for _, ci := range n.Children {
		if ci == bh.NoChild {
			continue
		}
		c := &e.t.Nodes[ci]
		// L2L: re-centre the expansion at the child's COM. The Jacobian is
		// constant at this order; only the uniform part shifts.
		shifted := local
		shifted.A = local.apply(c.COM.Sub(n.COM))
		e.downward(ci, shifted)
	}
}

// Engine adapts the dual-tree method to the simulation driver, rebuilding
// the tree each call.
type Engine struct {
	Opt bh.Options
}

// Name implements the sim.Engine interface.
func (e *Engine) Name() string { return "cpu-fmm" }

// Accel implements the sim.Engine interface.
func (e *Engine) Accel(s *body.System) (int64, error) {
	t, err := bh.Build(s, e.Opt)
	if err != nil {
		return 0, err
	}
	st, err := Accel(t, s)
	if err != nil {
		return 0, err
	}
	return st.Interactions(), nil
}
