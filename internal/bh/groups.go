package bh

import (
	"fmt"
	"math"

	"repro/internal/pp"
	"repro/internal/vec"
)

// Walk is the unit of GPU work in the w-parallel and jw-parallel plans: a
// group of spatially adjacent bodies that shares one interaction list.
// Groups are consecutive chunks of the tree's body ordering (Tree.Index),
// so a walk's bodies form a dense range — the property that lets the GPU
// kernels load them with coalesced accesses and keep all lanes busy.
//
// NodeList holds tree cells accepted by the group MAC and treated as
// pseudo-bodies; DirectList holds individual bodies (from opened leaves,
// including the walk's own bodies) that must be summed directly.
type Walk struct {
	First, Count int32    // the walk's bodies: Tree.Index[First : First+Count]
	Bounds       vec.AABB // tight bounding box of those bodies

	NodeList   []int32 // cell indices approximated by their COM
	DirectList []int32 // body indices evaluated directly
}

// ListLen returns the total interaction-list length of the walk.
func (w *Walk) ListLen() int { return len(w.NodeList) + len(w.DirectList) }

// Interactions returns the number of interactions the walk evaluates.
func (w *Walk) Interactions() int64 { return int64(w.Count) * int64(w.ListLen()) }

// WalkSet is the full decomposition of one force calculation into walks, the
// host-side product that the paper's jw-parallel pipeline builds on the CPU
// and ships to the GPU.
type WalkSet struct {
	Tree  *Tree
	Walks []Walk
	// GroupCap is the chunk size used to form groups.
	GroupCap int

	// covered is pooled scratch for Validate: it is reused across calls so
	// repeated validation of a pooled walk set allocates nothing.
	covered []bool
}

// BuildWalks decomposes the body set into walks of groupCap consecutive
// bodies in tree order (the last walk may be smaller) and computes every
// walk's interaction list with the conservative group MAC: a cell of side s
// is accepted when s < theta * dmin, where dmin is the distance from the
// cell's centre of mass to the group's tight bounding box. This guarantees
// the per-body theta criterion holds for every body of the group, so group
// walks are never less accurate than per-body walks.
//
// It runs Builder.BuildWalksInto on a fresh Builder (lists built across
// GOMAXPROCS goroutines); no later build reuses that builder's arenas, so
// the returned set stays valid.
func (t *Tree) BuildWalks(groupCap int) (*WalkSet, error) {
	return new(Builder).BuildWalksInto(t, groupCap)
}

// buildListInto fills the interaction list of w by walking the tree against
// the group's bounding box. The walk's own bodies enter the direct list
// through their (always-opened) leaves, so no special casing is needed. A
// leaf is never accepted as a pseudo-body, so the opening test runs at
// internal cells only. The traversal stack is caller-owned; the (possibly
// grown) stack is returned so the Builder's walk construction reuses it
// without allocating per walk.
func (t *Tree) buildListInto(w *Walk, stack []int32) ([]int32, error) {
	theta2 := t.Opt.Theta * t.Opt.Theta
	stack = stack[:0]
	stack = append(stack, 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[ni]
		if nd.Leaf {
			w.DirectList = append(w.DirectList, t.Index[nd.First:nd.First+nd.Count]...)
			continue
		}
		s := 2 * nd.Half
		if s*s < theta2*w.Bounds.Dist2(nd.COM) {
			w.NodeList = append(w.NodeList, ni)
			continue
		}
		for _, ci := range nd.Children {
			if ci != NoChild {
				stack = append(stack, ci)
			}
		}
	}
	if len(w.NodeList)+len(w.DirectList) == 0 {
		return stack, fmt.Errorf("bh: walk [%d,%d) has empty interaction list", w.First, w.First+w.Count)
	}
	return stack, nil
}

// Eval evaluates every walk on the CPU, filling sys.Acc. This computes
// *exactly* the arithmetic the GPU walk kernels perform (same lists, same
// softened kernel, same float32 precision and accumulation order), so it is
// both the validation target for the w-/jw-parallel plans and an
// independent CPU force engine.
func (ws *WalkSet) Eval() Stats {
	t := ws.Tree
	eps2 := t.Opt.Eps * t.Opt.Eps
	var st Stats
	for wi := range ws.Walks {
		w := &ws.Walks[wi]
		for k := w.First; k < w.First+w.Count; k++ {
			bi := t.Index[k]
			p := t.sys.Pos[bi]
			var acc vec.V3
			for _, ni := range w.NodeList {
				nd := &t.Nodes[ni]
				x, y, z := pp.AccumulateInto(p.X, p.Y, p.Z, nd.COM.X, nd.COM.Y, nd.COM.Z, nd.Mass, eps2)
				acc.X, acc.Y, acc.Z = acc.X+x, acc.Y+y, acc.Z+z
			}
			for _, bj := range w.DirectList {
				q := t.sys.Pos[bj]
				// The self-term (bj == bi) contributes exactly zero force
				// thanks to the softened kernel, so it is summed like any
				// other entry — the same branch-free convention the GPU
				// kernels use.
				x, y, z := pp.AccumulateInto(p.X, p.Y, p.Z, q.X, q.Y, q.Z, t.sys.Mass[bj], eps2)
				acc.X, acc.Y, acc.Z = acc.X+x, acc.Y+y, acc.Z+z
			}
			t.sys.Acc[bi] = acc.Scale(t.Opt.G)
		}
		st.Interactions += w.Interactions()
	}
	return st
}

// Interactions returns the total number of interactions across all walks.
func (ws *WalkSet) Interactions() int64 {
	var n int64
	for i := range ws.Walks {
		n += ws.Walks[i].Interactions()
	}
	return n
}

// MeanBodies returns the mean number of bodies per walk.
func (ws *WalkSet) MeanBodies() float64 {
	if len(ws.Walks) == 0 {
		return 0
	}
	return float64(ws.Tree.sys.N()) / float64(len(ws.Walks))
}

// ListStats summarises interaction-list lengths: min, max, mean and standard
// deviation. The spread drives load imbalance in the w-parallel plan and is
// reported by the PTPM analysis.
func (ws *WalkSet) ListStats() (minLen, maxLen int, mean, stddev float64) {
	if len(ws.Walks) == 0 {
		return 0, 0, 0, 0
	}
	minLen = math.MaxInt
	var sum, sum2 float64
	for i := range ws.Walks {
		l := ws.Walks[i].ListLen()
		if l < minLen {
			minLen = l
		}
		if l > maxLen {
			maxLen = l
		}
		sum += float64(l)
		sum2 += float64(l) * float64(l)
	}
	n := float64(len(ws.Walks))
	mean = sum / n
	varr := sum2/n - mean*mean
	if varr < 0 {
		varr = 0
	}
	return minLen, maxLen, mean, math.Sqrt(varr)
}

// Validate checks that the walks exactly tile the body set.
func (ws *WalkSet) Validate() error {
	t := ws.Tree
	if cap(ws.covered) < t.sys.N() {
		ws.covered = make([]bool, t.sys.N())
	}
	covered := ws.covered[:t.sys.N()]
	for i := range covered {
		covered[i] = false
	}
	for i := range ws.Walks {
		w := &ws.Walks[i]
		if w.Count <= 0 {
			return fmt.Errorf("bh: walk %d has count %d", i, w.Count)
		}
		for k := w.First; k < w.First+w.Count; k++ {
			bi := t.Index[k]
			if covered[bi] {
				return fmt.Errorf("bh: body %d covered by two walks", bi)
			}
			covered[bi] = true
		}
	}
	for bi, ok := range covered {
		if !ok {
			return fmt.Errorf("bh: body %d not covered by any walk", bi)
		}
	}
	return nil
}
