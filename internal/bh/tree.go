// Package bh implements the Barnes-Hut treecode of Section 2.2 of the paper:
// a pooled bucket octree, the centre-of-mass pass, the theta opening
// criterion (multipole acceptance criterion, MAC), per-body tree walks for
// the CPU baseline, and — the input to the paper's GPU plans — *group walks*:
// buckets of nearby bodies that share a single interaction list, exactly the
// "walk" unit the w-parallel and jw-parallel kernels consume.
package bh

import (
	"fmt"

	"repro/internal/body"
	"repro/internal/obs"
	"repro/internal/vec"
)

// NoChild marks an absent child slot.
const NoChild int32 = -1

// Node is one octree cell. Bodies covered by the node occupy the contiguous
// range Index[First : First+Count] of the owning Tree, so a leaf's bodies
// can be streamed with unit stride.
type Node struct {
	Center vec.V3 // geometric centre of the cubic cell
	Half   float32

	COM  vec.V3  // centre of mass of the bodies in the subtree
	Mass float32 // total mass of the subtree

	Bounds vec.AABB // tight bounding box of the subtree's bodies

	First, Count int32    // range into Tree.Index
	Children     [8]int32 // NoChild where absent; all NoChild => leaf
	Leaf         bool
}

// Options configures the tree build and walks.
type Options struct {
	// Theta is the opening angle of the MAC: a cell of side s at distance d
	// is accepted as a single pseudo-body when s/d < Theta. The paper's
	// experiments use 0.6.
	Theta float32
	// LeafCap is the bucket size: subdivision stops once a cell holds at
	// most LeafCap bodies. Buckets are also the unit from which group walks
	// are formed. Default 16.
	LeafCap int
	// MaxDepth bounds recursion for degenerate (coincident-body) inputs.
	// Default 40.
	MaxDepth int
	// Eps is the softening length used by force evaluation.
	Eps float32
	// G is the gravitational constant used by force evaluation.
	G float32
	// Trace, when non-nil, receives wall-clock spans for the host-side
	// pipeline stages (tree build, refit, group-walk construction) — the
	// "host work" half of the paper's time breakdown.
	Trace *obs.Tracer
}

// DefaultOptions returns the configuration of the paper's experiments.
func DefaultOptions() Options {
	return Options{Theta: 0.6, LeafCap: 16, MaxDepth: 40, Eps: 0.05, G: 1}
}

func (o *Options) fill() {
	if o.Theta <= 0 {
		o.Theta = 0.6
	}
	if o.LeafCap <= 0 {
		o.LeafCap = 16
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 40
	}
	if o.G == 0 {
		o.G = 1
	}
}

// Tree is a pooled octree over a body system. Node 0 is the root.
type Tree struct {
	Nodes []Node
	Index []int32 // permutation of body indices; each node owns a contiguous range
	Opt   Options

	sys   *body.System
	quads []Quad // filled by ComputeQuadrupoles; nil in the monopole pipeline
}

// Build constructs the octree for the bodies of s. The system is not
// modified; Tree.Index captures the spatial ordering.
//
// It runs Builder.BuildInto on a fresh Builder; no later build reuses that
// builder's arenas, so the returned tree stays valid.
func Build(s *body.System, opt Options) (*Tree, error) {
	return new(Builder).BuildInto(s, opt)
}

// rootCell returns the root cell (centre, half extent) for a build over s.
// Every octant test of the build compares against a centre derived from it,
// so its float32 arithmetic fixes the tree.
func rootCell(s *body.System) (vec.V3, float32) {
	b := s.Bounds()
	center := b.Center()
	half := b.MaxExtent() / 2
	if half <= 0 {
		half = 1e-6 // all bodies coincident; give the root a tiny extent
	}
	// Grow slightly so boundary bodies classify strictly inside.
	half *= 1.0001
	return center, half
}

// build recursively constructs the node covering Index[first:first+count]
// and returns its index in t.Nodes. scratch is a caller-owned slice of at
// least n int32s: the counting-sort partition of a node writes through
// scratch[first:first+count], which is free by the time the children (whose
// ranges are disjoint sub-ranges) partition theirs, so one allocation serves
// the whole build.
func (t *Tree) build(center vec.V3, half float32, first, count int32, depth int, scratch []int32) int32 {
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{
		Center: center,
		Half:   half,
		First:  first,
		Count:  count,
		Leaf:   true,
	})
	for i := range t.Nodes[idx].Children {
		t.Nodes[idx].Children[i] = NoChild
	}
	if int(count) <= t.Opt.LeafCap || depth >= t.Opt.MaxDepth {
		return idx
	}

	// Partition the body range into the eight octants with a counting sort.
	var octCount [8]int32
	slice := t.Index[first : first+count]
	for _, bi := range slice {
		octCount[t.octant(center, bi)]++
	}
	var start [8]int32
	var sum int32
	for o := 0; o < 8; o++ {
		start[o] = sum
		sum += octCount[o]
	}
	tmp := scratch[first : first+count]
	cursor := start
	for _, bi := range slice {
		o := t.octant(center, bi)
		tmp[cursor[o]] = bi
		cursor[o]++
	}
	copy(slice, tmp)

	t.Nodes[idx].Leaf = false
	qh := half / 2
	for o := 0; o < 8; o++ {
		if octCount[o] == 0 {
			continue
		}
		cc := vec.V3{
			X: center.X + qh*octSign(o, 0),
			Y: center.Y + qh*octSign(o, 1),
			Z: center.Z + qh*octSign(o, 2),
		}
		child := t.build(cc, qh, first+start[o], octCount[o], depth+1, scratch)
		t.Nodes[idx].Children[o] = child
	}
	return idx
}

func (t *Tree) octant(center vec.V3, bi int32) int {
	p := t.sys.Pos[bi]
	o := 0
	if p.X >= center.X {
		o |= 1
	}
	if p.Y >= center.Y {
		o |= 2
	}
	if p.Z >= center.Z {
		o |= 4
	}
	return o
}

func octSign(o, axis int) float32 {
	if o&(1<<axis) != 0 {
		return 1
	}
	return -1
}

// summarize fills Mass, COM and Bounds bottom-up for the subtree rooted at
// node ni. A leaf accumulates its bodies in Index order; an internal node
// combines its already-summarized children in octant order. Both sums run
// in float64 and round once to float32, so the summaries depend only on the
// topology and the Index order.
func (t *Tree) summarize(ni int32) {
	var mx, my, mz, m float64
	bounds := vec.Empty()
	n := &t.Nodes[ni]
	if n.Leaf {
		for _, bi := range t.Index[n.First : n.First+n.Count] {
			p := t.sys.Pos[bi]
			w := float64(t.sys.Mass[bi])
			mx += w * float64(p.X)
			my += w * float64(p.Y)
			mz += w * float64(p.Z)
			m += w
			bounds = bounds.Extend(p)
		}
	} else {
		for _, ci := range n.Children {
			if ci == NoChild {
				continue
			}
			t.summarize(ci)
			c := &t.Nodes[ci]
			w := float64(c.Mass)
			mx += w * float64(c.COM.X)
			my += w * float64(c.COM.Y)
			mz += w * float64(c.COM.Z)
			m += w
			bounds = bounds.Union(c.Bounds)
		}
	}
	n.Mass = float32(m)
	if m > 0 {
		n.COM = vec.V3{X: float32(mx / m), Y: float32(my / m), Z: float32(mz / m)}
	}
	n.Bounds = bounds
}

// Validate checks the structural invariants of the tree: contiguous,
// disjoint body ranges that exactly tile each parent's range; every body in
// exactly one leaf; subtree masses summing to the root mass; bodies inside
// their cells; COM within subtree bounds. Property tests drive it.
func (t *Tree) Validate() error {
	n := t.sys.N()
	seen := make([]bool, n)
	var rec func(ni int32) error
	rec = func(ni int32) error {
		nd := &t.Nodes[ni]
		if nd.Count <= 0 {
			return fmt.Errorf("bh: node %d has count %d", ni, nd.Count)
		}
		if nd.Leaf {
			for _, bi := range t.Index[nd.First : nd.First+nd.Count] {
				if seen[bi] {
					return fmt.Errorf("bh: body %d assigned to two leaves", bi)
				}
				seen[bi] = true
			}
			return nil
		}
		cursor := nd.First
		for _, ci := range nd.Children {
			if ci == NoChild {
				continue
			}
			c := &t.Nodes[ci]
			if c.First != cursor {
				return fmt.Errorf("bh: node %d child %d starts at %d, want %d", ni, ci, c.First, cursor)
			}
			cursor += c.Count
			if c.Half > nd.Half/2*1.001 {
				return fmt.Errorf("bh: node %d child %d half %g exceeds parent's %g/2", ni, ci, c.Half, nd.Half)
			}
			if err := rec(ci); err != nil {
				return err
			}
		}
		if cursor != nd.First+nd.Count {
			return fmt.Errorf("bh: node %d children cover %d bodies, want %d", ni, cursor-nd.First, nd.Count)
		}
		return nil
	}
	if err := rec(0); err != nil {
		return err
	}
	for bi, ok := range seen {
		if !ok {
			return fmt.Errorf("bh: body %d not assigned to any leaf", bi)
		}
	}
	total := t.sys.TotalMass()
	if diff := total - float64(t.Nodes[0].Mass); diff > 1e-3*total || diff < -1e-3*total {
		return fmt.Errorf("bh: root mass %g differs from system mass %g", t.Nodes[0].Mass, total)
	}
	return nil
}
