package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/gpusim"
)

// bhDescStride is the int32 stride of one walk descriptor:
// [bodyFirst, bodyCount, listBase, listLen].
const bhDescStride = 4

// bhHostData is the host-side product of the CPU half of the treecode
// pipeline (tree build + walk/interaction-list construction), flattened into
// the buffers the w- and jw-parallel kernels consume. Every plan holds one
// as a value: the builder and the flattened buffers are pooled, so steps
// 2..K of a run rewrite the same memory (grow-only, like planBase's device
// buffers) and the steady state allocates nothing on the host side.
type bhHostData struct {
	// builder owns the tree/walk arenas; tree and walks point into it and
	// are valid until the next build call.
	builder bh.Builder

	tree  *bh.Tree
	walks *bh.WalkSet

	// wallSeconds is the measured wall-clock cost of the most recent build
	// call (tree + walks + flatten), exported as RunProfile.HostBuildSeconds.
	wallSeconds float64

	numNodes int
	numWalks int

	// srcF4 holds interaction sources as x,y,z,m float4s: first the tree
	// cells (centre of mass), then the bodies in original order.
	srcF4 []float32
	// posmSorted holds the bodies in tree (Index) order, so a walk's bodies
	// are a contiguous, coalescible range.
	posmSorted []float32
	// lists is the concatenation of every walk's interaction list; entries
	// are indices into srcF4's float4s (cell ni -> ni, body bi ->
	// numNodes+bi), cell entries first, direct entries second — the same
	// order the CPU reference bh.WalkSet.Eval uses, so accumulation order
	// (and therefore float32 rounding) matches exactly.
	lists []int32
	// desc holds bhDescStride int32s per walk (see bhDescStride).
	desc []int32

	// interactions is the exact interaction count of the walk set.
	interactions int64

	// Modelled host-side seconds (paper-era CPU) for the build, split for
	// the PTPM reports.
	treeSeconds float64
	listSeconds float64
}

// build runs the CPU half of the pipeline: build the octree, derive group
// walks with at most groupCap bodies (sub-split so no walk exceeds
// maxBodies, the kernel's lane count), and flatten everything into the
// pooled buffers. The builder's Workers caps the goroutines that build the
// walks (0 = GOMAXPROCS); the tree build is serial. The measured wall-clock
// of the whole call lands in d.wallSeconds; the modelled seconds come from
// gpusim.PaperHost.
func (d *bhHostData) build(s *body.System, opt bh.Options, groupCap, maxBodies int) error {
	if groupCap > maxBodies {
		groupCap = maxBodies
	}
	if opt.LeafCap > groupCap {
		opt.LeafCap = groupCap
	}
	start := time.Now() // repocheck:allow nodeterminism -- measured host wall time, reported in JobPerf only; never feeds the cost model
	if opt.Trace != nil {
		sp := opt.Trace.Start("host data build", "host").Track("bh").Arg("n", s.N())
		defer sp.End()
	}
	n := s.N()
	host := gpusim.PaperHost()

	tree, err := d.builder.BuildInto(s, opt)
	if err != nil {
		return err
	}
	d.tree = tree
	d.treeSeconds = host.TreeBuildSeconds(n)
	walks, err := d.builder.BuildWalksInto(d.tree, groupCap)
	if err != nil {
		return err
	}
	d.walks = walks
	d.numNodes = len(d.tree.Nodes)

	// Sources: cells then bodies.
	d.srcF4 = resize(d.srcF4, 4*(d.numNodes+n))
	for i := range d.tree.Nodes {
		nd := &d.tree.Nodes[i]
		d.srcF4[4*i+0] = nd.COM.X
		d.srcF4[4*i+1] = nd.COM.Y
		d.srcF4[4*i+2] = nd.COM.Z
		d.srcF4[4*i+3] = nd.Mass
	}
	for bi := 0; bi < n; bi++ {
		base := 4 * (d.numNodes + bi)
		d.srcF4[base+0] = s.Pos[bi].X
		d.srcF4[base+1] = s.Pos[bi].Y
		d.srcF4[base+2] = s.Pos[bi].Z
		d.srcF4[base+3] = s.Mass[bi]
	}

	// Bodies in tree order.
	d.posmSorted = resize(d.posmSorted, 4*n)
	for slot, bi := range d.tree.Index {
		d.posmSorted[4*slot+0] = s.Pos[bi].X
		d.posmSorted[4*slot+1] = s.Pos[bi].Y
		d.posmSorted[4*slot+2] = s.Pos[bi].Z
		d.posmSorted[4*slot+3] = s.Mass[bi]
	}

	// Lists and descriptors; walks wider than maxBodies are split into
	// sub-walks sharing one list (possible only for depth-capped leaves of
	// pathological inputs).
	d.lists = d.lists[:0]
	d.desc = d.desc[:0]
	d.interactions = 0
	for wi := range d.walks.Walks {
		w := &d.walks.Walks[wi]
		base := int32(len(d.lists))
		d.lists = append(d.lists, w.NodeList...)
		for _, bj := range w.DirectList {
			d.lists = append(d.lists, int32(d.numNodes)+bj)
		}
		llen := int32(w.ListLen())
		for off := int32(0); off < w.Count; off += int32(maxBodies) {
			cnt := w.Count - off
			if cnt > int32(maxBodies) {
				cnt = int32(maxBodies)
			}
			d.desc = append(d.desc, w.First+off, cnt, base, llen)
			d.interactions += int64(cnt) * int64(llen)
		}
	}
	d.numWalks = len(d.desc) / bhDescStride
	if d.numWalks == 0 {
		return fmt.Errorf("core: no walks produced for %d bodies", n)
	}

	d.listSeconds = host.ListBuildSeconds(int64(len(d.lists)))
	d.wallSeconds = time.Since(start).Seconds() // repocheck:allow nodeterminism -- measured host wall time, reported in JobPerf only; never feeds the cost model
	return nil
}

// unpermuteAcc scatters accelerations from tree order back to body order.
func (d *bhHostData) unpermuteAcc(s *body.System, accSorted []float32) {
	for slot, bi := range d.tree.Index {
		s.Acc[bi].X = accSorted[4*slot+0]
		s.Acc[bi].Y = accSorted[4*slot+1]
		s.Acc[bi].Z = accSorted[4*slot+2]
	}
}

// walkCost is the LPT weight of walk i: list length x body count, the
// interactions its work-group evaluates.
func (d *bhHostData) walkCost(i int32) int64 {
	cnt := int64(d.desc[i*bhDescStride+1])
	llen := int64(d.desc[i*bhDescStride+3])
	return llen * max(cnt, 1)
}

// lpt is the longest-processing-time walk balancer — the jw-parallel load
// balancing, and MultiJW's device sharding — with its scratch pooled, so a
// steady-state call allocates nothing. The slices balance returns alias the
// pool and are valid until its next call.
type lpt struct {
	order []lptWalk
	load  []int64
	walks []int32
	desc  []int32
}

type lptWalk struct {
	id, queue int32
	cost      int64
}

// balance partitions walk ids (nil means every walk of d) into k queues:
// walks in decreasing cost (ties keep their order in ids) each go to the
// least-loaded queue, the lowest index among equals. A work-group drains a
// whole queue, so queues must carry near-equal total work. It returns the
// concatenated queue contents, each queue in assignment order, and the
// per-queue [base, len] pairs.
func (b *lpt) balance(d *bhHostData, ids []int32, k int) (queueWalks, queueDesc []int32) {
	b.order = b.order[:0]
	if ids == nil {
		for i := 0; i < d.numWalks; i++ {
			b.order = append(b.order, lptWalk{id: int32(i), cost: d.walkCost(int32(i))})
		}
	} else {
		for _, id := range ids {
			b.order = append(b.order, lptWalk{id: id, cost: d.walkCost(id)})
		}
	}
	slices.SortStableFunc(b.order, func(x, y lptWalk) int { return cmp.Compare(y.cost, x.cost) })

	b.load = resize(b.load, k)
	clear(b.load)
	b.desc = resize(b.desc, 2*k)
	clear(b.desc)
	for i := range b.order {
		q := 0
		for j := 1; j < k; j++ {
			if b.load[j] < b.load[q] {
				q = j
			}
		}
		b.order[i].queue = int32(q)
		b.load[q] += b.order[i].cost
		b.desc[2*q+1]++
	}
	// Lay the queues out back to back, then scatter each walk into its
	// queue's next slot (load is reused as the per-queue cursor).
	var base int32
	for q := 0; q < k; q++ {
		b.desc[2*q] = base
		b.load[q] = int64(base)
		base += b.desc[2*q+1]
	}
	b.walks = resize(b.walks, len(b.order))
	for _, w := range b.order {
		b.walks[b.load[w.queue]] = w.id
		b.load[w.queue]++
	}
	return b.walks, b.desc
}

// queueCount returns how many walk queues (work-groups) to launch for walks
// walks on a device: target when positive, otherwise enough to fill every
// compute unit, clamped to [1, walks].
func queueCount(cfg gpusim.DeviceConfig, target, walks int) int {
	if target <= 0 {
		target = cfg.ComputeUnits * cfg.MaxGroupsPerCU
	}
	return max(1, min(target, walks))
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
