package bh

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/body"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Builder owns every arena the host-side per-step pipeline needs — node
// storage, the body permutation, the partition scratch, per-worker
// walk-traversal stacks and the walk/group buffers — so a steady-state step
// (the same system stepped repeatedly) allocates nothing: BuildInto and
// BuildWalksInto rewrite the pooled storage in place, growing it only when
// the input outgrows everything seen before.
//
// The tree is built serially by the recursive counting-sort partition
// (Tree.build) followed by the bottom-up summary pass (Tree.summarize), so
// nodes land in DFS pre-order and each leaf's bodies keep ascending body
// order. TestBuilderMatchesFrozen pins the result bit for bit.
//
// Ownership: the Tree and WalkSet returned by BuildInto/BuildWalksInto point
// into the builder's arenas and are valid until the next BuildInto /
// BuildWalksInto / Reset on the same builder. A Builder must not be shared
// between concurrent builds; distinct Builders are independent.
type Builder struct {
	// Workers caps the goroutines used for walk construction; the tree
	// build is always serial. 0 means GOMAXPROCS; 1 runs strictly serial —
	// no goroutines are spawned, which is the allocation-free path the CI
	// allocs/op gate pins.
	Workers int

	tree    Tree
	walks   WalkSet
	scratch []int32   // counting-sort scratch for Tree.build
	stacks  [][]int32 // one walk-traversal stack per worker
	errs    []error
}

func (b *Builder) workers() int {
	w := b.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Reset releases every pooled arena so the memory can be reclaimed. The
// builder stays usable: the next BuildInto simply starts cold.
func (b *Builder) Reset() {
	*b = Builder{Workers: b.Workers}
}

// BuildInto constructs the octree for the bodies of s into the builder's
// pooled tree. The system is not modified; Tree.Index captures the spatial
// ordering. The returned tree is valid until the next BuildInto or Reset.
func (b *Builder) BuildInto(s *body.System, opt Options) (*Tree, error) {
	opt.fill()
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("bh: cannot build a tree over zero bodies")
	}
	// The span (and especially its boxed Args) is skipped entirely when
	// tracing is off: this path must stay allocation-free.
	var sp *obs.Span
	if opt.Trace != nil {
		sp = opt.Trace.Start("tree build", "host").Track("bh").Arg("n", n)
	}
	defer sp.End()

	t := &b.tree
	t.Opt = opt
	t.sys = s
	t.quads = nil
	// A cold node arena starts at the size a bucket tree over n bodies
	// needs, so a one-shot build does not regrow it by doubling.
	if c := 2*n/opt.LeafCap + 16; cap(t.Nodes) < c {
		t.Nodes = make([]Node, 0, c)
	}
	t.Nodes = t.Nodes[:0]
	if cap(t.Index) < n {
		t.Index = make([]int32, n)
	}
	t.Index = t.Index[:n]
	for i := range t.Index {
		t.Index[i] = int32(i)
	}
	if cap(b.scratch) < n {
		b.scratch = make([]int32, n)
	}
	center, half := rootCell(s)
	t.build(center, half, 0, int32(n), 0, b.scratch[:n])
	t.summarize(0)

	if sp != nil {
		sp.Arg("nodes", len(t.Nodes))
	}
	return t, nil
}

// BuildWalksInto decomposes t's bodies into walks exactly as
// Tree.BuildWalks does, but into the builder's pooled WalkSet: walk
// headers, per-walk interaction lists and traversal stacks are all reused,
// so the steady state allocates nothing. The returned set is valid until
// the next BuildWalksInto or Reset.
func (b *Builder) BuildWalksInto(t *Tree, groupCap int) (*WalkSet, error) {
	if groupCap <= 0 {
		groupCap = 64
	}
	var sp *obs.Span
	if t.Opt.Trace != nil {
		sp = t.Opt.Trace.Start("walk/list build", "host").Track("bh").Arg("groupCap", groupCap)
	}
	defer sp.End()

	n := int32(t.sys.N())
	ws := &b.walks
	ws.Tree = t
	ws.GroupCap = groupCap
	numWalks := int((n + int32(groupCap) - 1) / int32(groupCap))
	if cap(ws.Walks) < numWalks {
		grown := make([]Walk, numWalks)
		// Keep the old entries: their NodeList/DirectList capacities are the
		// pooled storage.
		copy(grown, ws.Walks[:cap(ws.Walks)])
		ws.Walks = grown
	}
	ws.Walks = ws.Walks[:numWalks]

	workers := b.workers()
	if workers > numWalks {
		workers = numWalks
	}
	for len(b.stacks) < workers {
		b.stacks = append(b.stacks, nil)
	}
	if workers <= 1 {
		if err := b.buildWalkRange(0, 0, numWalks, groupCap); err != nil {
			return nil, err
		}
	} else {
		if cap(b.errs) < workers {
			b.errs = make([]error, workers)
		}
		errs := b.errs[:workers]
		var wg sync.WaitGroup
		chunk := (numWalks + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > numWalks {
				hi = numWalks
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			// groupCap is an explicit parameter: capturing the (mutated)
			// variable by reference would force it to the heap on every
			// call, including the serial allocation-free path.
			go func(w, lo, hi, gcap int) {
				defer wg.Done()
				errs[w] = b.buildWalkRange(w, lo, hi, gcap)
			}(w, lo, hi, groupCap)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				return nil, errs[w]
			}
			errs[w] = nil
		}
	}

	if sp != nil {
		sp.Arg("walks", len(ws.Walks)).Arg("interactions", ws.Interactions())
	}
	return ws, nil
}

// buildWalkRange fills walks [lo, hi) — header, bounds and interaction list
// — reusing worker w's traversal stack and each walk's list capacity.
func (b *Builder) buildWalkRange(w, lo, hi, groupCap int) error {
	t := b.walks.Tree
	n := int32(t.sys.N())
	for i := lo; i < hi; i++ {
		wk := &b.walks.Walks[i]
		first := int32(i * groupCap)
		count := n - first
		if count > int32(groupCap) {
			count = int32(groupCap)
		}
		wk.First, wk.Count = first, count
		bounds := vec.Empty()
		for _, bi := range t.Index[first : first+count] {
			bounds = bounds.Extend(t.sys.Pos[bi])
		}
		wk.Bounds = bounds
		wk.NodeList = wk.NodeList[:0]
		wk.DirectList = wk.DirectList[:0]
		stack, err := t.buildListInto(wk, b.stacks[w])
		b.stacks[w] = stack
		if err != nil {
			return err
		}
	}
	return nil
}
