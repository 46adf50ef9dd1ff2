package bh

import (
	"runtime"
	"sync"

	"repro/internal/pp"
	"repro/internal/vec"
)

// Stats reports the work performed by a force evaluation, used by the
// benchmark harness for GFLOPS accounting.
type Stats struct {
	// Interactions is the number of body-pseudo-body plus body-body
	// interactions actually evaluated.
	Interactions int64
	// NodesOpened counts MAC rejections (cells that had to be descended).
	NodesOpened int64
}

// Flops returns the floating-point operations implied by the interaction
// count at the conventional rate.
func (s Stats) Flops() int64 { return s.Interactions * pp.FlopsPerInteraction }

// accept reports whether node nd may be approximated by its centre of mass
// as seen from position p, per the theta criterion of Eq. (3): the cell of
// side s = 2*Half is accepted when s/d < theta.
func (t *Tree) accept(nd *Node, p vec.V3) bool {
	d := nd.COM.Sub(p)
	d2 := d.Norm2()
	s := 2 * nd.Half
	return s*s < t.Opt.Theta*t.Opt.Theta*d2
}

// AccelAt returns the Barnes-Hut acceleration at body bi via a per-body
// iterative tree walk — the classic CPU treecode of the paper's Section 2.2.
func (t *Tree) AccelAt(bi int32) (vec.V3, Stats) {
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
			x, y, z := pp.AccumulateInto(p.X, p.Y, p.Z, nd.COM.X, nd.COM.Y, nd.COM.Z, nd.Mass, eps2)
			acc.X, acc.Y, acc.Z = acc.X+x, acc.Y+y, acc.Z+z
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

// Accel fills sys.Acc for every body with per-body tree walks, optionally in
// parallel over workers goroutines (GOMAXPROCS when workers <= 0). It is the
// CPU Barnes-Hut baseline.
func (t *Tree) Accel(workers int) Stats {
	n := t.sys.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var st Stats
		for i := 0; i < n; i++ {
			a, s := t.AccelAt(int32(i))
			t.sys.Acc[i] = a
			st.Interactions += s.Interactions
			st.NodesOpened += s.NodesOpened
		}
		return st
	}
	var wg sync.WaitGroup
	stats := make([]Stats, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				a, s := t.AccelAt(int32(i))
				t.sys.Acc[i] = a
				stats[w].Interactions += s.Interactions
				stats[w].NodesOpened += s.NodesOpened
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var st Stats
	for _, s := range stats {
		st.Interactions += s.Interactions
		st.NodesOpened += s.NodesOpened
	}
	return st
}
