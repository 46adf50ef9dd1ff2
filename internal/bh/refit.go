package bh

import (
	"fmt"

	"repro/internal/body"
	"repro/internal/vec"
)

// Refit updates the tree's mass summaries (COM, mass, tight bounds — and
// quadrupoles, if computed) for the *current* body positions without
// changing the topology: the body-to-leaf assignment from the original
// Build is kept. Production treecodes refit for several steps between full
// rebuilds because bodies move a small fraction of a cell per step; the
// force error this introduces is bounded by how far bodies have strayed
// from their build-time cells.
//
// Refit is O(N + nodes) against Build's O(N log N) with its per-level
// partitioning, and it preserves Tree.Index, so walk sets built from the
// same tree remain structurally valid (their interaction lists, however,
// reflect the *new* geometry only through the updated summaries — callers
// decide the rebuild cadence; see sim-level tests for the error growth).
func (t *Tree) Refit() {
	sp := t.Opt.Trace.Start("tree refit", "host").Track("bh").Arg("nodes", len(t.Nodes))
	defer sp.End()
	// BuildInto ends with this same summary pass, so refitting unmoved
	// bodies reproduces the built summaries bit for bit.
	t.summarize(0)
	if t.quads != nil {
		t.computeQuad(0)
	}
}

// Drift returns the maximum distance any body has moved outside its
// build-time cell, as a fraction of that cell's half-extent — a cheap
// trigger for deciding when a refitted tree must be rebuilt (0 means every
// body is still inside its leaf's cube).
func (t *Tree) Drift() float64 {
	var worst float64
	var rec func(ni int32)
	rec = func(ni int32) {
		nd := &t.Nodes[ni]
		if nd.Leaf {
			for _, bi := range t.Index[nd.First : nd.First+nd.Count] {
				p := t.sys.Pos[bi]
				d := maxAbs3(p.Sub(nd.Center))
				if over := float64(d-nd.Half) / float64(nd.Half); over > worst {
					worst = over
				}
			}
			return
		}
		for _, ci := range nd.Children {
			if ci != NoChild {
				rec(ci)
			}
		}
	}
	rec(0)
	if worst < 0 {
		return 0
	}
	return worst
}

func maxAbs3(v vec.V3) float32 {
	a := v.X
	if a < 0 {
		a = -a
	}
	b := v.Y
	if b < 0 {
		b = -b
	}
	if b > a {
		a = b
	}
	c := v.Z
	if c < 0 {
		c = -c
	}
	if c > a {
		a = c
	}
	return a
}

// RefitEngine is a CPU Barnes-Hut force engine that rebuilds the octree
// only every RebuildEvery calls (or when Drift exceeds MaxDrift), refitting
// the summaries in between — the standard amortisation of the host-side
// cost that dominates the jw-parallel pipeline's Table 2 totals.
type RefitEngine struct {
	Opt Options
	// RebuildEvery forces a full rebuild every k calls (<=0: 8).
	RebuildEvery int
	// MaxDrift forces a rebuild when bodies stray this fraction outside
	// their cells (<=0: 0.5).
	MaxDrift float64
	// Workers as in Tree.Accel.
	Workers int

	tree  *Tree
	calls int
	// Rebuilds counts full builds, for tests and reporting.
	Rebuilds int
}

// Name implements the sim.Engine interface.
func (e *RefitEngine) Name() string { return "cpu-bh-refit" }

// Accel implements the sim.Engine interface.
func (e *RefitEngine) Accel(s *body.System) (int64, error) {
	rebuildEvery := e.RebuildEvery
	if rebuildEvery <= 0 {
		rebuildEvery = 8
	}
	maxDrift := e.MaxDrift
	if maxDrift <= 0 {
		maxDrift = 0.5
	}
	rebuild := e.tree == nil || e.tree.sys != s || e.calls%rebuildEvery == 0
	if !rebuild {
		e.tree.Refit()
		if e.tree.Drift() > maxDrift {
			rebuild = true
		}
	}
	if rebuild {
		tree, err := Build(s, e.Opt)
		if err != nil {
			return 0, fmt.Errorf("bh: refit engine rebuild: %w", err)
		}
		e.tree = tree
		e.Rebuilds++
	}
	e.calls++
	st := e.tree.Accel(e.Workers)
	return st.Interactions, nil
}
