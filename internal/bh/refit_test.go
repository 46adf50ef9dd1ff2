package bh

import (
	"testing"

	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/pp"
	"repro/internal/vec"
)

func TestRefitMatchesRebuildForUnmovedBodies(t *testing.T) {
	s := ic.Plummer(1000, 1)
	tree, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot summaries, refit without moving anything, compare.
	before := make([]Node, len(tree.Nodes))
	copy(before, tree.Nodes)
	tree.Refit()
	for i := range tree.Nodes {
		if tree.Nodes[i].COM != before[i].COM || tree.Nodes[i].Mass != before[i].Mass {
			t.Fatalf("node %d summary changed without motion", i)
		}
	}
	if d := tree.Drift(); d != 0 {
		t.Errorf("drift %g for unmoved bodies", d)
	}
}

func TestRefitTracksMovedBodies(t *testing.T) {
	s := ic.Plummer(1000, 2)
	tree, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Translate everything: COM must follow exactly; topology unchanged.
	shift := vec.V3{X: 0.01, Y: -0.02, Z: 0.03}
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(shift)
	}
	oldCOM := tree.Nodes[0].COM
	tree.Refit()
	moved := tree.Nodes[0].COM.Sub(oldCOM)
	if moved.Sub(shift).Norm() > 1e-5 {
		t.Errorf("root COM moved %v, want %v", moved, shift)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("topology corrupted by refit: %v", err)
	}
}

func TestRefitForceErrorSmallForSmallMotion(t *testing.T) {
	s := ic.Plummer(2000, 3)
	tree, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Nudge bodies by a tiny fraction of the system scale.
	r := func(i int) float32 { return float32((i*2654435761)%1000)/1e3 - 0.5 }
	for i := range s.Pos {
		s.Pos[i].X += 1e-3 * r(i)
		s.Pos[i].Y += 1e-3 * r(i+1)
		s.Pos[i].Z += 1e-3 * r(i+2)
	}
	tree.Refit()
	tree.Accel(0)
	refitAcc := append([]vec.V3(nil), s.Acc...)

	fresh, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fresh.Accel(0)
	if e := pp.RMSRelError(s.Acc, refitAcc, 1e-3); e > 5e-3 {
		t.Errorf("refit force RMS deviation %g vs fresh build", e)
	}
}

func TestDriftDetectsEscapees(t *testing.T) {
	s := ic.UniformCube(512, 2, 4)
	tree, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Drift(); d != 0 {
		t.Fatalf("initial drift %g", d)
	}
	// Throw one body far outside its cell.
	s.Pos[0] = vec.V3{X: 100, Y: 100, Z: 100}
	tree.Refit()
	if d := tree.Drift(); d < 1 {
		t.Errorf("drift %g did not flag the escapee", d)
	}
}

func TestRefitEngineConservesEnergyAndAmortises(t *testing.T) {
	s := ic.Plummer(512, 5)
	eng := &RefitEngine{Opt: DefaultOptions(), RebuildEvery: 10}
	lf := &integrate.Leapfrog{}
	force := func(sys *body.System) int64 {
		n, err := eng.Accel(sys)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	e0 := s.KineticEnergy() + s.PotentialEnergy(1, 0.05)
	const steps = 30
	for i := 0; i < steps; i++ {
		lf.Step(s, 0.01, force)
	}
	e1 := s.KineticEnergy() + s.PotentialEnergy(1, 0.05)
	drift := (e1 - e0) / e0
	if drift < 0 {
		drift = -drift
	}
	if drift > 5e-3 {
		t.Errorf("energy drift %g with refit engine", drift)
	}
	// 31 force evaluations (priming + 30 steps), rebuild every 10 => 4
	// rebuilds, the rest refits.
	if eng.Rebuilds >= 31 || eng.Rebuilds < 2 {
		t.Errorf("rebuilds = %d, want amortised (~4 of 31 evaluations)", eng.Rebuilds)
	}
}
