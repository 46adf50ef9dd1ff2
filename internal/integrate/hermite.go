package integrate

import (
	"repro/internal/body"
	"repro/internal/vec"
)

// BlockForceFunc is the extended force path the Hermite integrator needs:
// it computes accelerations (into s.Acc) and jerks (into jerk, length s.N())
// for exactly the bodies listed in active, each summed over all N sources at
// their current (predicted) positions and velocities, and returns the number
// of interactions evaluated. The simulation driver wires the richest
// implementation the engine offers — the simulated-GPU jerk kernels with
// their per-block plan selector, or the CPU reference as the fallback.
type BlockForceFunc func(s *body.System, active []int, jerk []vec.V3) int64

// BlockIntegrator is implemented by integrators that advance bodies on
// individual block timesteps and therefore need the acceleration+jerk force
// path above in place of the plain ForceFunc. sim.RunContext probes for it
// and calls SetBlockForce before the first step.
type BlockIntegrator interface {
	Integrator
	// SetBlockForce installs the active-subset acceleration+jerk evaluator.
	SetBlockForce(f BlockForceFunc)
}

// DefaultEta is the default Aarseth accuracy parameter of the Hermite
// block-timestep criterion dt_i = eta |a_i| / |j_i|.
const DefaultEta = 0.02

// maxBlockLevels caps the power-of-two timestep hierarchy below the outer
// step (2^12 = 4096 distinct block levels is far beyond any sane DTMin).
const maxBlockLevels = 12

// Hermite is the 4th-order Hermite predictor-corrector with individual
// power-of-two block timesteps (Makino 1991; Belleman & Portegies Zwart's GPU
// formulation). One Step call advances the whole system by the outer step dt,
// internally subdivided into block substeps: bodies are binned into
// power-of-two dt levels by the Aarseth criterion, and at each substep only
// the active block — the bodies whose level boundary falls on that substep —
// recomputes forces (acceleration and jerk) against all N predicted sources.
// Every body lands exactly on the outer boundary, so the caller's step and
// snapshot cadence is unchanged from the single-rate integrators.
//
// The scheduler works in integer ticks (the outer step is 2^L ticks, with L
// levels derived from DTMin), so block alignment is exact and two runs with
// the same inputs take bit-identical substep sequences.
//
// A Hermite with no block force wired (SetBlockForce never called) degrades
// to kick-drift-kick leapfrog over the plain ForceFunc — well-defined for
// library callers, but the real scheme needs the jerk path.
type Hermite struct {
	// Eta is the Aarseth accuracy parameter (DefaultEta when <= 0).
	Eta float32
	// DTMin floors the block timestep: the hierarchy has L levels with
	// dt/2^L <= DTMin < dt/2^(L-1). <= 0 selects L = 6 levels (dt/64).
	DTMin float32
	// DTMax caps the top block level below the outer step; <= 0 means the
	// outer step itself is the top level.
	DTMax float32

	blockForce BlockForceFunc
	fallback   *Leapfrog

	// Scheduler state, (re)initialised when the body count changes.
	n        int
	levels   uint
	topTicks uint32
	pos0     []vec.V3 // state at each body's own time t[i]
	vel0     []vec.V3
	acc      []vec.V3
	jerk     []vec.V3
	newJerk  []vec.V3
	t        []uint32 // body time in ticks within the current outer step
	dtb      []uint32 // body block step in ticks (power of two)
	active   []int

	substeps     int64
	activeTotals int64 // sum of len(active) over substeps
	slotTotals   int64 // sum of N over substeps
}

// Name implements Integrator.
func (*Hermite) Name() string { return "hermite" }

// SetBlockForce implements BlockIntegrator.
func (h *Hermite) SetBlockForce(f BlockForceFunc) { h.blockForce = f }

// Substeps returns the number of block substeps taken since construction.
func (h *Hermite) Substeps() int64 { return h.substeps }

// MeanActiveFraction returns the mean fraction of bodies active per block
// substep — the quantity that makes the i-parallel/j-parallel plan crossover
// dynamic. It is 1 before any substep has run.
func (h *Hermite) MeanActiveFraction() float64 {
	if h.slotTotals == 0 {
		return 1
	}
	return float64(h.activeTotals) / float64(h.slotTotals)
}

// eta returns the effective accuracy parameter.
func (h *Hermite) eta() float32 {
	if h.Eta > 0 {
		return h.Eta
	}
	return DefaultEta
}

// blockTicks converts a desired physical timestep to a power-of-two tick
// count in [1, topTicks].
func (h *Hermite) blockTicks(want, tickDT float32) uint32 {
	nt := uint32(1)
	for nt < h.topTicks && float32(nt*2)*tickDT <= want {
		nt <<= 1
	}
	return nt
}

// desired evaluates the Aarseth criterion for one body.
func (h *Hermite) desired(a, j vec.V3, tickDT float32) float32 {
	jn := j.Norm()
	if jn == 0 {
		return float32(h.topTicks) * tickDT
	}
	return h.eta() * a.Norm() / jn
}

// init (re)builds the scheduler state: allocates the arrays, primes
// acceleration and jerk for every body, and assigns initial block levels.
func (h *Hermite) init(s *body.System, dt float32) int64 {
	n := s.N()
	h.n = n

	var levels uint
	if h.DTMin <= 0 {
		levels = 6
	} else {
		for levels < maxBlockLevels && dt/float32(uint32(1)<<levels) > h.DTMin {
			levels++
		}
	}
	h.levels = levels
	top := uint32(1) << levels
	tickDT := dt / float32(top)
	h.topTicks = top
	if h.DTMax > 0 {
		for h.topTicks > 1 && float32(h.topTicks)*tickDT > h.DTMax {
			h.topTicks >>= 1
		}
	}

	grow := func(v []vec.V3) []vec.V3 {
		if cap(v) < n {
			return make([]vec.V3, n)
		}
		return v[:n]
	}
	h.pos0 = grow(h.pos0)
	h.vel0 = grow(h.vel0)
	h.acc = grow(h.acc)
	h.jerk = grow(h.jerk)
	h.newJerk = grow(h.newJerk)
	if cap(h.t) < n {
		h.t = make([]uint32, n)
		h.dtb = make([]uint32, n)
	}
	h.t = h.t[:n]
	h.dtb = h.dtb[:n]
	if cap(h.active) < n {
		h.active = make([]int, 0, n)
	}

	all := h.active[:0]
	for i := 0; i < n; i++ {
		all = append(all, i)
	}
	inter := h.blockForce(s, all, h.jerk)
	copy(h.pos0, s.Pos)
	copy(h.vel0, s.Vel)
	copy(h.acc, s.Acc)
	for i := 0; i < n; i++ {
		h.t[i] = 0
		h.dtb[i] = h.blockTicks(h.desired(h.acc[i], h.jerk[i], tickDT), tickDT)
	}
	return inter
}

// Step implements Integrator: it advances s by the outer step dt through
// block substeps. The plain force argument is used only by the degraded
// no-block-force fallback.
func (h *Hermite) Step(s *body.System, dt float32, force ForceFunc) int64 {
	if h.blockForce == nil {
		if h.fallback == nil {
			h.fallback = &Leapfrog{}
		}
		return h.fallback.Step(s, dt, force)
	}
	n := s.N()
	if n == 0 || dt <= 0 {
		return 0
	}
	var inter int64
	if h.n != n {
		inter += h.init(s, dt)
	}
	top := uint32(1) << h.levels
	tickDT := dt / float32(top)

	var tsys uint32
	for tsys < top {
		// Next block boundary and its active set, in index order.
		tNext := top
		for i := 0; i < n; i++ {
			if nx := h.t[i] + h.dtb[i]; nx < tNext {
				tNext = nx
			}
		}
		h.active = h.active[:0]
		for i := 0; i < n; i++ {
			if h.t[i]+h.dtb[i] == tNext {
				h.active = append(h.active, i)
			}
		}

		// Predict every body to tNext from its own last-corrected state; the
		// force evaluation sees all sources at the substep time.
		for i := 0; i < n; i++ {
			d := float32(tNext-h.t[i]) * tickDT
			a, j := h.acc[i], h.jerk[i]
			d2 := d * d / 2
			d3 := d2 * d / 3
			s.Pos[i] = h.pos0[i].Add(h.vel0[i].Scale(d)).Add(a.Scale(d2)).Add(j.Scale(d3))
			s.Vel[i] = h.vel0[i].Add(a.Scale(d)).Add(j.Scale(d2))
		}

		inter += h.blockForce(s, h.active, h.newJerk)

		// Correct the active block (standard 4th-order Hermite corrector) and
		// reassign its levels under the block rules: shrink freely, grow at
		// most one level and only at a commensurate boundary, never overshoot
		// the outer boundary.
		for _, i := range h.active {
			hs := float32(h.dtb[i]) * tickDT
			a0, j0 := h.acc[i], h.jerk[i]
			a1, j1 := s.Acc[i], h.newJerk[i]
			h2 := hs / 2
			h12 := hs * hs / 12
			v1 := h.vel0[i].Add(a0.Add(a1).Scale(h2)).Add(j0.Sub(j1).Scale(h12))
			x1 := h.pos0[i].Add(h.vel0[i].Add(v1).Scale(h2)).Add(a0.Sub(a1).Scale(h12))
			h.pos0[i], h.vel0[i] = x1, v1
			s.Pos[i], s.Vel[i] = x1, v1
			h.acc[i], h.jerk[i] = a1, j1
			h.t[i] = tNext

			nt := h.blockTicks(h.desired(a1, j1, tickDT), tickDT)
			old := h.dtb[i]
			if nt > old {
				if tNext%(old*2) == 0 && old*2 <= h.topTicks {
					nt = old * 2
				} else {
					nt = old
				}
			}
			if tNext < top {
				for nt > 1 && tNext+nt > top {
					nt >>= 1
				}
			}
			h.dtb[i] = nt
		}
		h.substeps++
		h.activeTotals += int64(len(h.active))
		h.slotTotals += int64(n)
		tsys = tNext
	}

	// The outer boundary is a full synchronisation point: every body's clock
	// restarts for the next outer step, its block level carrying over.
	for i := range h.t {
		h.t[i] = 0
	}
	return inter
}
