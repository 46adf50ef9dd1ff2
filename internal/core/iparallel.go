package core

import (
	"fmt"
	"time"

	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pp"
)

// IParallel is Nyland et al.'s GPU Gems 3 execution plan for the PP method:
// one work-item per body i; the j-loop is tiled, with each tile of p source
// bodies staged cooperatively through local memory and then consumed by all
// p lanes. In PTPM terms the space axis carries i and the time axis carries
// j, so device occupancy is N/p work-groups — plentiful at large N, a
// handful of groups (idle compute units) at small N, which is the plan's
// characteristic failure mode in Figure 5.
type IParallel struct {
	Params pp.Params
	// GroupSize is the work-group size p (default 256).
	GroupSize int

	planBase

	nPad    int
	bufPosM *gpusim.Buffer
	bufAcc  *gpusim.Buffer
	hostIn  []float32
	hostOut []float32
}

// Name implements Plan.
func (p *IParallel) Name() string { return "i-parallel" }

// Kind implements Plan.
func (p *IParallel) Kind() Kind { return KindPP }

// ppParams exposes the physics parameters for the engine's jerk unit.
func (p *IParallel) ppParams() pp.Params { return p.Params }

// SetObs implements obs.Observable.
func (p *IParallel) SetObs(o *obs.Obs) { p.setObs(o) }

func (p *IParallel) ensureBuffers(n int) {
	nPad := roundUp(n, p.GroupSize)
	p.nPad = nPad
	p.ensure("iparallel.posm", &p.bufPosM, 4*nPad, true)
	p.ensure("iparallel.acc", &p.bufAcc, 4*nPad, true)
	p.hostOut = resize(p.hostOut, 4*nPad)
}

// kernel returns the i-parallel force kernel bound to the current buffers:
// lane l of work-group gid owns body gid*LocalSize+l and runs the i
// mapping's tile loop over all nPad sources.
func (p *IParallel) kernel() gpusim.KernelFunc {
	nPad := p.nPad
	g := p.Params.G
	eps2 := p.Params.Eps * p.Params.Eps
	posm := p.bufPosM
	out := p.bufAcc

	return func(grp *gpusim.Group) {
		ls := grp.LocalSize()
		base := grp.ID() * ls
		lead := grp.Item(0)
		src := lead.RawGlobalF32(posm)
		dst := lead.RawGlobalF32(out)
		px, py, pz := grp.LaneF32(0), grp.LaneF32(1), grp.LaneF32(2)
		ax, ay, az := grp.LaneF32(3), grp.LaneF32(4), grp.LaneF32(5)

		// Load own position (4 coalesced floats).
		for l := 0; l < ls; l++ {
			i := base + l
			grp.Item(l).ChargeGlobal(16, 0)
			px[l], py[l], pz[l] = src[4*i], src[4*i+1], src[4*i+2]
		}

		iTileLoop(grp, nPad/ls, 4, pp.FlopsPerInteraction,
			func(j int, slot []float32) { *(*[4]float32)(slot) = *(*[4]float32)(src[4*j:]) },
			func(tile []float32) { pp.AccumulateTileLanes(px, py, pz, ax, ay, az, tile, eps2) })

		// Store the result (padding lanes write padding slots).
		for l := 0; l < ls; l++ {
			i := base + l
			grp.Item(l).ChargeGlobal(16, 0)
			dst[4*i+0] = ax[l] * g
			dst[4*i+1] = ay[l] * g
			dst[4*i+2] = az[l] * g
			dst[4*i+3] = 0
		}
	}
}

// iTileLoop is the time axis of the i mapping, shared by the i-parallel
// force and jerk kernels: the group's lanes consume the sources in tiles of
// LocalSize, width floats each. Per tile, each lane l stages source
// t*LocalSize+l into its slot of local memory through stage, a barrier
// follows, one consume call folds the whole tile into every lane's running
// sums, and a second barrier follows. A staged source is charged as a
// coalesced global read and a local write; a consumed tile as a local read
// of every source, flops useful operations per source and two of loop
// control and address arithmetic. Every lane stages and consumes the same
// amount in every tile, so each lane is charged once, for all the tiles.
func iTileLoop(grp *gpusim.Group, tiles, width, flops int, stage func(j int, slot []float32), consume func(tile []float32)) {
	ls := grp.LocalSize()
	for l := 0; l < ls; l++ {
		wi := grp.Item(l)
		wi.ChargeGlobal(4*width*tiles, 0)
		wi.ChargeLDS(4*width*tiles + 4*width*ls*tiles)
		wi.Flops(flops * ls * tiles)
		wi.Aux(2 * ls * tiles)
	}
	tile := grp.Item(0).RawLDS()[:width*ls]
	for t := 0; t < tiles; t++ {
		for l := 0; l < ls; l++ {
			stage(t*ls+l, tile[width*l:width*(l+1)])
		}
		grp.Barrier()
		consume(tile)
		grp.Barrier()
	}
}

// Accel implements Plan.
func (p *IParallel) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: i-parallel: empty system")
	}
	sp := p.obs.Start("accel", "plan").Track(p.Name()).Arg("n", n)
	defer sp.End()
	hostStart := time.Now() // repocheck:allow nodeterminism -- measured host wall time for perf attribution; modelled timings come from the launch results
	p.ensureBuffers(n)
	p.hostIn = flattenPadded(s, p.nPad, p.hostIn)
	hostWall := time.Since(hostStart).Seconds() // repocheck:allow nodeterminism -- measured host wall time for perf attribution; modelled timings come from the launch results

	// Upload positions, launch the force kernel, download accelerations.
	p.begin()
	p.writeF32(p.bufPosM, p.hostIn)
	p.launch("iparallel.force", p.kernel(), gpusim.LaunchParams{
		Global:    p.nPad,
		Local:     p.GroupSize,
		LDSFloats: 4 * p.GroupSize,
	})
	p.readF32(p.bufAcc, p.hostOut)
	rp, err := p.finish(p.Name(), n, int64(p.nPad)*int64(p.nPad), hostWall)
	if err != nil {
		return nil, err
	}
	s.UnflattenAcc(p.hostOut)
	return rp, nil
}
