package core

import (
	"fmt"
	"time"

	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pipeline"
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

// kernel returns the i-parallel force kernel bound to the current buffers.
func (p *IParallel) kernel() gpusim.KernelFunc {
	nPad := p.nPad
	g := p.Params.G
	eps2 := p.Params.Eps * p.Params.Eps
	posm := p.bufPosM
	out := p.bufAcc

	return gpusim.PerItem(func(wi *gpusim.Item) {
		i := wi.GlobalID()
		l := wi.LocalID()
		ls := wi.LocalSize()
		src := wi.RawGlobalF32(posm)
		dst := wi.RawGlobalF32(out)
		lds := wi.RawLDS()

		// Load own position (4 coalesced floats).
		wi.ChargeGlobal(16, 0)
		px, py, pz := src[4*i], src[4*i+1], src[4*i+2]
		var ax, ay, az float32

		tiles := nPad / ls
		for t := 0; t < tiles; t++ {
			// Stage one source per lane into local memory.
			j := t*ls + l
			wi.ChargeGlobal(16, 0)
			wi.ChargeLDS(16)
			lds[4*l+0] = src[4*j+0]
			lds[4*l+1] = src[4*j+1]
			lds[4*l+2] = src[4*j+2]
			lds[4*l+3] = src[4*j+3]
			wi.Barrier()

			// Consume the tile: ls interactions per lane out of local
			// memory. Charged in bulk; the arithmetic below is the same
			// softened kernel as the CPU reference.
			wi.ChargeLDS(16 * ls)
			wi.Flops(pp.FlopsPerInteraction * ls)
			wi.Aux(2 * ls) // loop control and LDS address arithmetic
			ax, ay, az = pp.AccumulateTile(px, py, pz, ax, ay, az, lds[:4*ls], eps2)
			wi.Barrier()
		}

		// Store the result (padding lanes write padding slots).
		wi.ChargeGlobal(16, 0)
		dst[4*i+0] = ax * g
		dst[4*i+1] = ay * g
		dst[4*i+2] = az * g
		dst[4*i+3] = 0
	})
}

// graph builds the plan's stage graph: upload positions, launch the force
// kernel, download accelerations.
func (p *IParallel) graph() *pipeline.Graph {
	return pipeline.NewGraph(p.Name()).
		Add(stageUploadF32("upload:posm", p.bufPosM, p.hostIn)).
		Add(stageKernel("force", "iparallel.force", p.kernel(), gpusim.LaunchParams{
			Global:    p.nPad,
			Local:     p.GroupSize,
			LDSFloats: 4 * p.GroupSize,
		}, "upload:posm")).
		Add(stageDownloadF32("download:acc", p.bufAcc, p.hostOut, "force"))
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

	rp, err := p.run(p.graph(), p.Name(), n, int64(p.nPad)*int64(p.nPad), hostWall)
	if err != nil {
		return nil, err
	}
	s.UnflattenAcc(p.hostOut)
	return rp, nil
}
