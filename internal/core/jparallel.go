package core

import (
	"fmt"
	"time"

	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pp"
)

// JParallel is Hamada and Iitaka's "chamomile" execution plan for the PP
// method: one work-group per body i; the group's p lanes split the j-range,
// each accumulating a partial acceleration over N/p sources read directly
// (and coalesced) from global memory, and a local-memory tree reduction
// combines the partials before a single lane writes the result.
//
// In PTPM terms both grid axes are mapped to space: N x p work-items exist
// even for small N, so the device is saturated long before i-parallel — at
// the price of reading each source once per *body* rather than once per
// *work-group*, i.e. p-fold more global traffic, which makes the plan
// memory-bound (and flat) at large N. Figure 5 shows exactly this pair of
// regimes.
type JParallel struct {
	Params pp.Params
	// GroupSize is the work-group size p (default 64, one wavefront).
	GroupSize int

	planBase

	n, nPadJ int
	bufPosM  *gpusim.Buffer
	bufAcc   *gpusim.Buffer
	hostIn   []float32
	hostOut  []float32
}

// Name implements Plan.
func (p *JParallel) Name() string { return "j-parallel" }

// Kind implements Plan.
func (p *JParallel) Kind() Kind { return KindPP }

// ppParams exposes the physics parameters for the engine's jerk unit.
func (p *JParallel) ppParams() pp.Params { return p.Params }

// SetObs implements obs.Observable.
func (p *JParallel) SetObs(o *obs.Obs) { p.setObs(o) }

func (p *JParallel) ensureBuffers(n int) {
	p.n = n
	p.nPadJ = roundUp(n, p.GroupSize)
	p.ensure("jparallel.posm", &p.bufPosM, 4*p.nPadJ, true)
	p.ensure("jparallel.acc", &p.bufAcc, 4*n, true)
	p.hostOut = resize(p.hostOut, 4*n)
}

// kernel returns the j-parallel force kernel bound to the current buffers.
func (p *JParallel) kernel() gpusim.KernelFunc {
	nPadJ := p.nPadJ
	g := p.Params.G
	eps2 := p.Params.Eps * p.Params.Eps
	posm := p.bufPosM
	out := p.bufAcc

	return gpusim.PerItem(func(wi *gpusim.Item) {
		i := wi.GroupID() // one work-group per body
		l := wi.LocalID()
		ls := wi.LocalSize()
		src := wi.RawGlobalF32(posm)
		dst := wi.RawGlobalF32(out)
		lds := wi.RawLDS()

		// All lanes read body i; the hardware broadcasts one transaction,
		// charged to lane 0.
		if l == 0 {
			wi.ChargeGlobal(16, 0)
		}
		px, py, pz := src[4*i], src[4*i+1], src[4*i+2]

		// Each lane accumulates over its strided slice of the sources;
		// lane l reads j = t*p + l, coalesced across the wavefront.
		var ax, ay, az float32
		tiles := nPadJ / ls
		wi.ChargeGlobal(16*tiles, 0)
		wi.Flops(pp.FlopsPerInteraction * tiles)
		wi.Aux(2 * tiles)
		for t := 0; t < tiles; t++ {
			j := t*ls + l
			x, y, z := pp.AccumulateInto(px, py, pz, src[4*j], src[4*j+1], src[4*j+2], src[4*j+3], eps2)
			ax, ay, az = ax+x, ay+y, az+z
		}

		// Tree reduction of the p partial sums through local memory.
		wi.ChargeLDS(12)
		lds[3*l+0] = ax
		lds[3*l+1] = ay
		lds[3*l+2] = az
		wi.Barrier()
		for stride := ls / 2; stride > 0; stride /= 2 {
			if l < stride {
				wi.ChargeLDS(36) // read partner (12) + read own (12) + write (12)
				wi.Aux(3)
				lds[3*l+0] += lds[3*(l+stride)+0]
				lds[3*l+1] += lds[3*(l+stride)+1]
				lds[3*l+2] += lds[3*(l+stride)+2]
			}
			wi.Barrier()
		}
		if l == 0 {
			wi.ChargeGlobal(16, 0)
			dst[4*i+0] = lds[0] * g
			dst[4*i+1] = lds[1] * g
			dst[4*i+2] = lds[2] * g
			dst[4*i+3] = 0
		}
	})
}

// Accel implements Plan.
func (p *JParallel) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: j-parallel: empty system")
	}
	sp := p.obs.Start("accel", "plan").Track(p.Name()).Arg("n", n)
	defer sp.End()
	hostStart := time.Now() // repocheck:allow nodeterminism -- measured host wall time for perf attribution; modelled timings come from the launch results
	p.ensureBuffers(n)
	p.hostIn = flattenPadded(s, p.nPadJ, p.hostIn)
	hostWall := time.Since(hostStart).Seconds() // repocheck:allow nodeterminism -- measured host wall time for perf attribution; modelled timings come from the launch results

	// Upload positions, launch the force+reduction kernel, download
	// accelerations.
	p.begin()
	p.writeF32(p.bufPosM, p.hostIn)
	p.launch("jparallel.force", p.kernel(), gpusim.LaunchParams{
		Global:    p.n * p.GroupSize,
		Local:     p.GroupSize,
		LDSFloats: 3 * p.GroupSize,
	})
	p.readF32(p.bufAcc, p.hostOut)
	rp, err := p.finish(p.Name(), n, int64(n)*int64(p.nPadJ), hostWall)
	if err != nil {
		return nil, err
	}
	s.UnflattenAcc(p.hostOut)
	return rp, nil
}
