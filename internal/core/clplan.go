package core

import (
	"fmt"
	"time"

	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/pipeline"
	"repro/internal/pp"
)

// CLPlanPP is a PP plan whose kernel runs from its OpenCL C *source* through
// the internal/clc compiler instead of the hand-written Go kernel — the
// exact artifact path of the paper. It implements the same Plan interface,
// so it drops into the simulation driver and the experiment harness.
//
// Because the interpreter is an order of magnitude slower (wall-clock) than
// the Go kernels, the source plans exist for validation and demonstration;
// the modelled device times are equivalent by construction (same counters).
type CLPlanPP struct {
	Params pp.Params
	// Variant selects "iparallel" or "jparallel".
	Variant string
	// GroupSize is the work-group size (defaults: 256 for iparallel, 64
	// for jparallel).
	GroupSize int

	planBase

	kernel  *cl.CLKernel
	bufPosM *gpusim.Buffer
	bufAcc  *gpusim.Buffer
	hostIn  []float32
	hostOut []float32
}

// newCLPlanPP compiles the requested kernel source on the context.
func newCLPlanPP(ctx *cl.Context, params pp.Params, variant string) (*CLPlanPP, error) {
	var src string
	var groupSize int
	switch variant {
	case "iparallel":
		src, groupSize = IParallelCL, 256
	case "jparallel":
		src, groupSize = JParallelCL, 64
	default:
		return nil, fmt.Errorf("core: unknown CL PP variant %q", variant)
	}
	prog, err := ctx.CreateProgram(src)
	if err != nil {
		return nil, err
	}
	kern, err := prog.CreateKernel(variant)
	if err != nil {
		return nil, err
	}
	return &CLPlanPP{
		Params:    params,
		Variant:   variant,
		GroupSize: groupSize,
		planBase:  newPlanBase(ctx),
		kernel:    kern,
	}, nil
}

// Name implements Plan.
func (p *CLPlanPP) Name() string { return p.Variant + " (OpenCL C source)" }

// Kind implements Plan.
func (p *CLPlanPP) Kind() Kind { return KindPP }

// Accel implements Plan.
func (p *CLPlanPP) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: %s: empty system", p.Name())
	}
	hostStart := time.Now() // repocheck:allow nodeterminism -- measured host wall time for perf attribution; modelled timings come from the launch results
	local := p.GroupSize
	nPad := roundUp(n, local)
	// i-parallel: one work-item per padded body, a float4 tile per lane.
	// j-parallel: one work-group per body, a float3 partial sum per lane.
	global, accLen, ldsPerLane := nPad, 4*nPad, 4
	interactions := int64(nPad) * int64(nPad)
	if p.Variant == "jparallel" {
		global, accLen, ldsPerLane = n*local, 4*n, 3
		interactions = int64(n) * int64(nPad)
	}
	p.ensure(p.Variant+".posm", &p.bufPosM, 4*nPad, true)
	p.ensure(p.Variant+".acc", &p.bufAcc, accLen, true)
	p.hostOut = resize(p.hostOut, accLen)
	p.hostIn = flattenPadded(s, nPad, p.hostIn)
	eps2 := p.Params.Eps * p.Params.Eps
	if err := p.kernel.SetArgs(p.bufPosM, p.bufAcc, cl.LocalFloats(ldsPerLane*local),
		nPad, eps2, p.Params.G); err != nil {
		return nil, err
	}
	hostWall := time.Since(hostStart).Seconds() // repocheck:allow nodeterminism -- measured host wall time for perf attribution; modelled timings come from the launch results

	p.begin()
	p.writeF32(p.bufPosM, p.hostIn)
	if p.err == nil {
		ev, err := p.queue.EnqueueCLKernel(p.kernel, global, local)
		p.record(pipeline.Kernel, ev, err)
	}
	p.readF32(p.bufAcc, p.hostOut)
	rp, err := p.finish(p.Name(), n, interactions, hostWall)
	if err != nil {
		return nil, err
	}
	s.UnflattenAcc(p.hostOut)
	return rp, nil
}
