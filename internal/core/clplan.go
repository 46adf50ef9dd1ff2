package core

import (
	"fmt"

	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
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

	ctx     *cl.Context
	queue   *cl.Queue
	kernel  *cl.CLKernel
	bufPosM *gpusim.Buffer
	bufAcc  *gpusim.Buffer
	nPad    int
	n       int
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
		ctx:       ctx,
		queue:     ctx.NewQueue(),
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
	local := p.GroupSize
	nPad := roundUp(n, local)
	if nPad != p.nPad || n != p.n || p.bufPosM == nil {
		dev := p.ctx.Device()
		p.nPad = nPad
		p.n = n
		p.bufPosM = dev.NewBufferF32(p.Variant+".posm", 4*nPad)
		accLen := 4 * nPad
		if p.Variant == "jparallel" {
			accLen = 4 * n
		}
		p.bufAcc = dev.NewBufferF32(p.Variant+".acc", accLen)
		p.hostOut = make([]float32, accLen)
	}
	p.hostIn = flattenPadded(s, nPad, p.hostIn)

	q := p.queue
	q.Reset()
	if _, err := q.EnqueueWriteF32(p.bufPosM, p.hostIn); err != nil {
		return nil, err
	}

	eps2 := p.Params.Eps * p.Params.Eps
	var global int
	var interactions int64
	switch p.Variant {
	case "iparallel":
		if err := p.kernel.SetArgs(p.bufPosM, p.bufAcc, cl.LocalFloats(4*local),
			nPad, eps2, p.Params.G); err != nil {
			return nil, err
		}
		global = nPad
		interactions = int64(nPad) * int64(nPad)
	case "jparallel":
		if err := p.kernel.SetArgs(p.bufPosM, p.bufAcc, cl.LocalFloats(3*local),
			nPad, eps2, p.Params.G); err != nil {
			return nil, err
		}
		global = n * local
		interactions = int64(n) * int64(nPad)
	}
	ev, err := q.EnqueueCLKernel(p.kernel, global, local)
	if err != nil {
		return nil, err
	}
	if _, err := q.EnqueueReadF32(p.bufAcc, p.hostOut); err != nil {
		return nil, err
	}
	s.UnflattenAcc(p.hostOut)

	return &RunProfile{
		Plan:         p.Name(),
		N:            n,
		Interactions: interactions,
		Flops:        interactionFlops(interactions),
		Profile:      q.Profile(),
		Launches:     []*gpusim.Result{ev.Result},
	}, nil
}
