package core

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pp"
)

// WParallel is Hamada et al.'s SC'09 multiple-walk plan for the Barnes-Hut
// treecode: the CPU builds the tree and the group walks; on the GPU, each
// work-group executes exactly one walk, with the group's lanes carrying the
// walk's bodies and every lane streaming the walk's interaction list from
// global memory.
//
// Its two structural costs — the ones jw-parallel removes — are:
//
//  1. Every active lane re-reads every list entry (index + float4) from
//     global memory, so the traffic is bodies x list rather than list.
//  2. One work-group per walk: lanes beyond the walk's body count idle, and
//     walks shorter than the group's list are pure per-group overhead; the
//     spread of list lengths across groups shows up as load imbalance.
type WParallel struct {
	Opt bh.Options
	// GroupCap is the maximum bodies per walk. The plan sizes it to the
	// work-group so lanes are as full as a one-walk-per-group mapping
	// allows. Default 64.
	GroupCap int
	// LocalSize is the work-group size (default 64, one wavefront).
	LocalSize int

	planBase

	// data is the pooled host-side product of the build; steps 2..K reuse
	// its arenas.
	data bhHostData

	bufSrc, bufPos, bufLists, bufDesc, bufAcc *gpusim.Buffer
	hostAcc                                   []float32
}

// Name implements Plan.
func (p *WParallel) Name() string { return "w-parallel" }

// Kind implements Plan.
func (p *WParallel) Kind() Kind { return KindBH }

// SetObs implements obs.Observable.
func (p *WParallel) SetObs(o *obs.Obs) {
	p.setObs(o)
	p.Opt.Trace = o.Tracer()
}

// SetHostWorkers caps the goroutines that build the walks' interaction
// lists (0 = GOMAXPROCS, 1 = serial); the tree build is always serial.
func (p *WParallel) SetHostWorkers(n int) { p.data.builder.Workers = n }

// kernel returns the w-parallel force kernel bound to the current buffers:
// work-group w runs walk w, and each lane l < min(count, LocalSize) streams
// the walk's list for body first+l; the other lanes idle. The lanes' bodies
// and running sums sit in lane slices, so one leaf call serves them all.
func (p *WParallel) kernel() gpusim.KernelFunc {
	g := p.Opt.G
	eps2 := p.Opt.Eps * p.Opt.Eps
	bufSrc, bufPos, bufLists, bufDesc, bufAcc := p.bufSrc, p.bufPos, p.bufLists, p.bufDesc, p.bufAcc

	return func(grp *gpusim.Group) {
		w := grp.ID() // one work-group per walk
		lead := grp.Item(0)
		desc := lead.RawGlobalI32(bufDesc)
		lists := lead.RawGlobalI32(bufLists)
		src := lead.RawGlobalF32(bufSrc)
		posm := lead.RawGlobalF32(bufPos)
		acc := lead.RawGlobalF32(bufAcc)

		lead.ChargeGlobal(16, 0) // descriptor broadcast
		first := int(desc[w*bhDescStride+0])
		count := int(desc[w*bhDescStride+1])
		base := int(desc[w*bhDescStride+2])
		llen := int(desc[w*bhDescStride+3])
		active := min(count, grp.LocalSize())
		px, py, pz := grp.LaneF32(0), grp.LaneF32(1), grp.LaneF32(2)
		ax, ay, az := grp.LaneF32(3), grp.LaneF32(4), grp.LaneF32(5)

		for l := 0; l < active; l++ {
			slot := first + l
			grp.Item(l).ChargeGlobal(16, 0) // own position
			px[l], py[l], pz[l] = posm[4*slot], posm[4*slot+1], posm[4*slot+2]
		}
		streamList(grp, px[:active], py, pz, ax, ay, az, lists[base:base+llen], src, eps2)
		for l := 0; l < active; l++ {
			slot := first + l
			grp.Item(l).ChargeGlobal(16, 0) // result
			acc[4*slot+0] = ax[l] * g
			acc[4*slot+1] = ay[l] * g
			acc[4*slot+2] = az[l] * g
			acc[4*slot+3] = 0
		}
	}
}

// streamList is the w mapping's time axis: each lane l < len(px) streams
// the shared interaction list from global memory itself, paying for each
// entry's index (4B) and source float4 (16B), and one
// pp.AccumulateGatherLanes call folds the list into every such lane's
// running sum. jwKernel's unstaged ablation uses it too.
func streamList(grp *gpusim.Group, px, py, pz, ax, ay, az []float32, list []int32, src []float32, eps2 float32) {
	n := len(list)
	for l := range px {
		wi := grp.Item(l)
		wi.ChargeGlobal(20*n, 0)
		wi.Flops(pp.FlopsPerInteraction * n)
		wi.Aux(3 * n)
	}
	pp.AccumulateGatherLanes(px, py, pz, ax, ay, az, list, src, eps2)
}

// Accel implements Plan.
func (p *WParallel) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: w-parallel: empty system")
	}
	sp := p.obs.Start("accel", "plan").Track(p.Name()).Arg("n", n)
	defer sp.End()
	if err := p.data.build(s, p.Opt, p.GroupCap, p.LocalSize); err != nil {
		return nil, err
	}
	d := &p.data
	observeBHData(p.obs, d)

	p.ensure("wparallel.src", &p.bufSrc, len(d.srcF4), true)
	p.ensure("wparallel.posm", &p.bufPos, len(d.posmSorted), true)
	p.ensure("wparallel.lists", &p.bufLists, len(d.lists), false)
	p.ensure("wparallel.desc", &p.bufDesc, len(d.desc), false)
	p.ensure("wparallel.acc", &p.bufAcc, 4*n, true)
	p.hostAcc = resize(p.hostAcc, 4*n)

	// The treecode host front (tree, list), the four uploads, the
	// one-walk-per-group kernel, and the download.
	p.begin()
	p.hostFront(d)
	p.writeF32(p.bufSrc, d.srcF4)
	p.writeF32(p.bufPos, d.posmSorted)
	p.writeI32(p.bufLists, d.lists)
	p.writeI32(p.bufDesc, d.desc)
	p.launch("wparallel.force", p.kernel(), gpusim.LaunchParams{
		Global: d.numWalks * p.LocalSize,
		Local:  p.LocalSize,
	})
	p.readF32(p.bufAcc, p.hostAcc)
	rp, err := p.finish(p.Name(), n, d.interactions, d.wallSeconds)
	if err != nil {
		return nil, err
	}
	d.unpermuteAcc(s, p.hostAcc)
	return rp, nil
}
