package core

import (
	"repro/internal/gpusim"
	"repro/internal/pp"
)

// jwBuffers bundles the device buffers the jw force kernel consumes, so the
// kernel can be shared between the single-device JWParallel plan and the
// MultiJW extension.
type jwBuffers struct {
	src, pos, lists, desc *gpusim.Buffer
	queueWalks, queueDesc *gpusim.Buffer
	acc                   *gpusim.Buffer
}

// jwKernel builds the jw-parallel force kernel over the given buffers:
// each work-group drains its walk queue; per walk, the interaction list is
// staged tile-by-tile through local memory (unless staged is false, the
// per-lane streaming ablation) and every active lane accumulates its body's
// acceleration. The kernel is a lane loop: each barrier separates two loops
// over the lanes, and the per-lane position and running sum that live across
// barriers sit in the group's lane slices.
func jwKernel(b jwBuffers, g, eps2 float32, staged bool) gpusim.KernelFunc {
	return func(grp *gpusim.Group) {
		gid := grp.ID()
		ls := grp.LocalSize()
		lead := grp.Item(0)
		desc := lead.RawGlobalI32(b.desc)
		lists := lead.RawGlobalI32(b.lists)
		src := lead.RawGlobalF32(b.src)
		posm := lead.RawGlobalF32(b.pos)
		acc := lead.RawGlobalF32(b.acc)
		qw := lead.RawGlobalI32(b.queueWalks)
		qd := lead.RawGlobalI32(b.queueDesc)
		lds := lead.RawLDS()
		px, py, pz := grp.LaneF32(0), grp.LaneF32(1), grp.LaneF32(2)
		ax, ay, az := grp.LaneF32(3), grp.LaneF32(4), grp.LaneF32(5)

		lead.ChargeGlobal(8, 0) // queue descriptor broadcast
		qBase := int(qd[2*gid+0])
		qLen := int(qd[2*gid+1])

		for qi := 0; qi < qLen; qi++ {
			lead.ChargeGlobal(4+16, 0) // walk id + walk descriptor broadcast
			w := int(qw[qBase+qi])
			first := int(desc[w*bhDescStride+0])
			count := int(desc[w*bhDescStride+1])
			base := int(desc[w*bhDescStride+2])
			llen := int(desc[w*bhDescStride+3])
			active := min(count, ls) // lanes l < active own a body

			for l := 0; l < active; l++ {
				slot := first + l
				grp.Item(l).ChargeGlobal(16, 0)
				px[l], py[l], pz[l] = posm[4*slot], posm[4*slot+1], posm[4*slot+2]
				ax[l], ay[l], az[l] = 0, 0, 0
			}

			if staged {
				// j-parallel within the walk: stage list tiles through
				// local memory; every lane helps stage, active lanes
				// consume. Lane l stages entry l of each tile, so over
				// the walk it stages llen/ls entries, one more when
				// l < llen%ls, each a coalesced index, a gathered float4
				// and a local write; every active lane reads every entry
				// from local memory. The walk charges those totals once.
				perLane, extra := llen/ls, llen%ls
				for l := 0; l < ls; l++ {
					k := perLane
					if l < extra {
						k++
					}
					wi := grp.Item(l)
					wi.ChargeGlobal(4*k, 16*k)
					wi.ChargeLDS(16 * k)
					if l < active {
						wi.ChargeLDS(16 * llen)
						wi.Flops(pp.FlopsPerInteraction * llen)
						wi.Aux(2 * llen)
					}
				}
				for t := 0; t < llen; t += ls {
					tile := lists[base+t : base+min(t+ls, llen)]
					for l, idx := range tile {
						*(*[4]float32)(lds[4*l:]) = *(*[4]float32)(src[4*idx:])
					}
					grp.Barrier()
					pp.AccumulateTileLanes(px[:active], py, pz, ax, ay, az, lds[:4*len(tile)], eps2)
					grp.Barrier()
				}
			} else {
				// Ablation: per-lane streaming, as in w-parallel.
				streamList(grp, px[:active], py, pz, ax, ay, az, lists[base:base+llen], src, eps2)
			}

			for l := 0; l < active; l++ {
				slot := first + l
				grp.Item(l).ChargeGlobal(16, 0)
				acc[4*slot+0] = ax[l] * g
				acc[4*slot+1] = ay[l] * g
				acc[4*slot+2] = az[l] * g
				acc[4*slot+3] = 0
			}
		}
	}
}
