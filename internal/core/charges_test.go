package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/pp"
	"repro/internal/rng"
)

// The lane-loop kernels charge each lane its totals once per walk (jw) or
// once per work-group (iTileLoop). The reference kernels below charge the
// same work the per-tile way: every lane, every tile. The cost model reads
// only the per-lane totals, so the two forms must give equal GroupCosts,
// and they must write the same bits.

// refJWStagedKernel is the staged jw-parallel kernel with per-tile charges.
func refJWStagedKernel(b jwBuffers, g, eps2 float32) gpusim.KernelFunc {
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

			for t := 0; t*ls < llen; t++ {
				kmax := min(llen-t*ls, ls)
				for l := 0; l < kmax; l++ {
					wi := grp.Item(l)
					idx := lists[base+t*ls+l]
					wi.ChargeGlobal(4, 16) // coalesced index + gathered float4
					wi.ChargeLDS(16)
					lds[4*l+0] = src[4*idx+0]
					lds[4*l+1] = src[4*idx+1]
					lds[4*l+2] = src[4*idx+2]
					lds[4*l+3] = src[4*idx+3]
				}
				grp.Barrier()
				for l := 0; l < active; l++ {
					wi := grp.Item(l)
					wi.ChargeLDS(16 * kmax)
					wi.Flops(pp.FlopsPerInteraction * kmax)
					wi.Aux(2 * kmax)
				}
				pp.AccumulateTileLanes(px[:active], py, pz, ax, ay, az, lds[:4*kmax], eps2)
				grp.Barrier()
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

// refITileLoop is iTileLoop with per-tile charges.
func refITileLoop(grp *gpusim.Group, tiles, width, flops int, stage func(j int, slot []float32), consume func(tile []float32)) {
	ls := grp.LocalSize()
	tile := grp.Item(0).RawLDS()[:width*ls]
	for t := 0; t < tiles; t++ {
		for l := 0; l < ls; l++ {
			wi := grp.Item(l)
			wi.ChargeGlobal(4*width, 0)
			wi.ChargeLDS(4 * width)
			stage(t*ls+l, tile[width*l:width*(l+1)])
		}
		grp.Barrier()
		for l := 0; l < ls; l++ {
			wi := grp.Item(l)
			wi.ChargeLDS(4 * width * ls)
			wi.Flops(flops * ls)
			wi.Aux(2 * ls)
		}
		consume(tile)
		grp.Barrier()
	}
}

// refIParallelKernel is IParallel.kernel over refITileLoop.
func refIParallelKernel(p *IParallel) gpusim.KernelFunc {
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

		refITileLoop(grp, nPad/ls, 4, pp.FlopsPerInteraction,
			func(j int, slot []float32) { copy(slot, src[4*j:4*j+4]) },
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

// chargeScenarios builds the named scenarios of the job API with its
// default shape parameters.
var chargeScenarios = []struct {
	name string
	make func(n int) *body.System
}{
	{"plummer", func(n int) *body.System { return ic.Plummer(n, 3) }},
	{"hernquist", func(n int) *body.System { return ic.Hernquist(n, 3) }},
	{"cube", func(n int) *body.System { return ic.UniformCube(n, 2.0, 3) }},
	{"disk", func(n int) *body.System { return ic.Disk(n, 1.0, 3) }},
	{"collision", func(n int) *body.System { return ic.Collision(n, 4.0, 0.5, 3) }},
}

// requireSameLaunch launches ref and then fn on dev with lp, and requires
// equal bits in out after each and an equal GroupCost for every group.
func requireSameLaunch(t *testing.T, label string, dev *gpusim.Device, ref, fn gpusim.KernelFunc, lp gpusim.LaunchParams, out *gpusim.Buffer) {
	t.Helper()
	clear(out.HostF32())
	want, err := dev.Launch("ref", ref, lp)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	wantOut := slices.Clone(out.HostF32())
	clear(out.HostF32())
	got, err := dev.Launch("new", fn, lp)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, v := range out.HostF32() {
		if math.Float32bits(v) != math.Float32bits(wantOut[i]) {
			t.Fatalf("%s: output[%d] = %v, reference %v", label, i, v, wantOut[i])
		}
	}
	for gid := range want.Groups {
		if got.Groups[gid] != want.Groups[gid] {
			t.Fatalf("%s: group %d cost %+v, reference %+v", label, gid, got.Groups[gid], want.Groups[gid])
		}
	}
}

// TestJWChargesMatchPerTileOnEveryScenario runs the staged jw kernel and
// its per-tile reference over the walk queues of every scenario.
func TestJWChargesMatchPerTileOnEveryScenario(t *testing.T) {
	for _, sc := range chargeScenarios {
		for _, n := range []int{64, 333, 1000} {
			label := fmt.Sprintf("%s/%d", sc.name, n)
			ctx := newHD5850Context(t)
			p := planOn[*JWParallel](t, ctx, "jw-parallel")
			if _, err := p.Accel(sc.make(n)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			eps2 := p.Opt.Eps * p.Opt.Eps
			lp := gpusim.LaunchParams{
				Global:    queueCount(ctx.Device().Config, p.QueueTarget, p.data.numWalks) * p.LocalSize,
				Local:     p.LocalSize,
				LDSFloats: 4 * p.LocalSize,
			}
			requireSameLaunch(t, label, ctx.Device(),
				refJWStagedKernel(p.bufs, p.Opt.G, eps2), jwKernel(p.bufs, p.Opt.G, eps2, true), lp, p.bufs.acc)
		}
	}
}

// TestJWChargesMatchPerTileAtTileEdges runs both kernels over hand-made
// walk tables whose list lengths sit at and around the tile edges, two
// queues of three walks each, one walk with fewer bodies than lanes.
func TestJWChargesMatchPerTileAtTileEdges(t *testing.T) {
	const ls = 64
	walks := []struct{ count, llen int }{
		{ls, 1}, {ls, ls - 1}, {ls, ls},
		{ls, ls + 1}, {ls, 3 * ls}, {5, ls + 1},
	}
	ctx := newHD5850Context(t)
	dev := ctx.Device()
	r := rng.New(7)
	rand := func() float32 { return float32(r.Float64()) }

	const sources = 200
	var desc, lists []int32
	slots := 0
	for _, w := range walks {
		desc = append(desc, int32(slots), int32(w.count), int32(len(lists)), int32(w.llen))
		for k := 0; k < w.llen; k++ {
			lists = append(lists, int32(r.Uint64()%sources))
		}
		slots += w.count
	}
	b := jwBuffers{
		src:        dev.NewBufferF32("src", 4*sources),
		pos:        dev.NewBufferF32("pos", 4*slots),
		lists:      dev.NewBufferI32("lists", len(lists)),
		desc:       dev.NewBufferI32("desc", len(desc)),
		queueWalks: dev.NewBufferI32("qwalks", len(walks)),
		queueDesc:  dev.NewBufferI32("qdesc", 4),
		acc:        dev.NewBufferF32("acc", 4*slots),
	}
	for i := range b.src.HostF32() {
		b.src.HostF32()[i] = rand()
	}
	for i := range b.pos.HostF32() {
		b.pos.HostF32()[i] = rand()
	}
	copy(b.lists.HostI32(), lists)
	copy(b.desc.HostI32(), desc)
	copy(b.queueWalks.HostI32(), []int32{0, 1, 2, 3, 4, 5})
	copy(b.queueDesc.HostI32(), []int32{0, 3, 3, 3})

	lp := gpusim.LaunchParams{Global: 2 * ls, Local: ls, LDSFloats: 4 * ls}
	requireSameLaunch(t, "tile edges", dev, refJWStagedKernel(b, 1, 0.0025), jwKernel(b, 1, 0.0025, true), lp, b.acc)
}

// TestIParallelChargesMatchPerTileOnEveryScenario runs the i-parallel
// kernel and its per-tile reference on every scenario.
func TestIParallelChargesMatchPerTileOnEveryScenario(t *testing.T) {
	for _, sc := range chargeScenarios {
		for _, n := range []int{64, 333, 1000} {
			label := fmt.Sprintf("%s/%d", sc.name, n)
			ctx := newHD5850Context(t)
			p := planOn[*IParallel](t, ctx, "i-parallel")
			if _, err := p.Accel(sc.make(n)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			lp := gpusim.LaunchParams{Global: p.nPad, Local: p.GroupSize, LDSFloats: 4 * p.GroupSize}
			requireSameLaunch(t, label, ctx.Device(), refIParallelKernel(p), p.kernel(), lp, p.bufAcc)
		}
	}
}

// TestITileLoopChargesMatchPerTileAtJerkWidth runs iTileLoop and its
// per-tile reference at the jerk kernel's width of 7 floats per source.
func TestITileLoopChargesMatchPerTileAtJerkWidth(t *testing.T) {
	const ls, tiles, width = 32, 3, 7
	ctx := newHD5850Context(t)
	dev := ctx.Device()
	src := dev.NewBufferF32("src", width*ls*tiles)
	out := dev.NewBufferF32("out", width*ls*tiles)
	for i := range src.HostF32() {
		src.HostF32()[i] = float32(i)
	}
	kernel := func(loop func(*gpusim.Group, int, int, int, func(int, []float32), func([]float32))) gpusim.KernelFunc {
		return func(grp *gpusim.Group) {
			s := grp.Item(0).RawGlobalF32(src)
			o := grp.Item(0).RawGlobalF32(out)
			t := 0
			loop(grp, tiles, width, pp.FlopsPerJerkInteraction,
				func(j int, slot []float32) { copy(slot, s[width*j:width*(j+1)]) },
				func(tile []float32) {
					copy(o[width*ls*t:], tile)
					t++
				})
		}
	}
	lp := gpusim.LaunchParams{Global: ls, Local: ls, LDSFloats: width * ls}
	requireSameLaunch(t, "jerk width", dev, kernel(refITileLoop), kernel(iTileLoop), lp, out)
}
