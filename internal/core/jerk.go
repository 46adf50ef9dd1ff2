package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/pp"
	"repro/internal/vec"
)

// jerkCapablePlan is satisfied by PP plans that can host the jerk unit: they
// expose their cl context (to build the unit's buffers and queue on the same
// simulated device) and their physics parameters. Both PP plans qualify via
// planBase promotion; the BH plans do not — a treecode has no exact jerk.
type jerkCapablePlan interface {
	clContext() *cl.Context
	ppParams() pp.Params
}

// jerkIGroupMax is the i-parallel jerk work-group size on devices with enough
// local memory for a 7-float (position+mass+velocity) tile per lane; the unit
// halves it until the tile fits the device's LDS.
const jerkIGroupMax = 256

// jerkJGroup is the j-parallel jerk work-group size (one wavefront on the
// paper's AMD devices, matching the force-path j-parallel plan).
const jerkJGroup = 64

// jerkUnit executes the Hermite integrator's active-subset acceleration+jerk
// evaluations on the simulated device. It is the PTPM story applied to block
// timesteps: the grid is active-bodies x all-sources, and because the active
// block shrinks as bodies settle onto long timesteps, the i-parallel /
// j-parallel crossover of Figure 5 is crossed *within a single run* — so the
// unit re-selects the plan per block instead of fixing it per job:
//
//   - jerk:i-parallel — one work-item per active body, sources tiled through
//     local memory (7 floats per lane: position+mass and velocity). Chosen
//     while the active block still fills the device with work-groups.
//   - jerk:j-parallel — one work-group per active body, lanes split the
//     sources and tree-reduce 6 partial sums (acceleration and jerk) through
//     local memory. Chosen when the block is too small for i-parallel
//     occupancy.
//
// Both kernels compute each interaction with pp.AccumulateJerkInto. The
// i-parallel kernel is a lane loop over the force path's i-mapping tile loop
// (iTileLoop) whose consumer calls pp.AccumulateJerkTile lane by lane; it
// sums the sources in body order, so its output is bit-identical to the CPU
// reference pp.ScalarJerk. The j-parallel kernel's strided partial sums and
// tree reduction change the summation order, so it agrees only to rounding.
// TestJerkKernelsBitwiseGolden pins both.
//
// Each evaluation makes one upload and one download, because the model
// charges every PCIe transfer a fixed latency on top of its bytes. The input
// buffer holds the padded positions+masses (4·nPad floats), then the padded
// velocities (4·nPad), then the active index list (activePad), each index
// stored as the raw bits of a float32 (OpenCL's as_int); the output buffer
// holds the accelerations, then the jerks (4·activePad each). The kernels
// see the regions as sub-slices (inputs, outputs).
type jerkUnit struct {
	params pp.Params
	iGroup int

	planBase

	nPad      int // sources padded to a multiple of iGroup
	activePad int
	bufIn     *gpusim.Buffer
	bufOut    *gpusim.Buffer

	hostIn  []float32
	hostOut []float32
}

// newJerkUnit builds the unit on the plan's context.
func newJerkUnit(ctx *cl.Context, params pp.Params) *jerkUnit {
	u := &jerkUnit{params: params, iGroup: jerkIGroupMax, planBase: newPlanBase(ctx)}
	for u.iGroup > jerkJGroup && 7*u.iGroup*4 > ctx.Device().Config.LDSPerCU {
		u.iGroup >>= 1
	}
	return u
}

// selectPlan is the per-block dynamic plan selector: i-parallel needs
// activeN/iGroup work-groups to cover the device's compute units, exactly the
// occupancy argument that fixes the static crossover in Figure 5 — applied
// here to the shrinking active block rather than to N.
func (u *jerkUnit) selectPlan(activeN int) string {
	if activeN >= u.ctx.Device().Config.ComputeUnits*u.iGroup {
		return "i-parallel"
	}
	return "j-parallel"
}

func (u *jerkUnit) ensureBuffers(n, activeN int) {
	u.nPad = roundUp(n, u.iGroup)
	u.activePad = roundUp(activeN, u.iGroup)
	u.ensure("jerk.in", &u.bufIn, 8*u.nPad+u.activePad, true)
	u.ensure("jerk.out", &u.bufOut, 8*u.activePad, true)
	u.hostIn = resize(u.hostIn, 8*u.nPad+u.activePad)
	u.hostOut = resize(u.hostOut, 8*u.activePad)
}

// inputs splits an input buffer's backing store into the padded
// positions+masses, the padded velocities and the active index list.
func (u *jerkUnit) inputs(in []float32) (posm, vel, ids []float32) {
	n4 := 4 * u.nPad
	return in[:n4], in[n4 : 2*n4], in[2*n4 : 2*n4+u.activePad]
}

// outputs splits an output buffer's backing store into the accelerations
// and the jerks.
func (u *jerkUnit) outputs(out []float32) (acc, jerk []float32) {
	a4 := 4 * u.activePad
	return out[:a4], out[a4 : 2*a4]
}

// iKernel is the i-parallel jerk kernel: lane l of work-group gid serves
// active body ids[gid*LocalSize+l] and runs the i mapping's tile loop over
// all nPad sources, 7 floats per lane (x,y,z,m,vx,vy,vz). Padding lanes
// recompute body ids[0] into padding output slots, which the host never
// reads.
func (u *jerkUnit) iKernel() gpusim.KernelFunc {
	nPad := u.nPad
	g := u.params.G
	eps2 := u.params.Eps * u.params.Eps
	in, out := u.bufIn, u.bufOut

	return func(grp *gpusim.Group) {
		ls := grp.LocalSize()
		base := grp.ID() * ls
		lead := grp.Item(0)
		srcP, srcV, ids := u.inputs(lead.RawGlobalF32(in))
		dstA, dstJ := u.outputs(lead.RawGlobalF32(out))
		px, py, pz := grp.LaneF32(0), grp.LaneF32(1), grp.LaneF32(2)
		vx, vy, vz := grp.LaneF32(3), grp.LaneF32(4), grp.LaneF32(5)
		ax, ay, az := grp.LaneF32(6), grp.LaneF32(7), grp.LaneF32(8)
		jx, jy, jz := grp.LaneF32(9), grp.LaneF32(10), grp.LaneF32(11)

		// Own index, position and velocity (coalesced across the group).
		for l := 0; l < ls; l++ {
			grp.Item(l).ChargeGlobal(4+16+12, 0)
			i := int(math.Float32bits(ids[base+l]))
			px[l], py[l], pz[l] = srcP[4*i], srcP[4*i+1], srcP[4*i+2]
			vx[l], vy[l], vz[l] = srcV[4*i], srcV[4*i+1], srcV[4*i+2]
		}

		iTileLoop(grp, nPad/ls, 7, pp.FlopsPerJerkInteraction,
			func(j int, slot []float32) {
				copy(slot[:4], srcP[4*j:4*j+4])
				copy(slot[4:], srcV[4*j:4*j+3])
			},
			func(tile []float32) {
				for l := 0; l < ls; l++ {
					ax[l], ay[l], az[l], jx[l], jy[l], jz[l] = pp.AccumulateJerkTile(
						px[l], py[l], pz[l], vx[l], vy[l], vz[l],
						ax[l], ay[l], az[l], jx[l], jy[l], jz[l], tile, eps2)
				}
			})

		for l := 0; l < ls; l++ {
			k := base + l
			grp.Item(l).ChargeGlobal(32, 0)
			dstA[4*k+0] = ax[l] * g
			dstA[4*k+1] = ay[l] * g
			dstA[4*k+2] = az[l] * g
			dstA[4*k+3] = 0
			dstJ[4*k+0] = jx[l] * g
			dstJ[4*k+1] = jy[l] * g
			dstJ[4*k+2] = jz[l] * g
			dstJ[4*k+3] = 0
		}
	}
}

// jKernel is the j-parallel jerk kernel: one work-group per active body;
// lanes split the sources and tree-reduce six partial sums (acceleration and
// jerk) through local memory before lane 0 writes the result.
func (u *jerkUnit) jKernel() gpusim.KernelFunc {
	nPad := u.nPad
	g := u.params.G
	eps2 := u.params.Eps * u.params.Eps
	in, out := u.bufIn, u.bufOut

	return gpusim.PerItem(func(wi *gpusim.Item) {
		k := wi.GroupID() // one work-group per active body
		l := wi.LocalID()
		ls := wi.LocalSize()
		srcP, srcV, ids := u.inputs(wi.RawGlobalF32(in))
		dstA, dstJ := u.outputs(wi.RawGlobalF32(out))
		lds := wi.RawLDS()

		// All lanes read body k's index and state; the hardware broadcasts
		// one transaction, charged to lane 0.
		if l == 0 {
			wi.ChargeGlobal(4+16+12, 0)
		}
		i := int(math.Float32bits(ids[k]))
		px, py, pz := srcP[4*i], srcP[4*i+1], srcP[4*i+2]
		vx, vy, vz := srcV[4*i], srcV[4*i+1], srcV[4*i+2]

		// Each lane accumulates over its strided slice of the sources.
		var ax, ay, az, jx, jy, jz float32
		tiles := nPad / ls
		wi.ChargeGlobal((16+12)*tiles, 0)
		wi.Flops(pp.FlopsPerJerkInteraction * tiles)
		wi.Aux(2 * tiles)
		for t := 0; t < tiles; t++ {
			j := t*ls + l
			a, jk := pp.AccumulateJerkInto(px, py, pz, vx, vy, vz,
				srcP[4*j+0], srcP[4*j+1], srcP[4*j+2],
				srcV[4*j+0], srcV[4*j+1], srcV[4*j+2],
				srcP[4*j+3], eps2)
			ax += a.X
			ay += a.Y
			az += a.Z
			jx += jk.X
			jy += jk.Y
			jz += jk.Z
		}

		// Tree reduction of the six partial sums through local memory.
		wi.ChargeLDS(24)
		lds[6*l+0] = ax
		lds[6*l+1] = ay
		lds[6*l+2] = az
		lds[6*l+3] = jx
		lds[6*l+4] = jy
		lds[6*l+5] = jz
		wi.Barrier()
		for stride := ls / 2; stride > 0; stride /= 2 {
			if l < stride {
				wi.ChargeLDS(72) // read partner (24) + read own (24) + write (24)
				wi.Aux(6)
				for c := 0; c < 6; c++ {
					lds[6*l+c] += lds[6*(l+stride)+c]
				}
			}
			wi.Barrier()
		}
		if l == 0 {
			wi.ChargeGlobal(32, 0)
			dstA[4*k+0] = lds[0] * g
			dstA[4*k+1] = lds[1] * g
			dstA[4*k+2] = lds[2] * g
			dstA[4*k+3] = 0
			dstJ[4*k+0] = lds[3] * g
			dstJ[4*k+1] = lds[4] * g
			dstJ[4*k+2] = lds[5] * g
			dstJ[4*k+3] = 0
		}
	})
}

// eval runs one active-block acceleration+jerk evaluation. Only the active
// slots of s.Acc and jerk are written, matching integrate.BlockForceFunc.
func (u *jerkUnit) eval(s *body.System, active []int, jerk []vec.V3) (*RunProfile, error) {
	n := s.N()
	activeN := len(active)
	if n == 0 || activeN == 0 {
		return nil, fmt.Errorf("core: jerk: empty system or active block")
	}
	if len(jerk) < n {
		return nil, fmt.Errorf("core: jerk: jerk slice length %d < n %d", len(jerk), n)
	}
	plan := u.selectPlan(activeN)
	sp := u.obs.Start("accel", "jerk").Track("jerk:"+plan).Arg("n", n).Arg("active", activeN)
	defer sp.End()

	hostStart := time.Now() // repocheck:allow nodeterminism -- measured host wall time for perf attribution; modelled timings come from the launch results
	u.ensureBuffers(n, activeN)
	posm, vel, ids := u.inputs(u.hostIn)
	flattenPadded(s, u.nPad, posm) // in place: posm holds exactly 4·nPad floats
	clear(vel)
	for i, v := range s.Vel {
		vel[4*i+0] = v.X
		vel[4*i+1] = v.Y
		vel[4*i+2] = v.Z
	}
	clear(ids) // +0.0 is index 0's bits
	for k, i := range active {
		ids[k] = math.Float32frombits(uint32(i))
	}
	hostWall := time.Since(hostStart).Seconds() // repocheck:allow nodeterminism -- measured host wall time for perf attribution; modelled timings come from the launch results

	var kernel gpusim.KernelFunc
	var lp gpusim.LaunchParams
	var interactions int64
	if plan == "i-parallel" {
		kernel = u.iKernel()
		lp = gpusim.LaunchParams{Global: u.activePad, Local: u.iGroup, LDSFloats: 7 * u.iGroup}
		interactions = int64(u.activePad) * int64(u.nPad)
	} else {
		kernel = u.jKernel()
		lp = gpusim.LaunchParams{Global: activeN * jerkJGroup, Local: jerkJGroup, LDSFloats: 6 * jerkJGroup}
		interactions = int64(activeN) * int64(u.nPad)
	}
	// Upload the padded sources and the active index list in one transfer,
	// launch the jerk kernel, download accelerations and jerks in one.
	u.begin()
	u.writeF32(u.bufIn, u.hostIn)
	u.launch("jerk."+plan, kernel, lp)
	u.readF32(u.bufOut, u.hostOut)
	rp, err := u.finishFlops("jerk:"+plan, n, interactions, interactions*pp.FlopsPerJerkInteraction, hostWall)
	if err != nil {
		return nil, err
	}

	acc, jk := u.outputs(u.hostOut)
	for k, i := range active {
		s.Acc[i] = vec.V3{X: acc[4*k+0], Y: acc[4*k+1], Z: acc[4*k+2]}
		jerk[i] = vec.V3{X: jk[4*k+0], Y: jk[4*k+1], Z: jk[4*k+2]}
	}

	if u.obs != nil {
		u.obs.Counter("core.jerk.plan." + plan).Inc()
		u.obs.Gauge("core.jerk.active_fraction").Set(float64(activeN) / float64(n))
	}
	return rp, nil
}
